import random
from types import SimpleNamespace

from lexenum import EXHAUSTED, compile_regex, cross_section, measure_delays, precompute
from lexenum import bench
from lexenum.instrument import counting, ops
from helpers import corpus_automaton, make_a1, tables_snapshot


def test_counting_context_restores_state():
    ops.enabled = False
    ops.ops = 0
    with counting() as counter:
        assert counter.enabled
        counter.ops += 5
    assert not ops.enabled
    assert ops.ops == 0


def test_disabled_block_leaves_the_counter_alone():
    with counting() as outer:
        outer.ops += 4
        with counting(False) as inner:
            assert inner is outer and inner.enabled
            precompute(make_a1(), 2)
        assert outer.enabled
        assert outer.ops > 4
    ops.enabled = False
    ops.ops = 7
    with counting(False) as counter:
        assert not counter.enabled and counter.ops == 7
    assert ops.ops == 7
    ops.ops = 0


def test_nested_count_reaches_the_enclosing_count():
    nfa = make_a1()
    with counting() as counter:
        precompute(nfa, 3)
        single = counter.ops
    with counting() as outer:
        precompute(nfa, 3)
        with counting() as inner:
            precompute(nfa, 3)
            assert inner.ops == single
        assert outer.ops == 2 * single
    assert not ops.enabled


def test_measure_delays_tally_reaches_an_enclosing_count():
    nfa = compile_regex("(a|b|c)*b(a|c)*")
    with counting() as outer:
        report = measure_delays(nfa, 4)
        total = outer.ops
    assert report.exhausted
    assert total == report.preproc_ops + sum(r.op_count for r in report.records) == 448


def test_enumeration_is_identical_with_counters_on_and_off():
    rng = random.Random(97)
    for _ in range(20):
        nfa = corpus_automaton(rng)
        plain_tables = precompute(nfa, 4)
        plain = [list(cross_section(nfa, k, plain_tables)) for k in range(5)]
        with counting():
            counted_tables = precompute(nfa, 4)
            counted = [list(cross_section(nfa, k, counted_tables)) for k in range(5)]
        assert counted == plain
        assert tables_snapshot(counted_tables) == tables_snapshot(plain_tables)


def test_disabled_counter_stays_at_zero():
    ops.enabled = False
    ops.ops = 0
    nfa = make_a1()
    list(cross_section(nfa, 4))
    assert ops.ops == 0


def test_counter_accumulates_when_enabled():
    nfa = make_a1()
    with counting() as counter:
        precompute(nfa, 3)
        assert counter.ops > 0


def test_measure_delays_reports_all_outputs():
    nfa = make_a1()
    report = measure_delays(nfa, 2)
    # One record per next() call: two words, then the call that ends the run.
    assert [r.index for r in report.records] == [0, 1, 2]
    assert [len(r.word) for r in report.records[:2]] == [2, 2]
    assert report.records[2].word is EXHAUSTED
    assert report.exhausted
    assert report.transition_count == 3
    # measuring must leave the global counter as it found it
    assert not ops.enabled


def test_first_gap_clock_covers_the_cursor_setup(monkeypatch):
    # The first gap's tally counts building the cursor, so its clock must
    # time it too. A fake clock moves only while the cursor is built.
    clock = [0]

    class SlowCursor(bench.CrossSectionCursor):
        def __init__(self, *args, **kwargs):
            clock[0] += 10**9
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(bench, "CrossSectionCursor", SlowCursor)
    monkeypatch.setattr(bench, "time", SimpleNamespace(perf_counter_ns=lambda: clock[0]))
    report = measure_delays(make_a1(), 2)
    assert report.preproc_nanos == 0
    assert [r.wall_nanos for r in report.records] == [10**9, 0, 0]


def test_measure_delays_limit_cuts_short():
    nfa = make_a1()
    report = measure_delays(nfa, 2, limit=1)
    assert len(report.records) == 1
    assert not report.exhausted


def test_csv_lines_shape():
    nfa = make_a1()
    lines = list(measure_delays(nfa, 2).csv_lines())
    assert lines[0].startswith("# l=2, Q=2, sigma=2, delta=3, preproc_ops=")
    assert lines[1] == "index,word_len,op_count,wall_nanos"
    assert len([l for l in lines if not l.startswith("#")]) == 3
