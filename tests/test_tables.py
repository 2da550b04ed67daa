import importlib.util
import random
import sys
import tracemalloc
from pathlib import Path

import pytest

from lexenum import (
    EXHAUSTED,
    CrossSectionCursor,
    MinWordTables,
    build_nfa,
    compile_regex,
    cross_section,
    parse_automaton,
    precompute,
    random_automaton,
)
from lexenum.enumeration import min_word
from lexenum.instrument import counting
from lexenum.oracle import min_words_by_state
from helpers import (
    BIPARTITE_4,
    UNARY_2_CYCLE,
    assert_tables_match_full_scan,
    corpus_automaton,
    first_repeat,
    nested_scaling_family,
    start_run,
    tables_snapshot,
)


def _least_word(tables, k, q):
    """The least length-k word from state ``q``, completed by min_word."""
    return min_word(k, start_run(tables.nfa, [q]), tables)


def test_a1_live_levels(a1):
    # a1 (a*ba*): level 0 is the final state 1. Both states have a
    # transition into it, state 1 on "a" and state 0 on "b", so level 1
    # holds both, and so does every later level: level 2 settles, and it and
    # level 3 are level 1's set itself. Each state's least word takes as
    # its first step the least such symbol.
    tables = precompute(a1, 3)
    assert tables.live == [{1}, {0, 1}, {0, 1}, {0, 1}]
    assert tables.live[3] is tables.live[2] is tables.live[1]
    assert [_least_word(tables, 1, q) for q in (0, 1)] == [(1,), (0,)]
    assert [_least_word(tables, 2, q) for q in (0, 1)] == [(0, 1), (0, 0)]
    assert repr(tables) == "MinWordTables(length=3, states=2)"


def test_chain_never_dangles():
    # On either kernel: every state live at a level k >= 1 has a transition
    # into a state live at level k - 1, so each completion letter leads on
    # to a live state; no other state is live; and a settled level is its
    # level's set object.
    rng = random.Random(37)
    kernels = set()
    for _ in range(60):
        nfa = corpus_automaton(rng)
        kernels.add(nfa.kernel)
        tables = precompute(nfa, 6)
        assert tables.live[0] == set(nfa.final_states)
        for k in range(1, 7):
            below = tables.live[k - 1]
            leads_on = {
                q for q in range(nfa.state_count)
                if any(not below.isdisjoint(targets) for _, targets in nfa.adjacency[q])
            }
            assert tables.live[k] == leads_on
            if tables.live[k] == below:
                assert tables.live[k] is below
    assert kernels == {"list", "bit"}


def test_a1_least_words_per_level(a1):
    # The least words min_word completes order a1's states per level.
    tables = precompute(a1, 2)
    # Level 0: only the final state accepts.
    assert [_least_word(tables, 0, q) for q in (0, 1)] == [None, ()]
    # Level 1: the least word from state 1 ("a") beats state 0's ("b").
    assert _least_word(tables, 1, 1) < _least_word(tables, 1, 0)
    # Level 2: "ab" from state 0 vs "aa" from state 1.
    assert _least_word(tables, 2, 1) < _least_word(tables, 2, 0)


def test_spelled_words_a1(a1):
    tables = precompute(a1, 2)
    assert _least_word(tables, 1, 0) == (1,)  # "b"
    assert _least_word(tables, 1, 1) == (0,)  # "a"
    assert _least_word(tables, 2, 0) == (0, 1)  # "ab"
    assert _least_word(tables, 2, 1) == (0, 0)  # "aa"
    assert _least_word(tables, 0, 0) is None  # not final
    assert _least_word(tables, 0, 1) == ()


def test_no_final_states_leaves_tables_empty():
    nfa = build_nfa("ab", 3, [0], [], [(0, "a", 1), (1, "b", 2)])
    tables = precompute(nfa, 4)
    for k in range(5):
        assert tables.live[k] == frozenset()
        assert all(_least_word(tables, k, q) is None for q in range(3))


def test_length_zero_has_single_level(a1):
    tables = precompute(a1, 0)
    assert tables.live == [{1}]
    assert tables.length == 0


def test_add_level_leaves_existing_levels_and_cursors_alone():
    # The owner appends levels while cursors over shorter lengths keep
    # reading: levels 0..k must not change, so such a cursor yields what a
    # cursor over fresh tables of length k yields.
    rng = random.Random(53)
    for _ in range(60):
        nfa = corpus_automaton(rng)
        tables = precompute(nfa, 0)
        for k in range(6):
            before = tables_snapshot(tables)
            cursor = CrossSectionCursor(nfa, k, tables)
            first = cursor.next()
            tables.add_level()
            assert tables.length == k + 1
            assert tuple(part[: k + 1] for part in tables_snapshot(tables)) == before
            rest = list(cursor)
            words = rest if first is EXHAUSTED else [first, *rest]
            assert words == list(cross_section(nfa, k, precompute(nfa, k)))
        grown = precompute(nfa, 6)
        assert tables_snapshot(tables) == tables_snapshot(grown)
        assert tables.fill_ops == grown.fill_ops


def test_negative_length_rejected(a1):
    with pytest.raises(ValueError):
        precompute(a1, -1)


def test_spelled_words_match_bruteforce():
    rng = random.Random(41)
    for _ in range(60):
        nfa = corpus_automaton(rng)
        tables = precompute(nfa, 5)
        for k in range(6):
            mins = min_words_by_state(nfa, k)
            for q in range(nfa.state_count):
                assert _least_word(tables, k, q) == mins[q]


def test_fill_work_is_linear_in_transitions():
    # fill_ops counts the predecessor entries the levels visit; it must stay
    # within a fixed multiple of l * |delta|.
    for ell in (2, 4, 8):
        for delta, nfa in nested_scaling_family(99, (40, 80, 160)).items():
            tables = precompute(nfa, ell)
            assert tables.fill_ops <= 4 * ell * delta


def test_frontier_fill_equals_full_scan_on_a_seeded_corpus():
    # add_level walks only the predecessors of the live states; the full
    # scan in helpers walks every row. Both must build the same levels.
    rng = random.Random(59)
    for _ in range(300):
        n = rng.randint(1, 30)
        s = rng.randint(1, 4)
        nfa = random_automaton(rng, n, s, rng.randint(0, 2 * n * s))
        assert_tables_match_full_scan(precompute(nfa, rng.randint(0, 12)))


@pytest.mark.parametrize(
    "nfa,length,kernel",
    [
        # Its live set stops changing at level 4, so its tables settle at
        # level 5.
        (random_automaton(random.Random(2), 500, 4, 3000, 50, 50), 40, "list"),
        (UNARY_2_CYCLE, 12, "list"),
        (BIPARTITE_4, 12, "bit"),
    ],
    ids=["random-500", "unary-2-cycle", "bipartite-4"],
)
def test_frontier_fill_equals_full_scan_on_a_period_two_automaton(nfa, length, kernel):
    assert nfa.kernel == kernel
    assert_tables_match_full_scan(precompute(nfa, length))


@pytest.mark.parametrize(
    "automata,length",
    [
        ([corpus_automaton(random.Random(seed)) for seed in range(300)], 8),
        ([UNARY_2_CYCLE], 12),
        ([BIPARTITE_4], 12),
    ],
    ids=["corpus", "unary-2-cycle", "bipartite-4"],
)
def test_live_is_the_top_levels_live_set_after_every_level(automata, length):
    # After every level, from level 0 on, through levels built in full and
    # settled levels, the top level's live set is a frozenset of exactly the
    # states that accept a word of that length.
    settled = 0
    for nfa in automata:
        tables = MinWordTables(nfa)
        for k in range(length + 1):
            if k:
                tables.add_level()
            assert tables.length == k
            assert type(tables.live[-1]) is frozenset
            mins = min_words_by_state(nfa, k)
            assert tables.live[-1] == {q for q, word in enumerate(mins) if word is not None}
        settled += tables.live[length] is tables.live[length - 1]
    if len(automata) > 1:
        assert {nfa.kernel for nfa in automata} == {"list", "bit"}
        assert settled > 0


def _dense_cross_automaton():
    """perfbench's dense-cross automaton for seed 1: 200 states, 4 symbols,
    2000 transitions, parsed from the workload's own file text."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up in sys.modules.
    sys.modules[spec.name] = workloads
    spec.loader.exec_module(workloads)
    return parse_automaton(workloads.DenseCross(1).text)


@pytest.mark.parametrize(
    "nfa,length,settles",
    [(_dense_cross_automaton(), 32, 3), (compile_regex("(a|b|c)*b(a|c)*"), 40, 2)],
    ids=["dense-cross", "tiny-stream"],
)
def test_every_level_above_a_settled_one_is_that_level(nfa, length, settles):
    # Level k + 1 is a function of live[k], so once live[s] equals
    # live[s - 1] every later level is level s: the same live set and mask
    # list objects, not copies, and level s is level s - 1's.
    assert nfa.kernel == "bit"
    tables = precompute(nfa, length)
    s = next(k for k in range(1, length + 1) if tables.live[k] == tables.live[k - 1])
    assert s == settles
    for k in range(s, length + 1):
        assert tables.live[k] is tables.live[s - 1]
        assert tables.pred_masks[k] is tables.pred_masks[s - 1]
    assert_tables_match_full_scan(tables)


def test_a_settled_level_charges_one_unit_and_fills_nothing():
    # The tiny-stream regex: all 7 states are live from level 1 on. Level 2
    # visits level 1's predecessor entries, every transition, and finds the
    # same set: it pays for the visit and for its 7 states, then settles as
    # a settled level does, for one unit. Level 3 is a settled level.
    nfa = compile_regex("(a|b|c)*b(a|c)*")
    assert nfa.kernel == "bit"
    n = nfa.state_count
    tables = precompute(nfa, 1)
    assert len(tables.live[1]) == n
    fill = tables.fill_ops
    with counting() as counter:
        tables.add_level()
        assert tables.fill_ops - fill == nfa.transition_count
        assert counter.ops == nfa.transition_count + n + 1 == 30
    assert tables.live[2] is tables.live[1]
    fill = tables.fill_ops
    with counting() as counter:
        tables.add_level()
        assert counter.ops == 1
    assert tables.fill_ops == fill


@pytest.mark.parametrize(
    "nfa,period",
    [
        (UNARY_2_CYCLE, 2),
        (BIPARTITE_4, 2),
        (compile_regex("(a|b)*"), 1),
        (compile_regex("(aa)*b"), 2),
        (random_automaton(random.Random(2), 500, 4, 3000, 50, 50), 1),
    ],
    ids=["unary-2-cycle", "bipartite-4", "(a|b)*", "(aa)*b", "random-500"],
)
def test_levels_past_the_first_repeat_are_the_levels_one_period_below(nfa, period):
    # Level k + 1 is a function of live[k], so once L(j+p) = L(j) the live
    # sets repeat with period p. period reads 0 until the tables reach level
    # j+p and p from then on. Every level from j+p on is level k - p: the
    # same live set and, on the bit kernel, mask list objects, not copies.
    # The levels still equal a full scan's up to 3(j+p).
    repeat = first_repeat(precompute(nfa, 16))
    assert precompute(nfa, repeat - 1).period == 0
    tables = precompute(nfa, 3 * repeat)
    assert tables.period == period
    for k in range(repeat, 3 * repeat + 1):
        assert tables.live[k] is tables.live[k - period]
        if tables.pred_masks is not None:
            assert tables.pred_masks[k] is tables.pred_masks[k - period]
    assert_tables_match_full_scan(tables)


def test_a_repeat_of_period_two_charges_as_a_settled_level_does():
    # BIPARTITE_4's live sets are {0}, {2, 3}, {0, 1}, {2, 3}, ...: level 3
    # visits the 4 predecessor entries of {0, 1} and finds level 1's set,
    # so it pays for the visit and its 2 states, builds no masks, and is
    # appended for one unit as every later level is.
    tables = precompute(BIPARTITE_4, 2)
    assert tables.period == 0
    fill = tables.fill_ops
    with counting() as counter:
        tables.add_level()
        assert tables.fill_ops - fill == 4
        assert counter.ops == 4 + 2 + 1
    assert tables.period == 2
    assert tables.live[3] is tables.live[1]
    assert tables.pred_masks[3] is tables.pred_masks[1]
    fill = tables.fill_ops
    with counting() as counter:
        tables.add_level()
        assert counter.ops == 1
    assert tables.fill_ops == fill
    assert tables.live[4] is tables.live[2]


@pytest.mark.parametrize(
    "regex,kernel,repeat,period",
    [
        ("(a|b)*", "list", 1, 1),
        ("(a|b|c)*b(a|c)*", "bit", 2, 1),
        ("(aa)*", "list", 2, 2),
    ],
)
def test_the_first_repeat_drops_what_only_add_level_reads(regex, kernel, repeat, period):
    # One level below the first repeat the tables still hold the predecessor
    # lists, the dict from live set to first level and, on the bit kernel,
    # the pm masks; the level that repeats drops all three.
    nfa = compile_regex(regex)
    assert nfa.kernel == kernel
    below = precompute(nfa, repeat - 1)
    assert below.period == 0
    assert below._pred is not None and below._first is not None
    assert (below._pm is not None) == (kernel == "bit")
    tables = precompute(nfa, repeat)
    assert tables.period == period
    assert tables._pred is tables._pm is tables._first is None


def test_fill_work_stops_at_the_first_repeat():
    # (aa)*'s live sets alternate from level 0: no level past level 2
    # visits a predecessor entry, however long the tables.
    nfa = compile_regex("(aa)*")
    assert precompute(nfa, 10**6).fill_ops == precompute(nfa, 10).fill_ops == 3


def test_settled_tables_take_constant_memory_per_level():
    # (a|b)* settles at level 1, so each of 10**5 levels is two references
    # (about 1.6 MB in all); a new |Q|-row pair per level took about 33 MB.
    nfa = compile_regex("(a|b)*")
    tracemalloc.start()
    try:
        precompute(nfa, 10**5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_frontier_fill_equals_full_scan_on_a_finite_alternation():
    # A dictionary of words of lengths 3..8: the live set shrinks level by
    # level and is empty above the longest word.
    rng = random.Random(61)
    words = {
        "".join(rng.choice("abcdefgh") for _ in range(length))
        for length in range(3, 9)
        for _ in range(12)
    }
    nfa = compile_regex("|".join(sorted(words)))
    tables = precompute(nfa, 10)
    assert_tables_match_full_scan(tables)
    assert tables.live[9] == tables.live[10] == frozenset()


def test_fill_work_does_not_grow_with_dead_states():
    # a1 beside a chain of D states that reach no final state: no chain
    # state ever has a live successor, so the fill never walks its row.
    def with_dead_chain(d):
        chain = [(i, "a", i + 1) for i in range(2, d + 1)]
        return build_nfa(
            "ab", 2 + d, [0], [1], [(0, "a", 0), (0, "b", 1), (1, "a", 1), *chain]
        )

    assert precompute(with_dead_chain(10), 8).fill_ops == precompute(
        with_dead_chain(10_000), 8
    ).fill_ops
