"""End-to-end acceptance suite.

Each test prints one PASS line (visible with ``pytest -s``) and pins its
tolerances as module constants:

1. cursor output equals brute force on a 1000-instance random corpus;
2. table contents equal the brute-force minimal-word oracle on that corpus;
3. per-output operation counts stay within DELAY_C * l * |delta| on a scaling
   family, and doubling |delta| at fixed l raises the worst output cost by at
   most DOUBLING_LIMIT;
4. preprocessing operation counts stay within PREPROC_C * (l*|Q|^2 + l*|delta|
   + |sigma|*|Q|) on the same family;
5. enumeration writes nothing: tables are byte-identical afterwards and a
   fast-forwarded fresh cursor reproduces any tail;
6. empty-word and degenerate automata behave exactly;
7. the a*ba* reference automaton reproduces its frozen cross-sections;
8. one word of a length-40 universal-language cross-section streams out in
   under a second;
9. on sparse automata, which run the list kernel, every per-output operation
   count stays within DELAY_C * l * |delta|;
10. in radix order, every per-output operation count, the first included,
    stays within RADIX_C * (l+1) * (|delta| + |Q|*ceil(log2 max(|Q|, 2))),
    where l is the output's length, on a family with long runs of empty
    lengths;
11. preprocessing operation counts, automaton layout included, stay within
    PREPROC_C * (l*(|delta| + |Q|*ceil(log2 |Q|)) + |sigma| + |Q| + |delta|)
    on criterion 3's family, on automata whose |Q| doubles at a fixed
    |delta|/|Q|, and on a wide alphabet with |sigma|*|Q| far above |delta|.
"""

import os
import random
import subprocess
import sys
import time
from itertools import islice
from pathlib import Path

from lexenum import (
    EXHAUSTED,
    CrossSectionCursor,
    build_nfa,
    compile_regex,
    cross_section,
    measure_delays,
    precompute,
    radix_words,
    random_automaton,
)
from lexenum.enumeration import min_word
from lexenum.instrument import counting
from lexenum.oracle import cross_section_bruteforce, min_words_by_state
from helpers import (
    corpus_automaton,
    make_a1,
    nested_scaling_family,
    rank_leq,
    rebuild_factory,
    tables_snapshot,
)

CORPUS_SEED = 20250809
CORPUS_SIZE = 1000
MAX_LEN = 7

# Delay and preprocessing constants, fixed from the cost model with margin:
# measured worst ratios on the family below are ~0.27 and ~1.79.
DELAY_C = 2.0
PREPROC_C = 8.0
DOUBLING_LIMIT = 2.5

FAMILY_LENGTHS = (4, 8, 16)
FAMILY_DELTAS = (50, 100, 200, 400)
FAMILY_SEEDS = (0, 1, 2)
FAMILY_STATES = 20
FAMILY_SYMBOLS = 4
FAMILY_OUTPUT_LIMIT = 2000

# Criterion 9: larger, sparse automata, all on the list kernel. Criterion
# 3's family runs the bit kernel throughout. Only the per-gap bound is gated:
# at small |delta| the gaps sit far below it, so doubling ratios reach ~20x.
LIST_FAMILY_DELTAS = {100: (150, 300), 200: (250, 500)}

# Criterion 11: |Q| doubles at PREPROC_DELTA_PER_STATE transitions per state,
# and one wide-alphabet cell has |sigma|*|Q| = 64000 against |delta| = 128.
PREPROC_STATES = (50, 100, 200, 400)
PREPROC_DELTA_PER_STATE = 3
WIDE_SYMBOLS, WIDE_STATES, WIDE_DELTA = 1000, 64, 128

# Criterion 10: the first RADIX_WORDS outputs of each automaton in radix
# order. Measured worst gap / ((l+1)*(|delta| + |Q|*ceil(log2 max(|Q|, 2))))
# is 4.70, on the two-state a*ba* automaton of make_a1 at its first word,
# whose gap also pays the tables' setup and the reachable-state pass; every
# later gap is at most 1.87, also make_a1's.
RADIX_C = 8.0
RADIX_WORDS = 300

_family_cache: dict = {}


def _family_reports():
    """Measure the scaling family once; criteria 3 and 4 share the data."""
    if not _family_cache:
        t0 = time.perf_counter()
        reports: dict = {}
        for ell in FAMILY_LENGTHS:
            for seed in FAMILY_SEEDS:
                family = nested_scaling_family(
                    9000 + ell * 7 + seed,
                    FAMILY_DELTAS,
                    state_count=FAMILY_STATES,
                    symbol_count=FAMILY_SYMBOLS,
                )
                for delta, nfa in family.items():
                    report = measure_delays(
                        rebuild_factory(nfa), ell, limit=FAMILY_OUTPUT_LIMIT
                    )
                    reports.setdefault((ell, delta), []).append(report)
        _family_cache["reports"] = reports
        _family_cache["elapsed"] = time.perf_counter() - t0
    return _family_cache


def test_criterion_1_cursor_matches_bruteforce_on_corpus():
    rng = random.Random(CORPUS_SEED)
    t0 = time.perf_counter()
    for _ in range(CORPUS_SIZE):
        nfa = corpus_automaton(rng)
        tables = precompute(nfa, MAX_LEN)
        for length in range(MAX_LEN + 1):
            assert (
                list(cross_section(nfa, length, tables))
                == cross_section_bruteforce(nfa, length)
            )
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(
        f"PASS 1: cursor output equals brute force on {CORPUS_SIZE} random "
        f"automata at lengths 0..{MAX_LEN} ({elapsed:.1f}s)",
        flush=True,
    )


def test_criterion_2_tables_match_minimal_word_oracle():
    rng = random.Random(CORPUS_SEED)
    t0 = time.perf_counter()
    for _ in range(CORPUS_SIZE):
        nfa = corpus_automaton(rng)
        n = nfa.state_count
        tables = precompute(nfa, MAX_LEN)
        for k in range(MAX_LEN + 1):
            mins = min_words_by_state(nfa, k)
            for q in range(n):
                assert min_word(k, tables.rank[k][q], tables) == mins[q]
                accepts = mins[q] is not None
                for qp in range(n):
                    expected = accepts and (mins[qp] is None or mins[q] <= mins[qp])
                    assert rank_leq(tables, k, q, qp) == expected
    print(
        f"PASS 2: spelled minimal words and rank orders exact on the corpus "
        f"({time.perf_counter() - t0:.1f}s)",
        flush=True,
    )


def test_criterion_3_delay_bound_on_scaling_family():
    cache = _family_reports()
    reports = cache["reports"]
    worst_ratio = 0.0
    for (ell, delta), reps in reports.items():
        bound = DELAY_C * ell * delta
        for report in reps:
            assert report.records[0].word is not EXHAUSTED, (
                f"family cell l={ell} delta={delta} produced nothing"
            )
            # One gap per next() call, the final one included.
            for gap in (r.op_count for r in report.records):
                assert gap <= bound, (ell, delta, gap, bound)
                worst_ratio = max(worst_ratio, gap / (ell * delta))
    for ell in FAMILY_LENGTHS:
        maxima = {}
        for delta in FAMILY_DELTAS:
            worst = 0
            for report in reports[(ell, delta)]:
                worst = max(worst, max(r.op_count for r in report.records))
            maxima[delta] = worst
        for small, big in zip(FAMILY_DELTAS, FAMILY_DELTAS[1:]):
            assert maxima[big] <= DOUBLING_LIMIT * maxima[small], (
                ell,
                small,
                big,
                maxima,
            )
    assert cache["elapsed"] < 120.0
    print(
        f"PASS 3: every inter-output gap <= {DELAY_C}*l*delta (worst ratio "
        f"{worst_ratio:.2f}) and doubling delta scales <= {DOUBLING_LIMIT}x "
        f"({cache['elapsed']:.1f}s)",
        flush=True,
    )


def test_criterion_4_preprocessing_bound_on_scaling_family():
    reports = _family_reports()["reports"]
    worst_ratio = 0.0
    for (ell, delta), reps in reports.items():
        for report in reps:
            n = report.state_count
            budget = PREPROC_C * (
                ell * n * n + ell * delta + report.symbol_count * n
            )
            assert report.preproc_ops <= budget, (ell, delta, report.preproc_ops)
            worst_ratio = max(worst_ratio, report.preproc_ops / budget * PREPROC_C)
    print(
        f"PASS 4: preprocessing ops <= {PREPROC_C}*(l*Q^2 + l*delta + sigma*Q) "
        f"(worst ratio {worst_ratio:.2f})",
        flush=True,
    )


def test_criterion_5_enumeration_is_memoryless():
    rng = random.Random(CORPUS_SEED + 5)
    pairs = 0
    t0 = time.perf_counter()
    while pairs < 100:
        nfa = corpus_automaton(rng)
        length = rng.randint(1, MAX_LEN)
        tables = precompute(nfa, length)
        before = tables_snapshot(tables)
        words = list(cross_section(nfa, length, tables))
        assert tables_snapshot(tables) == before
        if not words:
            continue
        i = rng.randrange(len(words))
        forwarded = CrossSectionCursor(nfa, length, tables)
        forwarded.seek(words[i])
        assert list(forwarded) == words[i + 1 :]
        assert tables_snapshot(tables) == before
        pairs += 1
    print(
        f"PASS 5: tables byte-identical through enumeration; 100 fast-forwarded "
        f"cursors reproduce their tails ({time.perf_counter() - t0:.1f}s)",
        flush=True,
    )


def test_criterion_6_degenerate_cases_are_exact():
    # The empty word appears exactly when an initial state is final.
    eps_nfa = build_nfa("a", 1, [0], [0], [])
    assert list(cross_section(eps_nfa, 0)) == [()]
    assert list(radix_words(eps_nfa, max_length=3)) == [()]

    no_final = build_nfa("ab", 2, [0], [], [(0, "a", 1), (1, "b", 0)])
    no_initial = build_nfa("ab", 2, [], [1], [(0, "a", 1), (1, "b", 0)])
    for nfa in (no_final, no_initial):
        for length in range(6):
            assert list(cross_section(nfa, length)) == []

    # One-symbol alphabets: at most one word per length, the right one.
    rng = random.Random(CORPUS_SEED + 6)
    for _ in range(50):
        n = rng.randint(1, 6)
        nfa = random_automaton(rng, n, 1, rng.randint(0, round(1.5 * n)))
        for length in range(MAX_LEN + 1):
            words = list(cross_section(nfa, length))
            assert words == cross_section_bruteforce(nfa, length)
            assert len(words) <= 1
            if words:
                assert words[0] == (0,) * length
    print("PASS 6: empty-word, empty-set, and unary-alphabet cases exact", flush=True)


def test_criterion_7_reference_automaton_fixtures():
    nfa = make_a1()
    frozen = {1: ["b"], 2: ["ab", "ba"], 3: ["aab", "aba", "baa"]}
    for length, expected in frozen.items():
        got = [nfa.format_word(w) for w in cross_section(nfa, length)]
        oracle = [nfa.format_word(w) for w in cross_section_bruteforce(nfa, length)]
        assert got == oracle == expected
    radix = [nfa.format_word(w) for w in radix_words(nfa, max_length=3)]
    assert radix == ["b", "ab", "ba", "aab", "aba", "baa"]
    print("PASS 7: a*ba* cross-sections and radix prefix match frozen fixtures", flush=True)


def test_criterion_8_streaming_one_word_of_huge_cross_section():
    cmd = [
        sys.executable,
        "-m",
        "lexenum",
        "enum",
        "--regex",
        "(a|b)*",
        "--length",
        "40",
        "--limit",
        "1",
    ]
    # The subprocess does not see pytest's pythonpath setting, so it is
    # given the checkout's src/ explicitly.
    src = str(Path(__file__).resolve().parents[1] / "src")
    inherited = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + inherited if inherited else src}
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=30, env=env)
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "a" * 40 + "\n"
    assert elapsed < 1.0
    print(
        f"PASS 8: first of 2^40 words streamed and process exited in {elapsed:.2f}s",
        flush=True,
    )


def test_criterion_9_delay_bound_on_list_kernel():
    t0 = time.perf_counter()
    worst_ratio = 0.0
    cells = with_words = 0
    for state_count, deltas in LIST_FAMILY_DELTAS.items():
        for ell in FAMILY_LENGTHS:
            for seed in FAMILY_SEEDS:
                family = nested_scaling_family(
                    9000 + ell * 7 + seed,
                    deltas,
                    state_count=state_count,
                    symbol_count=FAMILY_SYMBOLS,
                )
                for delta, nfa in family.items():
                    assert nfa.kernel == "list", (state_count, delta)
                    report = measure_delays(nfa, ell, limit=FAMILY_OUTPUT_LIMIT)
                    # An empty cross-section still has one gap, the one that
                    # finds it empty.
                    with_words += report.records[0].word is not EXHAUSTED
                    gaps = [r.op_count for r in report.records]
                    for gap in gaps:
                        assert gap <= DELAY_C * ell * delta, (state_count, ell, delta, gap)
                    worst_ratio = max(worst_ratio, max(gaps) / (ell * delta))
                    cells += 1
    assert 2 * with_words > cells, (with_words, cells)
    print(
        f"PASS 9: every inter-output gap <= {DELAY_C}*l*delta on {cells} list-kernel "
        f"automata, {with_words} of them non-empty (worst ratio {worst_ratio:.3f}, "
        f"{time.perf_counter() - t0:.1f}s)",
        flush=True,
    )


def _dict_radix_pattern(seed: int) -> str:
    """An alternation of 25 random words over abcdefgh per length 3..12, in
    shuffled order: a finite language with one state per letter."""
    rng = random.Random(seed)
    words: set = set()
    for length in range(3, 13):
        chosen: set = set()
        while len(chosen) < 25:
            chosen.add("".join(rng.choice("abcdefgh") for _ in range(length)))
        words |= chosen
    order = sorted(words)
    rng.shuffle(order)
    return "|".join(order)


def test_criterion_10_delay_bound_in_radix_order():
    # Languages with long runs of empty lengths (the first two skip 39 and 4
    # lengths before their first word), a finite one that the run ends by
    # itself, and automata on both kernels.
    family = {
        "(a^40|a^41)*": compile_regex("(" + "a" * 40 + "|" + "a" * 41 + ")*"),
        "(aaaaa|aaaaaaa)*": compile_regex("(aaaaa|aaaaaaa)*"),
        "a*ba*": compile_regex("a*ba*"),
        "(a|b|c)*b(a|c)*": compile_regex("(a|b|c)*b(a|c)*"),
        "dict-radix seed 1": compile_regex(_dict_radix_pattern(1)),
        "a1": make_a1(),
        "random 200 states": random_automaton(random.Random(1), 200, 4, 2000, 50, 50),
    }
    assert {nfa.kernel for nfa in family.values()} == {"list", "bit"}
    t0 = time.perf_counter()
    worst_ratio = 0.0
    for name, nfa in family.items():
        n = nfa.state_count
        unit = nfa.transition_count + n * (max(n, 2) - 1).bit_length()
        length = None
        with counting() as ops:
            mark = 0
            for word in islice(radix_words(nfa), RADIX_WORDS):
                gap, mark = ops.ops - mark, ops.ops
                length = len(word)
                assert gap <= RADIX_C * (length + 1) * unit, (name, length, gap)
                worst_ratio = max(worst_ratio, gap / ((length + 1) * unit))
        assert length is not None, name
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(
        f"PASS 10: every radix-order gap <= {RADIX_C}*(l+1)*(delta + Q*ceil(log2 Q)) "
        f"over the first {RADIX_WORDS} words of {len(family)} automata "
        f"(worst ratio {worst_ratio:.2f}, {elapsed:.1f}s)",
        flush=True,
    )


def _linear_preproc_budget(report) -> int:
    """l*(|delta| + |Q|*ceil(log2 |Q|)) + |sigma| + |Q| + |delta|."""
    n, delta = report.state_count, report.transition_count
    per_level = delta + n * (n - 1).bit_length()
    return report.length * per_level + report.symbol_count + n + delta


def test_criterion_11_preprocessing_bound_without_sigma_times_states():
    t0 = time.perf_counter()
    reports = [r for reps in _family_reports()["reports"].values() for r in reps]
    for ell in FAMILY_LENGTHS:
        for seed in FAMILY_SEEDS:
            for n in PREPROC_STATES:
                delta = PREPROC_DELTA_PER_STATE * n
                (nfa,) = nested_scaling_family(
                    11000 + ell * 7 + seed, (delta,), state_count=n, symbol_count=FAMILY_SYMBOLS
                ).values()
                reports.append(measure_delays(rebuild_factory(nfa), ell, limit=1))
    rng = random.Random(CORPUS_SEED + 11)
    glyphs = "".join(chr(0x100 + i) for i in range(WIDE_SYMBOLS))
    triples = {
        (rng.randrange(WIDE_STATES), rng.randrange(WIDE_SYMBOLS), rng.randrange(WIDE_STATES))
        for _ in range(WIDE_DELTA)
    }
    wide = build_nfa(glyphs, WIDE_STATES, range(8), range(8, 16), sorted(triples))
    for ell in FAMILY_LENGTHS:
        reports.append(measure_delays(rebuild_factory(wide), ell, limit=1))
    worst_ratio = 0.0
    for report in reports:
        budget = _linear_preproc_budget(report)
        assert report.preproc_ops <= PREPROC_C * budget, (
            report.length, report.state_count, report.symbol_count,
            report.transition_count, report.preproc_ops, budget,
        )
        worst_ratio = max(worst_ratio, report.preproc_ops / budget)
    print(
        f"PASS 11: preprocessing ops, layout included, <= {PREPROC_C}*(l*(delta + "
        f"Q*ceil(log2 Q)) + sigma + Q + delta) on {len(reports)} automata "
        f"(worst ratio {worst_ratio:.2f}, {time.perf_counter() - t0:.1f}s)",
        flush=True,
    )
