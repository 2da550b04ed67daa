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
    assert_tables_match_full_scan,
    corpus_automaton,
    nested_scaling_family,
    rank_leq,
    tables_snapshot,
)


def test_a1_first_step_levels(a1):
    # a1 (a*ba*): level 1 spells "a" (rank 0) and "b" (rank 1), each a
    # letter before the empty word of rank 0; level 2 spells "aa" and "ab",
    # and settles, so level 3 is level 2.
    tables = precompute(a1, 3)
    assert tables.rank[:3] == [[2, 0], [1, 0], [1, 0]]
    assert tables.first_step[:3] == [[], [(0, 0), (1, 0)], [(0, 0), (0, 1)]]
    assert tables.first_step[3] is tables.first_step[2]
    assert repr(tables) == "MinWordTables(length=3, states=2)"


def test_chain_never_dangles():
    # On either kernel: one step per live rank, strictly increasing, each
    # onto a rank live one level down, and a settled level's list object.
    rng = random.Random(37)
    kernels = set()
    for _ in range(60):
        nfa = corpus_automaton(rng)
        kernels.add(nfa.kernel)
        n = nfa.state_count
        tables = precompute(nfa, 6)
        assert tables.first_step[0] == []
        for k in range(1, 7):
            steps = tables.first_step[k]
            assert len(steps) == len({r for r in tables.rank[k] if r < n})
            assert all(p < q for p, q in zip(steps, steps[1:]))
            below = set(tables.rank[k - 1]) - {n}
            assert all(r in below for _, r in steps)
            if k >= 2 and tables.rank[k - 1] == tables.rank[k - 2]:
                assert steps is tables.first_step[k - 1]
    assert kernels == {"list", "bit"}


def test_a1_order_levels(a1):
    tables = precompute(a1, 2)
    # Level 0: only the final state accepts, and compares below everything.
    level0 = [rank_leq(tables, 0, q, p) for q in (0, 1) for p in (0, 1)]
    assert level0 == [False, False, True, True]
    # Level 1: the least word from state 1 ("a") beats state 0's ("b").
    assert rank_leq(tables, 1, 1, 0)
    assert not rank_leq(tables, 1, 0, 1)
    assert rank_leq(tables, 1, 0, 0)
    # Level 2: "ab" from state 0 vs "aa" from state 1.
    assert not rank_leq(tables, 2, 0, 1)
    assert rank_leq(tables, 2, 1, 0)


def test_ranks_are_dense_with_sentinel_on_dead_states():
    rng = random.Random(29)
    for _ in range(60):
        nfa = corpus_automaton(rng)
        n = nfa.state_count
        tables = precompute(nfa, 5)
        for k in range(6):
            ranks = tables.rank[k]
            mins = min_words_by_state(nfa, k)
            live = {ranks[q] for q in range(n) if ranks[q] < n}
            assert live == set(range(len(live)))
            for q in range(n):
                assert (ranks[q] == n) == (mins[q] is None)


def test_spelled_words_a1(a1):
    tables = precompute(a1, 2)
    assert min_word(1, 1, tables) == (1,)  # "b", state 0's rank
    assert min_word(1, 0, tables) == (0,)  # "a", state 1's rank
    assert min_word(2, 1, tables) == (0, 1)  # "ab", state 0's rank
    assert min_word(2, 0, tables) == (0, 0)  # "aa", state 1's rank
    assert min_word(0, 2, tables) is None  # the sentinel, state 0's rank
    assert min_word(0, 0, tables) == ()


def test_no_final_states_leaves_tables_empty():
    nfa = build_nfa("ab", 3, [0], [], [(0, "a", 1), (1, "b", 2)])
    tables = precompute(nfa, 4)
    for k in range(5):
        assert tables.rank[k] == [3, 3, 3]
        assert not any(rank_leq(tables, k, q, p) for q in range(3) for p in range(3))


def test_length_zero_has_single_level(a1):
    tables = precompute(a1, 0)
    assert len(tables.first_step) == 1
    assert len(tables.rank) == 1
    assert tables.rank[0] == [2, 0]


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
                assert min_word(k, tables.rank[k][q], tables) == mins[q]


def test_order_table_matches_bruteforce_predicate():
    rng = random.Random(43)
    for _ in range(40):
        nfa = corpus_automaton(rng)
        n = nfa.state_count
        tables = precompute(nfa, 5)
        for k in range(6):
            mins = min_words_by_state(nfa, k)
            for q in range(n):
                for qp in range(n):
                    expected = mins[q] is not None and (
                        mins[qp] is None or mins[q] <= mins[qp]
                    )
                    assert rank_leq(tables, k, q, qp) == expected


def test_order_table_reflexive_exactly_on_support():
    rng = random.Random(47)
    for _ in range(40):
        nfa = corpus_automaton(rng)
        n = nfa.state_count
        tables = precompute(nfa, 4)
        for k in range(5):
            mins = min_words_by_state(nfa, k)
            for q in range(n):
                accepts = mins[q] is not None
                assert rank_leq(tables, k, q, q) == accepts
                assert any(rank_leq(tables, k, q, qp) for qp in range(n)) == accepts


def test_first_step_fill_work_is_linear_in_transitions():
    # fill_ops counts adjacency-pair inspections plus target comparisons in
    # the first_step pass; it must stay within a fixed multiple of l * |delta|.
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


# Unary automata with F = {0} whose live sets alternate forever and never
# settle: {0}, {1}, {0}, ... on the 2-cycle, and {0}, {2, 3}, {0, 1},
# {2, 3}, ... on {0, 1} <-> {2, 3}.
UNARY_2_CYCLE = build_nfa("a", 2, [0], [0], [(0, "a", 1), (1, "a", 0)])
BIPARTITE_4 = build_nfa(
    "a", 4, [0], [0], [(p, "a", q) for p in range(4) for q in range(4) if p // 2 != q // 2]
)


@pytest.mark.parametrize(
    "nfa,length,kernel",
    [
        # Its live set stops changing at level 4, while its ranks settle into
        # a period of 2 only from level 16 and never into a period of 1, so
        # its tables never settle and every level is built.
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
    # The tables' live set is the top level's, {q : rank[length][q] < |Q|},
    # from level 0 on, through levels built in full and settled levels.
    settled = 0
    for nfa in automata:
        n = nfa.state_count
        tables = MinWordTables(nfa)
        for k in range(length + 1):
            if k:
                tables.add_level()
            assert type(tables.live) is frozenset
            assert tables.live == {q for q in range(n) if tables.rank[k][q] < n}
        settled += tables.rank[length] is tables.rank[length - 1]
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
    [(_dense_cross_automaton(), 32, 5), (compile_regex("(a|b|c)*b(a|c)*"), 40, 2)],
    ids=["dense-cross", "tiny-stream"],
)
def test_every_level_above_a_settled_one_is_that_level(nfa, length, settles):
    # Level k + 1 is a function of rank[k], so once rank[s] equals rank[s - 1]
    # every later level is level s: the same rank row, first-step list and
    # mask list objects, not copies.
    assert nfa.kernel == "bit"
    tables = precompute(nfa, length)
    s = next(k for k in range(1, length + 1) if tables.rank[k] == tables.rank[k - 1])
    assert s == settles
    for k in range(s + 1, length + 1):
        assert tables.rank[k] is tables.rank[s]
        assert tables.first_step[k] is tables.first_step[s]
        assert tables.pred_masks[k] is tables.pred_masks[s]
    assert_tables_match_full_scan(tables)


def test_a_settled_level_charges_one_unit_and_fills_nothing():
    # The tiny-stream regex: all 7 states are live from level 1 on, and
    # rank[2] == rank[1]. Level 2 pays the full charge, its row comparison
    # included; level 3 is a settled level.
    nfa = compile_regex("(a|b|c)*b(a|c)*")
    assert nfa.kernel == "bit"
    n = nfa.state_count
    tables = precompute(nfa, 1)
    fill = tables.fill_ops
    with counting() as counter:
        tables.add_level()
        # Level 1 is all live, so its predecessor entries are every transition.
        m = sum(r < n for r in tables.rank[2])
        visited = tables.fill_ops - fill
        ranks = len(tables.first_step[2])
        expected = nfa.transition_count + visited + 2 * n + ranks + m + m * (m - 1).bit_length()
        # Its masks: m for the grouping, then per symbol one ceil(|Q|/64)-word
        # OR per live state and one fold step per live rank.
        expected += m + nfa.symbol_count * (m + ranks) * -(-n // 64)
        assert counter.ops == expected == 128
    assert tables.rank[2] == tables.rank[1]
    fill = tables.fill_ops
    with counting() as counter:
        tables.add_level()
        assert counter.ops == 1
    assert tables.fill_ops == fill


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
    assert tables.rank[9] == tables.rank[10] == [nfa.state_count] * nfa.state_count


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
