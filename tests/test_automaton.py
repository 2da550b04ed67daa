import random
import tracemalloc

import pytest

from lexenum import (
    AutomatonError,
    CrossSectionCursor,
    build_nfa,
    delta_step,
    precompute,
    radix_words,
    random_automaton,
)
from lexenum.automaton import replay
from lexenum.instrument import counting
from helpers import corpus_automaton, make_a1


class TestBuildNfa:
    def test_a1_layout(self, a1):
        assert a1.adjacency[0] == [(0, (0,)), (1, (1,))]
        assert a1.adjacency[1] == [(0, (1,))]
        assert a1.initial == (0,)
        assert a1.final_states == (1,)
        assert a1.transition_count == 3

    def test_state_without_transitions_has_empty_list(self):
        nfa = build_nfa(["a"], 1, [0], [0], [])
        assert nfa.adjacency == [[]]

    def test_duplicate_transitions_collapse(self):
        nfa = build_nfa(["a"], 2, [0], [1], [(0, "a", 1), (0, "a", 1)])
        assert nfa.adjacency[0] == [(0, (1,))]
        assert nfa.transition_count == 1

    def test_repeated_initial_and_final_states_collapse_in_order(self):
        nfa = build_nfa(["a"], 3, [2, 0, 2], [1, 2, 1], [])
        assert nfa.initial == (2, 0)
        assert nfa.final_states == (1, 2)

    def test_symbols_accepted_as_ids_or_glyphs(self):
        by_glyph = build_nfa("ab", 2, [0], [1], [(0, "b", 1)])
        by_id = build_nfa("ab", 2, [0], [1], [(0, 1, 1)])
        assert by_glyph == by_id

    def test_zero_state_automaton_is_legal_when_empty(self):
        nfa = build_nfa(["a"], 0, [], [], [])
        assert nfa.state_count == 0
        assert nfa.final_states == ()

    def test_zero_state_automaton_rejects_initial(self):
        with pytest.raises(AutomatonError, match="out of range"):
            build_nfa(["a"], 0, [0], [], [])

    @pytest.mark.parametrize(
        "initial,final,transitions",
        [
            ([2], [], []),
            ([], [5], []),
            ([], [], [(0, "a", 9)]),
            ([], [], [(7, "a", 0)]),
        ],
    )
    def test_out_of_range_states_rejected(self, initial, final, transitions):
        with pytest.raises(AutomatonError, match="out of range"):
            build_nfa(["a"], 2, initial, final, transitions)

    def test_unknown_symbol_rejected(self):
        with pytest.raises(AutomatonError, match="unknown symbol"):
            build_nfa(["a"], 1, [0], [0], [(0, "z", 0)])
        with pytest.raises(AutomatonError, match="unknown symbol"):
            build_nfa(["a"], 1, [0], [0], [(0, 4, 0)])

    def test_duplicate_alphabet_rejected(self):
        with pytest.raises(AutomatonError, match="duplicate symbol"):
            build_nfa(["a", "a"], 1, [], [], [])

    def test_multichar_glyph_rejected(self):
        with pytest.raises(AutomatonError, match="single character"):
            build_nfa(["ab"], 1, [], [], [])

    def test_negative_state_count_rejected(self):
        with pytest.raises(AutomatonError):
            build_nfa(["a"], -1, [], [], [])

    def test_layout_grows_with_input_size_not_alphabet_times_states(self):
        """One transition over a wide alphabet and many states: the layout
        charge is one unit per raw transition, symbol, state and transition,
        and the allocation peak stays linear in sigma + |Q| + |delta|, also
        when both double."""
        peaks = []
        for sigma, n in ((500, 4000), (1000, 8000)):
            glyphs = "".join(chr(0x100 + i) for i in range(sigma))
            tracemalloc.start()
            try:
                with counting() as ops:
                    nfa = build_nfa(glyphs, n, [0], [n - 1], [(0, glyphs[-1], n - 1)])
                    charged = ops.ops
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert nfa.transition_count == 1 and nfa.kernel == "list"
            assert charged == 1 + sigma + n + 1
            assert peak <= 256 * (sigma + n + 1), peak
            peaks.append(peak)
        assert peaks[1] <= 2.5 * peaks[0], peaks

    def test_adjacency_symbols_strictly_increase(self):
        rng = random.Random(7)
        for _ in range(50):
            nfa = corpus_automaton(rng)
            for q in range(nfa.state_count):
                symbols = [a for a, _ in nfa.adjacency[q]]
                assert symbols == sorted(set(symbols))
                for _, targets in nfa.adjacency[q]:
                    assert len(targets) > 0
                    assert len(set(targets)) == len(targets)

    def test_target_lists_match_naive_map(self):
        rng = random.Random(11)
        for _ in range(30):
            n = rng.randint(1, 5)
            s = rng.randint(1, 3)
            triples = [
                (rng.randrange(n), rng.randrange(s), rng.randrange(n))
                for _ in range(rng.randint(0, 20))
            ]
            nfa = build_nfa("abc"[:s], n, [], [], triples)
            for q in range(n):
                for a in range(s):
                    expected = []
                    for src, sym, dst in triples:
                        if src == q and sym == a and dst not in expected:
                            expected.append(dst)
                    assert list(nfa.targets(q, a)) == expected


def _cursor_on_shared_tables(length):
    tables = precompute(make_a1(), 3)
    return CrossSectionCursor(tables.nfa, length, tables)


_P = pytest.param


@pytest.mark.parametrize(
    "call, error",
    [
        _P(
            lambda: build_nfa("ab", True, [False], [False], [(False, True, False)]),
            AutomatonError,
            id="all-bools",
        ),
        _P(lambda: build_nfa("a", False, [], [], []), AutomatonError, id="state-count"),
        _P(lambda: build_nfa("ab", 2, [False], [], []), AutomatonError, id="initial"),
        _P(lambda: build_nfa("ab", 2, [], [True], []), AutomatonError, id="final"),
        _P(lambda: build_nfa("ab", 2, [], [], [(False, 0, 1)]), AutomatonError, id="source"),
        _P(lambda: build_nfa("ab", 2, [], [], [(0, 0, True)]), AutomatonError, id="target"),
        _P(lambda: build_nfa("ab", 2, [], [], [(0, True, 1)]), AutomatonError, id="symbol"),
        _P(lambda: precompute(make_a1(), True), ValueError, id="precompute-bool"),
        _P(lambda: precompute(make_a1(), 2.5), ValueError, id="precompute-float"),
        _P(lambda: precompute(make_a1(), "2"), ValueError, id="precompute-str"),
        _P(lambda: CrossSectionCursor(make_a1(), False), ValueError, id="cursor-bool"),
        _P(lambda: CrossSectionCursor(make_a1(), 2.5), ValueError, id="cursor-float"),
        _P(lambda: CrossSectionCursor(make_a1(), None), ValueError, id="cursor-none"),
        _P(lambda: _cursor_on_shared_tables(True), ValueError, id="cursor-bool-shared-tables"),
        # radix_words is a generator: it raises on the first next.
        _P(lambda: list(radix_words(make_a1(), True)), ValueError, id="radix-bool"),
        _P(lambda: list(radix_words(make_a1(), 2.5)), ValueError, id="radix-float"),
    ],
)
def test_bools_and_non_ints_are_rejected(call, error):
    """States, state counts, symbol ids and lengths are ints, never bools,
    as ``seek`` already requires of symbols."""
    with pytest.raises(error):
        call()


class TestDeltaStep:
    def _step(self, nfa, states, glyph):
        return set(delta_step(nfa, states, nfa.symbol_id(glyph)))

    def test_single_state(self, a1):
        assert self._step(a1, [0], "b") == {1}

    def test_no_transition_gives_empty(self, a1):
        assert self._step(a1, [1], "b") == set()

    def test_union_over_sources(self, a1):
        assert self._step(a1, [0, 1], "a") == {0, 1}

    def test_matches_naive_double_loop(self):
        rng = random.Random(23)
        for _ in range(40):
            n = rng.randint(1, 6)
            s = rng.randint(1, 3)
            triples = [
                (rng.randrange(n), rng.randrange(s), rng.randrange(n))
                for _ in range(rng.randint(0, 25))
            ]
            nfa = build_nfa("abc"[:s], n, [], [], triples)
            source = [q for q in range(n) if rng.random() < 0.5]
            a = rng.randrange(s)
            expected = {dst for src, sym, dst in triples if sym == a and src in source}
            got = self._step(nfa, source, "abc"[a])
            assert got == expected

    def test_kernel_contract_on_random_sets(self):
        """Duplicate-free output equal to the naive double loop's union, and a
        charge of |source| plus the targets visited."""
        rng = random.Random(41)
        for _ in range(300):
            nfa = corpus_automaton(rng)
            a = rng.randrange(nfa.symbol_count)
            order = list(range(nfa.state_count))
            rng.shuffle(order)
            source = order[: rng.randint(0, nfa.state_count)]
            expected = {t for q in source for t in nfa.targets(q, a)}
            with counting() as ops:
                into = delta_step(nfa, source, a)
                charged = ops.ops
            assert len(set(into)) == len(into)
            assert set(into) == expected
            assert charged == len(source) + sum(len(nfa.targets(q, a)) for q in source)

    def test_replay_memory_does_not_grow_with_the_state_count(self):
        """A replay allocates per position only for the states it reaches:
        along a 30-transition chain from one state, its traced peak with
        200 000 states is at most twice its peak with 2 000."""
        peaks = []
        for n in (2_000, 200_000):
            nfa = build_nfa("a", n, [0], [30], [(q, "a", q + 1) for q in range(30)])
            assert nfa.kernel == "list"
            tracemalloc.start()
            try:
                stack = replay(nfa, (0,) * 30, nfa.initial)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert [set(s) for s in stack] == [{q} for q in range(31)]
        assert peaks[1] <= 2 * peaks[0], peaks


def test_random_automaton_respects_requested_sizes():
    rng = random.Random(3)
    nfa = random_automaton(rng, 8, 3, 30, initial_count=2, final_count=4)
    assert nfa.state_count == 8
    assert nfa.symbol_count == 3
    assert nfa.transition_count == 30
    assert len(nfa.initial) == 2
    assert len(nfa.final_states) == 4


def test_random_automaton_clamps_transition_count():
    rng = random.Random(3)
    nfa = random_automaton(rng, 2, 1, 99)
    assert nfa.transition_count == 4


def test_random_automaton_rejects_negative_transition_count():
    with pytest.raises(ValueError, match="transition_count"):
        random_automaton(random.Random(3), 2, 1, -1)


@pytest.mark.parametrize(
    "counts, name",
    [
        (dict(initial_count=5), "initial_count"),
        (dict(initial_count=-1), "initial_count"),
        (dict(final_count=3), "final_count"),
        (dict(final_count=-1), "final_count"),
    ],
)
def test_random_automaton_rejects_set_sizes_outside_the_states(counts, name):
    with pytest.raises(ValueError, match=name):
        random_automaton(random.Random(1), 2, 1, 1, **counts)


def test_format_and_parse_word(a1):
    assert a1.format_word((0, 1, 0)) == "aba"
    assert a1.word_from_str("aba") == (0, 1, 0)
    with pytest.raises(AutomatonError):
        a1.word_from_str("ax")
