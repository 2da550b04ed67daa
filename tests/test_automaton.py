import random
import tracemalloc
from dataclasses import FrozenInstanceError

import pytest

from lexenum import (
    AutomatonError,
    CrossSectionCursor,
    Nfa,
    build_nfa,
    cross_section,
    measure_delays,
    precompute,
    radix_words,
    random_automaton,
)
from lexenum.automaton import chunk_images, delta_step, mask_image, state_mask
from lexenum.instrument import counting
from helpers import (
    assert_canonical,
    corpus_automaton,
    kernel_run,
    make_a1,
    raw_pieces,
    rebuild_factory,
    targets,
    word_from_str,
)


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
        assert nfa.initial == (0, 2)
        assert nfa.final_states == (1, 2)

    def test_symbols_accepted_as_ids_or_glyphs(self):
        by_glyph = build_nfa("ab", 2, [0], [1], [(0, "b", 1)])
        by_id = build_nfa("ab", 2, [0], [1], [(0, 1, 1)])
        assert by_glyph == by_id

    @pytest.mark.parametrize("name", ["images", "adjacency", "alphabet"])
    def test_fields_cannot_be_rebound(self, a1, name):
        before = getattr(a1, name)
        with pytest.raises(FrozenInstanceError):
            setattr(a1, name, object())
        assert getattr(a1, name) is before

    def test_compares_by_value_and_is_unhashable(self, a1):
        assert a1 == make_a1()
        # Against a non-automaton __eq__ returns NotImplemented, and Python
        # falls back to identity.
        assert (a1 == object()) is False
        assert (a1 != object()) is True
        with pytest.raises(TypeError):
            hash(a1)
        assert Nfa.__hash__ is None

    def test_repr_shows_sizes_and_ends_not_layout(self, a1):
        # One automaton per kernel: images is None on the list kernel only.
        bit = build_nfa("a", 2, [0], [1], [(0, 0, 0), (0, 0, 1), (1, 0, 0), (1, 0, 1)])
        assert (a1.kernel, bit.kernel) == ("list", "bit")
        assert repr(a1) == (
            "Nfa(alphabet='ab', state_count=2, initial=(0,), final_states=(1,), transition_count=3)"
        )
        assert repr(bit) == (
            "Nfa(alphabet='a', state_count=2, initial=(0,), final_states=(1,), transition_count=4)"
        )

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

    @pytest.mark.parametrize("entry", [(0, "a"), 5, (0, "a", 1, 2)])
    def test_transition_that_is_not_a_triple_rejected(self, entry):
        message = f"transition {entry!r} is not a (state, symbol, state) triple"
        with pytest.raises(AutomatonError) as excinfo:
            build_nfa(["a"], 2, [0], [1], [(0, "a", 1), entry])
        assert str(excinfo.value) == message

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
            assert_canonical(nfa)
            for q in range(nfa.state_count):
                symbols = [a for a, _ in nfa.adjacency[q]]
                assert symbols == sorted(set(symbols))
                for _, targets in nfa.adjacency[q]:
                    assert len(targets) > 0

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
                    expected = sorted({dst for src, sym, dst in triples if (src, sym) == (q, a)})
                    assert list(targets(nfa, q, a)) == expected

    def test_layout_does_not_depend_on_the_order_of_the_pieces(self):
        """Each automaton's raw pieces, shuffled, build an equal automaton on
        the same kernel that enumerates the same words at the same cost."""
        rng = random.Random(41)
        shuffle = random.Random(42).shuffle
        kernels = set()
        for _ in range(60):
            n = rng.randint(1, 12)
            s = rng.randint(1, 3)
            nfa = random_automaton(rng, n, s, rng.randint(0, 2 * n * s))
            pieces = raw_pieces(nfa)
            for piece in pieces[2:]:
                shuffle(piece)
            rebuilt = build_nfa(*pieces)
            assert rebuilt == nfa
            assert_canonical(rebuilt)
            assert rebuilt.kernel == nfa.kernel
            kernels.add(nfa.kernel)
            for length in range(5):
                assert list(cross_section(rebuilt, length)) == list(cross_section(nfa, length))
                shuffled = measure_delays(lambda: build_nfa(*pieces), length)
                listed = measure_delays(rebuild_factory(nfa), length)
                assert shuffled.preproc_ops == listed.preproc_ops
                assert [r.op_count for r in shuffled.records] == [r.op_count for r in listed.records]
        assert kernels == {"list", "bit"}


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
        return set(delta_step(nfa, states, nfa.alphabet.index(glyph)))

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

    def test_one_search_finds_the_symbol_in_rows_of_any_size(self):
        """Rows of 0, 1 and 3 pairs, each probed with every symbol: below,
        between, at and above the row's symbols. Each step equals the union
        of the targets read off the rows and is charged |source| plus the
        targets visited."""
        nfa = build_nfa(
            "abcdef",
            3,
            [],
            [],
            [(1, "c", 0), (1, "c", 2), (2, "b", 1), (2, "d", 0), (2, "d", 2), (2, "e", 2)],
        )
        assert [len(row) for row in nfa.adjacency] == [0, 1, 3]
        for source in ([0], [1], [2], [0, 1, 2]):
            for a in range(nfa.symbol_count):
                expected = {t for q in source for t in targets(nfa, q, a)}
                with counting() as ops:
                    assert delta_step(nfa, source, a) == expected
                    assert ops.ops == len(source) + sum(len(targets(nfa, q, a)) for q in source)

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
            expected = {t for q in source for t in targets(nfa, q, a)}
            with counting() as ops:
                into = delta_step(nfa, source, a)
                charged = ops.ops
            assert len(set(into)) == len(into)
            assert set(into) == expected
            assert charged == len(source) + sum(len(targets(nfa, q, a)) for q in source)

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
                stack = kernel_run(nfa, (0,) * 30)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert [set(s) for s in stack] == [{q} for q in range(31)]
        assert peaks[1] <= 2 * peaks[0], peaks


class TestMaskImage:
    def test_matches_the_naive_union_and_charges_each_byte(self):
        """The image of a mask on a symbol is the mask of the union of its
        states' targets, read off their adjacency rows, and the step charges
        ceil(|Q|/8) plus 4 * ceil(|Q|/64) per non-zero byte of the mask: on
        one-byte masks and on the chunk loop's wider ones alike."""
        rng = random.Random(53)
        for n in (0, 1, 7, 8, 9, 64, 65, 130):
            nbytes = -(-n // 8)
            words = -(-n // 64)
            for _ in range(8):
                sigma = rng.randint(1, 4)
                if n:
                    nfa = random_automaton(rng, n, sigma, rng.randint(0, 4 * n))
                else:
                    nfa = build_nfa("abcd"[:sigma], 0, [], [], [])
                images = chunk_images(nfa)
                for _ in range(12):
                    states = rng.sample(range(n), rng.choice((rng.randint(0, min(n, 3)), rng.randint(0, n))))
                    for mask in (0, (1 << n) - 1, state_mask(states)):
                        for a in range(sigma):
                            expected = {
                                t
                                for q in range(n)
                                if mask >> q & 1
                                for b, targets in nfa.adjacency[q]
                                if b == a
                                for t in targets
                            }
                            with counting() as ops:
                                image = mask_image(images, mask, a)
                                charged = ops.ops
                            assert image == state_mask(expected)
                            nonzero = sum(1 for c in range(nbytes) if mask >> 8 * c & 255)
                            assert charged == nbytes + 4 * words * nonzero

    def test_every_table_entry_is_the_union_of_its_states_targets(self):
        """Entry x of the nibble table of byte c and half h holds the union
        of the targets of the states 8c + 4h + i whose bit i is set in x,
        padding states past |Q| having none. Every third state has no
        transition."""
        rng = random.Random(57)
        for n in (1, 7, 8, 9, 64, 65, 200):
            sigma = rng.randint(1, 4)
            triples = [
                (q, a, t)
                for q in range(n)
                if q % 3 != 1
                for a in range(sigma)
                for t in rng.sample(range(n), rng.randint(0, min(n, 3)))
            ]
            nfa = build_nfa("abcd"[:sigma], n, [], [], triples)
            images = chunk_images(nfa)
            assert len(images) == sigma
            for a, tables in enumerate(images):
                assert len(tables) == -(-n // 8)
                for c, halves in enumerate(tables):
                    for h, table in enumerate(halves):
                        states = range(8 * c + 4 * h, min(8 * c + 4 * h + 4, n))
                        assert table == [
                            state_mask({t for i, q in enumerate(states) if x >> i & 1 for t in targets(nfa, q, a)})
                            for x in range(16)
                        ]


def test_random_automaton_respects_requested_sizes():
    rng = random.Random(3)
    nfa = random_automaton(rng, 8, 3, 30, initial_count=2, final_count=4)
    assert nfa.state_count == 8
    assert nfa.symbol_count == 3
    assert nfa.transition_count == 30
    assert len(nfa.initial) == 2
    assert len(nfa.final_states) == 4
    assert_canonical(nfa)


def test_random_automaton_clamps_transition_count():
    rng = random.Random(3)
    nfa = random_automaton(rng, 2, 1, 99)
    assert nfa.transition_count == 4


def test_random_automaton_rejects_negative_transition_count():
    with pytest.raises(ValueError) as excinfo:
        random_automaton(random.Random(3), 2, 1, -1)
    assert str(excinfo.value) == "transitions must be non-negative, got -1"


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
    with pytest.raises(ValueError) as excinfo:
        random_automaton(random.Random(1), 2, 1, 1, **counts)
    # The message names the set, as in "initial states must be in 0..2, got 5".
    assert str(excinfo.value) == f"{name.replace('_count', ' states')} must be in 0..2, got {counts[name]}"


def test_format_and_parse_word(a1):
    assert a1.format_word((0, 1, 0)) == "aba"
    assert word_from_str(a1, "aba") == (0, 1, 0)
