import itertools
import random
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings, strategies as st

from lexenum import (
    EXHAUSTED,
    CrossSectionCursor,
    build_nfa,
    compile_regex,
    cross_section,
    measure_delays,
    precompute,
    radix_cursors,
    radix_words,
    random_automaton,
)
from lexenum import enumeration
from lexenum.automaton import chunk_images, delta_step, mask_image, state_mask
from lexenum.enumeration import build_run_stack, min_word, next_word
from lexenum.instrument import counting
from lexenum.oracle import cross_section_bruteforce, member, min_words_by_state
from helpers import (
    BIPARTITE_4,
    ReferenceCursor,
    UNARY_2_CYCLE,
    corpus_automaton,
    first_repeat,
    kernel_run,
    make_a1,
    mask_states,
    on_kernel,
    start_run,
    tables_snapshot,
    targets,
    wide_row_automaton,
    word_from_str,
)


class TestMinWord:
    def test_from_single_state(self, a1):
        tables = precompute(a1, 2)
        assert min_word(2, start_run(a1, [0]), tables) == (0, 1)  # "ab"
        assert min_word(2, start_run(a1, [1]), tables) == (0, 0)  # "aa"

    def test_picks_best_state(self):
        """The cursor's first word is the least over its initial states: the
        first letter is the least one on which some of them reaches a final
        state. On the list kernel, setting the cursor up trims the held
        run's entry 0, charged one unit per initial state tested, and the
        letter's choice is charged one unit per state plus 1 and the target
        count per pair walked: state 0 walks its a- and b-pairs, state 1 its
        a-pair."""
        nfa = build_nfa("ab", 2, [0, 1], [1], [(0, "a", 0), (0, "b", 1), (1, "a", 1)])
        assert nfa.kernel == "list"
        tables = precompute(nfa, 1)
        with counting() as counter:
            assert CrossSectionCursor(nfa, 1, tables).next() == (0,)  # via state 1
            assert counter.ops == 2 + 2 + 2 * 2 + 2

    def test_empty_word_cases(self, a1):
        """a1's initial state is not final, so the trimmed entry 0 of a
        length-0 cursor is empty and the cursor ends at once at no charge."""
        tables = precompute(a1, 0)
        assert min_word(0, start_run(a1, [0]), tables) is None  # not final
        assert min_word(0, start_run(a1, [1]), tables) == ()
        cursor = CrossSectionCursor(a1, 0, tables)
        with counting() as counter:
            assert cursor.next() is EXHAUSTED
            assert counter.ops == 0

    def test_first_word_ranks_the_live_initial_states(self):
        """Of the initial states 0, 1 and 2, only 0 accepts a word of length
        1. On the list kernel the first word tests the held run's trimmed
        entry 0 alone, charged len(run[0]) plus its one pair walked, 1 plus
        one target; on the bit kernel, whose run is not trimmed, it ANDs the
        initial states' mask with one predecessor mask per symbol tried,
        ceil(|Q|/64) = 1 each, however many initial states there are."""
        list_nfa = build_nfa("ab", 3, [0, 1, 2], [2], [(0, "a", 2), (1, "b", 1)])
        bit_nfa = build_nfa(
            "ab",
            3,
            [0, 1, 2],
            [2],
            [(0, "a", 2), (0, "a", 0), (0, "b", 0), (1, "a", 1), (1, "a", 0), (1, "b", 1),
             (2, "a", 0), (2, "a", 1), (2, "b", 1)],
        )
        assert (list_nfa.kernel, bit_nfa.kernel) == ("list", "bit")
        for nfa, charge in ((list_nfa, 1 + 2), (bit_nfa, 1)):
            cursor = CrossSectionCursor(nfa, 1)
            with counting() as counter:
                assert cursor.next() == (0,)
                assert counter.ops == charge

    def test_empty_state_set(self):
        """A cursor with no initial state ends at once at no charge."""
        nfa = build_nfa("ab", 2, [], [1], [(0, "a", 0), (0, "b", 1), (1, "a", 1)])
        cursor = CrossSectionCursor(nfa, 3)
        with counting() as counter:
            assert cursor.next() is EXHAUSTED
            assert counter.ops == 0
        assert cursor.next() is EXHAUSTED

    def test_charge_is_the_letters_spelled_and_the_sentinel_is_free(self, a1):
        """On either kernel min_word completes each state to its least word
        and is charged per letter spelled: the letter's choice, then its step
        for every letter but the last. On the bit kernel a letter ``a`` costs
        a + 1 ANDs of ceil(|Q|/64), one per symbol tried, and a step costs its
        image. On the list kernel each state of the set walks its row up to
        its first pair into the next live set, one unit per state plus 1 and
        the target count per pair, and a step costs its delta_step and one
        unit per state its trim tests. The empty set, all that the cursor's
        trim leaves of a state without a word, gives None at no charge on the
        list kernel."""
        bit = compile_regex("(a|b|c)*b(a|c)*")
        assert (a1.kernel, bit.kernel) == ("list", "bit")
        for nfa in (a1, bit):
            tables = precompute(nfa, 3)
            for k in range(1, 4):
                lives = [
                    {q for q, w in enumerate(min_words_by_state(nfa, j)) if w is not None}
                    for j in range(k, -1, -1)
                ]
                for q, word in enumerate(min_words_by_state(nfa, k)):
                    with counting() as counter:
                        assert min_word(k, start_run(nfa, [q]), tables) == word
                        charged = counter.ops
                    if word is not None:
                        assert charged == _spelling_charge(nfa, q, word, lives)
        tables = precompute(a1, 3)
        with counting() as counter:
            assert min_word(3, [set()], tables) is None
            assert counter.ops == 0


def _spelling_charge(nfa, start, word, lives):
    """What min_word is charged to spell ``word`` from ``start``, worked out
    from the word: ``lives[i]`` is the set of states live with ``len(word) -
    i`` letters left."""
    if nfa.kernel == "bit":
        words = -(-nfa.state_count // 64)
        charge = words * sum(a + 1 for a in word)
        source = state_mask([start])
        for a in word[:-1]:
            with counting() as counter:
                source = mask_image(nfa.images, source, a)
                charge += counter.ops
        return charge
    charge = 0
    states = {start}
    for i, a in enumerate(word):
        charge += len(states)
        for q in states:
            for _, into in nfa.adjacency[q]:
                charge += 1 + len(into)
                if lives[i + 1] & set(into):
                    break
        if i < len(word) - 1:
            charge += len(states) + sum(len(targets(nfa, q, a)) for q in states)
            reached = {t for q in states for t in targets(nfa, q, a)}
            charge += len(reached)
            states = reached & lives[i + 1]
    return charge


class TestBuildRunStack:
    def test_accepted_word(self, a1):
        stack = build_run_stack(word_from_str(a1, "ab"), a1)
        assert [set(s) for s in stack] == [{0}, {0}, {1}]

    def test_empty_word(self, a1):
        stack = build_run_stack((), a1)
        assert [set(s) for s in stack] == [{0}]
        # On the bit kernel the default start is the initial set's mask.
        nfa = compile_regex("(a|b|c)*b(a|c)*")
        assert nfa.kernel == "bit"
        assert build_run_stack((), nfa) == [state_mask(nfa.initial)]

    def test_dead_end_word(self, a1):
        stack = build_run_stack(word_from_str(a1, "bb"), a1)
        assert [set(s) for s in stack] == [{0}, {1}, set()]

    def test_matches_chained_delta_step(self):
        """The run stack holds exactly what delta_step chained from the
        initial set gives, which is the naive union at each position: on the
        list kernel as duplicate-free sets with a charge of |source| plus the
        targets visited per position, on the bit kernel as masks of the same
        sets with a charge of one mask_image step per position."""
        rng = random.Random(79)
        dead_ends = live = 0
        for _ in range(300):
            nfa = corpus_automaton(rng)
            length = rng.randint(0, 7)
            word = tuple(rng.randrange(nfa.symbol_count) for _ in range(length))

            expected = [set(nfa.initial)]
            naive_charge = 0
            for a in word:
                source = expected[-1]
                expected.append({t for q in source for t in targets(nfa, q, a)})
                naive_charge += len(source) + sum(len(targets(nfa, q, a)) for q in source)
            chained = [nfa.initial]
            with counting() as ops:
                for a in word:
                    chained.append(delta_step(nfa, chained[-1], a))
                chained_charge = ops.ops
            assert [set(s) for s in chained] == expected
            assert chained_charge == naive_charge

            with counting() as ops:
                stack = build_run_stack(word, nfa)
                charge = ops.ops
            if nfa.kernel == "list":
                assert all(len(set(s)) == len(s) for s in stack)
                assert [set(s) for s in stack] == expected
                assert charge == naive_charge
            else:
                assert [mask_states(s) for s in stack] == [sorted(s) for s in expected]
                steps = 0
                for source, a in zip(stack, word):
                    with counting() as ops:
                        mask_image(nfa.images, source, a)
                        steps += ops.ops
                assert charge == steps
            if length:
                if expected[-1]:
                    live += 1
                else:
                    dead_ends += 1
        assert dead_ends >= 30 and live >= 30, (dead_ends, live)


    def test_extends_the_given_run_in_place(self):
        """On both kernels build_run_stack(word, nfa, run) appends one entry
        per letter of word to run, keeps the entries it had and returns run
        itself, so a run built in two pieces equals one built at once; an
        empty word leaves run unchanged."""
        rng = random.Random(97)
        kernels = set()
        for _ in range(200):
            nfa = corpus_automaton(rng)
            kernels.add(nfa.kernel)
            word = tuple(rng.randrange(nfa.symbol_count) for _ in range(rng.randint(0, 7)))
            cut = rng.randint(0, len(word))
            run = build_run_stack(word[:cut], nfa)
            head = list(run)
            assert len(head) == cut + 1
            assert build_run_stack((), nfa, run) is run
            assert run == head
            assert build_run_stack(word[cut:], nfa, run) is run
            assert len(run) == len(word) + 1
            assert run[: cut + 1] == head
            assert run == build_run_stack(word, nfa)
        assert kernels == {"list", "bit"}


class TestNextWord:
    def _next(self, nfa, text, length, tables=None):
        tables = tables or precompute(nfa, length)
        word = word_from_str(nfa, text)
        stack = build_run_stack(word, nfa)
        return next_word(word, stack, tables)

    def test_successor_replaces_first_position(self, a1):
        assert self._next(a1, "ab", 2) == ((1, 0), 0)  # "ba", pivot 0

    def test_maximum_word_has_no_successor(self, a1):
        assert self._next(a1, "ba", 2) is None

    def test_single_symbol_alphabet_never_has_successor(self):
        nfa = build_nfa("a", 1, [0], [0], [(0, "a", 0)])
        assert self._next(nfa, "aaa", 3) is None

    def test_pure_function_of_inputs(self, a1):
        tables = precompute(a1, 2)
        first = self._next(a1, "ab", 2, tables)
        second = self._next(a1, "ab", 2, tables)
        assert first == second == ((1, 0), 0)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), length=st.integers(1, 5))
def test_successor_of_every_word_is_least_greater_member(seed, length):
    """For every word of the length, accepted or not, next_word and seek
    followed by next give the least member above it, or report that none
    exists; next_word's pivot is the first position where the two differ.
    Sweeping all words rather than drawing one finds the rare state set
    whose best pair is not each row's first pair above the pivot."""
    nfa = corpus_automaton(random.Random(seed))
    members = cross_section_bruteforce(nfa, length)
    tables = precompute(nfa, length)
    cursor = CrossSectionCursor(nfa, length, tables)
    for word in itertools.product(range(nfa.symbol_count), repeat=length):
        expected = next((w for w in members if w > word), None)
        found = next_word(word, build_run_stack(word, nfa), tables)
        if expected is None:
            assert found is None
        else:
            pivot = next(i for i, (a, b) in enumerate(zip(word, expected)) if a != b)
            assert found == (expected, pivot)
        cursor.seek(word)
        assert cursor.next() == (EXHAUSTED if expected is None else expected)
        assert cursor.pivot == (0 if expected is None else pivot)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), length=st.integers(1, 5))
def test_trimmed_run_gives_the_full_runs_successor(seed, length):
    """For every word of the length, accepted or not, next_word over the run
    a cursor holds returns the same (word, pivot) as over the full run, and
    a cursor sought to the word continues with that word. On the list
    kernel the held run is trimmed: entry i keeps the states of the full
    run's entry i that accept a word of length ``length - i``, whether it is
    built at once or in two pieces, and the trim is charged one unit per
    state tested on top of the steps from the trimmed entries. On the bit
    kernel the held run is the full run."""
    nfa = corpus_automaton(random.Random(seed))
    tables = precompute(nfa, length)
    cursor = CrossSectionCursor(nfa, length, tables)
    lives = tables.live[length::-1] if nfa.kernel == "list" else None
    for word in itertools.product(range(nfa.symbol_count), repeat=length):
        full = build_run_stack(word, nfa)
        expected = next_word(word, list(full), tables)
        with counting() as counter:
            held = build_run_stack(word[:-1], nfa, None, lives)
            charge = counter.ops
        assert next_word(word, list(held), tables) == expected
        cursor.seek(word)
        assert cursor.next() == (EXHAUSTED if expected is None else expected[0])
        assert cursor.pivot == (0 if expected is None else expected[1])
        cut = length // 2
        assert build_run_stack(word[cut:-1], nfa, held[: cut + 1], lives) == held
        if lives is None:
            assert held == full[:-1]
            continue
        assert held == _trimmed(full[:-1], tables, length)
        steps = 0
        for source, a in zip(held, word[:-1]):
            with counting() as counter:
                steps += len(delta_step(nfa, source, a)) + counter.ops
        assert charge == len(nfa.initial) + steps


@settings(max_examples=100, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_a_held_prefix_gives_the_least_member_pivoting_within_it(seed):
    """next_word over the first p + 1 entries of a word's run returns the
    least member above the word that first differs from it at a position
    <= p, with that position, and leaves entries 0 .. len(word) - 1 of the
    member's run; or None when there is none, leaving the entries as they
    were. min_word from a one-entry run [S] returns the least word that some
    state of S accepts, and appends its run but the last entry, the same
    successor search from below every word. Every word of length 1 to 4
    and every start set of a corpus automaton, on both kernels."""
    nfa = corpus_automaton(random.Random(seed))
    start_sets = [
        [q for q in range(nfa.state_count) if bits >> q & 1]
        for bits in range(2**nfa.state_count)
    ]
    for kernel in ("list", "bit"):
        forced = on_kernel(nfa, kernel)
        tables = precompute(forced, 4)
        for length in range(1, 5):
            lives = tables.live[length::-1] if kernel == "list" else None
            members = cross_section_bruteforce(nfa, length)
            for word in itertools.product(range(nfa.symbol_count), repeat=length):
                run = build_run_stack(word, forced)
                for p in range(length):
                    held = run[: p + 1]
                    found = next_word(word, held, tables)
                    expected = next((w for w in members if w[: p + 1] > word[: p + 1]), None)
                    if expected is None:
                        assert found is None and held == run[: p + 1]
                        continue
                    pivot = next(i for i, (a, b) in enumerate(zip(word, expected)) if a != b)
                    assert found == (expected, pivot)
                    assert held == build_run_stack(expected[pivot:-1], forced, run[: pivot + 1], lives)
        for k in range(5):
            mins = min_words_by_state(nfa, k)
            lives = tables.live[k::-1] if kernel == "list" else None
            for states in start_sets:
                expected = min((mins[q] for q in states if mins[q] is not None), default=None)
                run = start_run(forced, states)
                assert min_word(k, run, tables) == expected
                tail = () if expected is None else expected[:-1]
                assert run == build_run_stack(tail, forced, start_run(forced, states), lives)


def test_bit_search_tries_every_symbol_at_an_empty_entry():
    """A seek to a non-member whose run goes empty: after "abc" no state is
    left, so entry 3 of the run of "abca" is empty. The bit search still
    tries b and c there, each charged ceil(|Q|/64) = 2 for its AND, then
    finds "acaa" at pivot 1, the successor the list search finds on the same
    run as sets, and leaves the successor's first four entries in the run.
    States 3 .. 71 are unreachable padding that puts the automaton on the
    bit kernel with masks of two machine words."""
    n = 72
    padding = [(q, a, q) for q in range(3, n) for a in "abc"]
    core = [(0, "a", t) for t in (0, 1, 2)] + [(0, "b", 1), (0, "c", 1)]
    core += [(q, "a", t) for q in (1, 2) for t in (0, 1, 2)]
    nfa = build_nfa("abc", n, [0], [2], core + padding)
    assert nfa.kernel == "bit"
    words = -(-n // 64)
    word = word_from_str(nfa, "abca")
    tables = precompute(nfa, len(word))
    stack = build_run_stack(word[:-1], nfa)
    assert stack[3] == 0
    expected = (word_from_str(nfa, "acaa"), 1)
    lists = on_kernel(nfa, "list")
    assert next_word(word, [set(mask_states(m)) for m in stack], precompute(lists, 4)) == expected
    with counting() as counter:
        assert next_word(word, stack, tables) == expected
        charge = counter.ops
    assert stack == build_run_stack(expected[0][:-1], nfa)
    # Position 3 tries b and c. No symbol lies above position 2's c. At
    # position 1 c hits: one AND. Then c and the first a of the completion
    # are stepped, and each completion letter, a, costs one AND.
    images = 0
    for source, a in zip(stack[1:], expected[0][1:3]):
        with counting() as counter:
            mask_image(nfa.images, source, a)
            images += counter.ops
    assert charge == 2 * words + words + images + 2 * words
    cursor = CrossSectionCursor(nfa, len(word), tables)
    cursor.seek(word)
    assert (cursor.next(), cursor.pivot) == expected


class TestCursor:
    def test_a1_cross_section(self, a1):
        cursor = CrossSectionCursor(a1, 2)
        assert cursor.next() == (0, 1)
        assert cursor.next() == (1, 0)
        assert cursor.next() is EXHAUSTED
        assert cursor.next() is EXHAUSTED  # sticky
        assert repr(EXHAUSTED) == "EXHAUSTED"

    def test_length_zero_without_epsilon(self, a1):
        cursor = CrossSectionCursor(a1, 0)
        assert cursor.next() is EXHAUSTED

    def test_length_zero_with_epsilon(self):
        nfa = build_nfa("a", 1, [0], [0], [])
        assert list(cross_section(nfa, 0)) == [()]

    def test_no_initial_states(self):
        nfa = build_nfa("a", 2, [], [1], [(0, "a", 1)])
        for length in range(4):
            assert list(cross_section(nfa, length)) == []

    def test_current_tracks_last_output(self, a1):
        cursor = CrossSectionCursor(a1, 2)
        assert cursor.current is None
        cursor.next()
        assert cursor.current == (0, 1)

    def test_shared_tables_may_cover_longer_lengths(self, a1):
        tables = precompute(a1, 5)
        assert list(cross_section(a1, 2, tables)) == [(0, 1), (1, 0)]
        with pytest.raises(ValueError):
            CrossSectionCursor(a1, 6, tables)

    def test_negative_length_rejected(self, a1):
        with pytest.raises(ValueError):
            CrossSectionCursor(a1, -1)

    def test_tables_of_another_automaton_rejected(self):
        # Unchecked, this pair yields "bba", which a*b does not accept.
        nfa = compile_regex("a*b")
        with pytest.raises(ValueError, match="another automaton"):
            CrossSectionCursor(nfa, 3, precompute(compile_regex("b*a"), 3))

    def test_seek_validates_word(self, a1):
        cursor = CrossSectionCursor(a1, 2)
        with pytest.raises(ValueError):
            cursor.seek((0,))
        with pytest.raises(ValueError):
            cursor.seek((0, 9))

    def test_seek_rejects_symbols_that_are_not_ints(self, a1):
        # (0, 1.0, 0) is in range, but a float id would fail only later,
        # inside the next call's replay.
        tiny = compile_regex("(a|b|c)*b(a|c)*")
        assert (a1.kernel, tiny.kernel) == ("list", "bit")
        for nfa in (a1, tiny):
            cursor = CrossSectionCursor(nfa, 3)
            for bad in ((0, 1.0, 0), (0, True, 0), (False, 0, 0), ("a", 0, 0), (0, None, 0)):
                with pytest.raises(ValueError, match="not an int"):
                    cursor.seek(bad)
            cursor.seek((0, 1, 0))
            assert cursor.next() == next(w for w in cross_section(nfa, 3) if w > (0, 1, 0))

    def test_iteration_is_repeated_next_up_to_exhausted(self, a1):
        """On both kernels an iterator over a cursor yields what repeated
        next() calls return before EXHAUSTED; after seek(w) a new iterator
        yields exactly the words after w; and an iterator that has ended
        stays ended after a later seek on its cursor."""
        tiny = compile_regex("(a|b|c)*b(a|c)*")
        wide = random_automaton(random.Random(7), 20, 4, 200, 5, 5)
        assert (a1.kernel, tiny.kernel, wide.kernel) == ("list", "bit", "bit")
        for nfa in (a1, tiny, wide):
            length = 5
            stepped = CrossSectionCursor(nfa, length)
            expected = []
            while (word := stepped.next()) is not EXHAUSTED:
                expected.append(word)
            assert len(expected) >= 5
            cursor = CrossSectionCursor(nfa, length)
            ended = iter(cursor)
            assert list(ended) == expected
            sigma = nfa.symbol_count
            starts = expected[::2] + [(0,) * length, (sigma - 1,) * length]
            for start in starts:
                cursor.seek(start)
                assert list(iter(cursor)) == [w for w in expected if w > start]
            cursor.seek(expected[0])
            assert next(ended, None) is None
            assert next(iter(cursor)) == expected[1]

    def test_held_run_stays_coherent_under_seek(self):
        """After every call the held run is the first ``length`` entries of
        a fresh run of the last word, and after every seek, to a word before
        or after the cursor, it is the initial set alone and the continuation
        equals a fresh cursor's from that word."""
        rng = random.Random(89)
        kernels = set()
        checked = 0
        while checked < 80:
            nfa = corpus_automaton(rng)
            length = rng.randint(2, 7)
            tables = precompute(nfa, length)
            words = list(cross_section(nfa, length, tables))
            if len(words) < 4:
                continue
            kernels.add(nfa.kernel)
            cursor = CrossSectionCursor(nfa, length, tables)
            for _ in range(5):
                for _ in range(rng.randint(1, 6)):
                    if cursor.next() is EXHAUSTED:
                        break
                    _assert_held_run_is_the_valid_prefix(cursor, length)
                if rng.random() < 0.7:
                    start = words[rng.randrange(len(words))]
                else:
                    start = tuple(rng.randrange(nfa.symbol_count) for _ in range(length))
                cursor.seek(start)
                _assert_held_run_is_the_valid_prefix(cursor, 1)
                fresh = CrossSectionCursor(nfa, length, tables)
                fresh.seek(start)
                for _ in range(rng.randint(1, 6)):
                    word = cursor.next()
                    assert word == fresh.next()
                    if word is EXHAUSTED:
                        break
                    _assert_held_run_is_the_valid_prefix(cursor, length)
            checked += 1
        assert kernels == {"list", "bit"}

    def test_memory_stays_flat(self):
        """The cursor holds at most l masks of one run, extended in place and
        cut back to the pivot, so the traced heap after word 500 is within a
        small constant of its size after word 20."""
        nfa = random_automaton(random.Random(1), 200, 4, 2000, 50, 50)
        assert nfa.kernel == "bit"
        tables = precompute(nfa, 32)
        cursor = CrossSectionCursor(nfa, 32, tables)
        tracemalloc.start()
        try:
            for i in range(1, 501):
                assert cursor.next() is not EXHAUSTED
                if i == 20:
                    early, _ = tracemalloc.get_traced_memory()
            late, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert late - early <= 16 * 1024, (early, late)


def _first_difference(u, v):
    return next(i for i, (a, b) in enumerate(zip(u, v)) if a != b)


def _words_checking_pivots(cursor):
    """The cursor's words; after each, its pivot is the first position where
    the word differs from the one before, or 0 on the first."""
    words = []
    for word in cursor:
        expected = _first_difference(words[-1], word) if words else 0
        assert cursor.pivot == expected, (cursor.nfa.kernel, words[-1:], word)
        words.append(word)
    return words


class TestPivot:
    """``pivot`` is the first position at which the word the last ``next``
    returned differs from the cursor's current word before that call, and 0
    on every least word, on both kernels."""

    @pytest.fixture
    def kernels(self, a1):
        tiny = compile_regex("(a|b|c)*b(a|c)*")
        assert (a1.kernel, tiny.kernel) == ("list", "bit")
        return a1, tiny

    def test_consecutive_words(self, kernels):
        for nfa in kernels:
            for length in range(1, 8):
                cursor = CrossSectionCursor(nfa, length)
                assert cursor.pivot == 0
                assert _words_checking_pivots(cursor)
                assert cursor.pivot == 0

    def test_after_seek_is_measured_against_the_sought_word(self, kernels):
        # Every word of the length is sought, accepted or not.
        for nfa in kernels:
            length = 5
            members = list(cross_section(nfa, length))
            cursor = CrossSectionCursor(nfa, length)
            for start in itertools.product(range(nfa.symbol_count), repeat=length):
                cursor.seek(start)
                assert cursor.pivot == 0
                word = cursor.next()
                expected = next((w for w in members if w > start), EXHAUSTED)
                assert word == expected
                if word is EXHAUSTED:
                    assert cursor.pivot == 0
                    continue
                assert cursor.pivot == _first_difference(start, word), (start, word)
                after = cursor.next()
                if after is not EXHAUSTED:
                    assert cursor.pivot == _first_difference(word, after)

    def test_each_radix_cursor_starts_at_zero(self, kernels):
        epsilon = compile_regex("(b|ab|ba|abc|bca|cab)?")
        for nfa in (*kernels, epsilon):
            words = []
            for cursor in radix_cursors(nfa, 5):
                words += _words_checking_pivots(cursor)
            assert words == list(radix_words(nfa, 5))
        assert words[0] == ()


def _assert_held_run_is_the_valid_prefix(cursor, entries):
    """The held run has ``entries`` entries: ``length`` after a call that
    returned a word, 1 after a seek. On the bit kernel they equal the same
    prefix of a run of the current word built from scratch; on the list
    kernel, entry i equals that run's entry i cut to the states live at
    level ``length - i``."""
    word = cursor.current
    assert len(cursor._run) == entries
    full = build_run_stack(word, cursor.nfa)[:entries]
    if cursor.nfa.kernel == "bit":
        assert cursor._run == full
    else:
        assert cursor._run == _trimmed(full, cursor.tables, cursor.length)


def _trimmed(run, tables, length):
    """A list-kernel run of a word of ``length`` letters with entry i cut to
    the states that accept a word of length ``length - i``."""
    return [{q for q in states if q in tables.live[length - i]} for i, states in enumerate(run)]


class TestSharedTables:
    """Cursors over one table: each holds its own run stack, so neither
    threads nor interleaved calls change what any of them yields."""

    LENGTH = 12
    WORDS = 500
    # Cursors start this many words apart, so they replay different runs.
    OFFSET = 150

    def _instance(self, count):
        nfa = random_automaton(random.Random(83), 60, 3, 360, 6, 6)
        assert nfa.kernel == "bit"
        tables = precompute(nfa, self.LENGTH)
        expected = list(itertools.islice(CrossSectionCursor(nfa, self.LENGTH, tables), count))
        assert len(expected) == count
        return nfa, tables, expected

    def _cursor(self, nfa, tables, expected, slot):
        cursor = CrossSectionCursor(nfa, self.LENGTH, tables)
        if slot:
            cursor.seek(expected[slot * self.OFFSET - 1])
        return cursor

    def test_threads_match_sequential_run(self):
        nfa, tables, expected = self._instance(3 * self.OFFSET + self.WORDS)

        def work(slot, results):
            cursor = self._cursor(nfa, tables, expected, slot)
            results[slot] = list(itertools.islice(cursor, self.WORDS))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            # Thread switches land at random points; a few rounds make one
            # inside a replay likely.
            for _ in range(3):
                results = [None] * 4
                threads = [
                    threading.Thread(target=work, args=(slot, results)) for slot in range(4)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
                assert not any(thread.is_alive() for thread in threads)
                for slot in range(4):
                    start = slot * self.OFFSET
                    assert results[slot] == expected[start : start + self.WORDS]
        finally:
            sys.setswitchinterval(interval)

    def test_interleaved_cursors_in_one_thread(self):
        nfa, tables, expected = self._instance(self.OFFSET + self.WORDS)
        first = self._cursor(nfa, tables, expected, 0)
        second = self._cursor(nfa, tables, expected, 1)
        got_first, got_second = [], []
        for _ in range(self.WORDS):
            got_first.append(first.next())
            got_second.append(second.next())
        assert got_first == expected[: self.WORDS]
        assert got_second == expected[self.OFFSET : self.OFFSET + self.WORDS]


class TestKernels:
    """The list and the bit kernel, run on the same automaton, give the same
    run stacks as state sets and the same successors."""

    def _check(self, nfa, length, words):
        tables = precompute(nfa, length)
        list_tables = precompute(on_kernel(nfa, "list"), length)
        bit_tables = precompute(on_kernel(nfa, "bit"), length)
        images = bit_tables.nfa.images
        for word in words:
            lists = kernel_run(nfa, word)
            masks = kernel_run(nfa, word, images)
            assert [sorted(s) for s in lists] == [mask_states(m) for m in masks]
            expected = next_word(word, lists, list_tables)
            assert next_word(word, masks, bit_tables) == expected
            assert next_word(word, build_run_stack(word, nfa), tables) == expected

    def test_agree_on_every_short_word_of_the_corpus(self):
        rng = random.Random(20250809)  # the seed of acceptance criterion 1
        kernels = set()
        for _ in range(400):
            nfa = corpus_automaton(rng)
            kernels.add(nfa.kernel)
            for length in range(1, 6):
                words = itertools.product(range(nfa.symbol_count), repeat=length)
                self._check(nfa, length, words)
        assert kernels == {"list", "bit"}

    def test_agree_on_masks_wider_than_a_byte(self):
        rng = random.Random(31)
        for _ in range(40):
            n = rng.randint(9, 70)
            sigma = rng.randint(2, 4)
            nfa = random_automaton(rng, n, sigma, rng.randint(n, 4 * n * sigma))
            length = rng.randint(1, 8)
            words = [tuple(rng.randrange(sigma) for _ in range(length)) for _ in range(40)]
            self._check(nfa, length, words)

    def test_replay_charges_each_byte_and_each_lookup_or_or(self):
        """A position costs one unit per byte of the source mask plus
        ceil(|Q|/64) for each of the two lookups and two ORs per non-zero
        byte, whether the mask is one byte wide or wider."""
        rng = random.Random(43)
        widths = set()
        for _ in range(60):
            n = rng.choice((rng.randint(1, 8), rng.randint(9, 130)))
            nfa = random_automaton(rng, n, 2, rng.randint(0, 4 * n))
            images = chunk_images(nfa)
            word = tuple(rng.randrange(2) for _ in range(rng.randint(0, 6)))
            with counting() as ops:
                stack = kernel_run(nfa, word, images)
                charged = ops.ops
            nbytes = -(-n // 8)
            words = -(-n // 64)
            widths.add(nbytes > 1)
            expected = sum(
                nbytes + 4 * words * sum(1 for b in m.to_bytes(nbytes, "little") if b)
                for m in stack[:-1]
            )
            assert charged == expected
        assert widths == {False, True}

    def test_kernel_choice(self):
        rng = random.Random(12)
        words = {"".join(rng.choice("abcdefgh") for _ in range(rng.randint(3, 12))) for _ in range(60)}
        assert compile_regex("|".join(sorted(words))).kernel == "list"
        assert random_automaton(random.Random(1), 200, 4, 2000, 50, 50).kernel == "bit"
        assert compile_regex("(a|b|c)*b(a|c)*").kernel == "bit"
        assert make_a1().kernel == "list"

    def test_zero_and_one_state_automata_are_exact(self):
        empty = build_nfa("ab", 0, [], [], [])
        assert empty.kernel == "bit"  # masks of zero bytes
        rng = random.Random(5)
        singles = [random_automaton(rng, 1, rng.randint(1, 3), rng.randint(0, 3)) for _ in range(30)]
        for nfa in [empty, *singles]:
            for length in range(6):
                assert list(cross_section(nfa, length)) == cross_section_bruteforce(nfa, length)
            assert list(radix_words(nfa, max_length=4)) == [
                w for k in range(5) for w in cross_section_bruteforce(nfa, k)
            ]


class TestWideRankSearch:
    """The bit search on levels far wider than the benchmark workloads',
    whose live states spell 1-4 distinct least words per level: 100 states
    (13-byte masks) and one final state, so that up to 92 states are live at
    a level and up to 68 of them spell distinct least words. Seed 8 is the
    least seed for which ``random_automaton(Random(seed), 100, 3, 312, 4,
    1)`` reaches 64 distinct least words by level 12."""

    NFA = random_automaton(random.Random(8), 100, 3, 312, 4, 1)
    LENGTH = 13

    def test_instance_is_wide_on_the_bit_kernel(self):
        nfa = self.NFA
        assert nfa.kernel == "bit" and len(nfa.images[0]) == 13
        tables = precompute(nfa, self.LENGTH - 1)
        assert max(map(len, tables.live)) == 92
        distinct = [
            len({min_word(k, start_run(nfa, [q]), tables) for q in tables.live[k]})
            for k in range(self.LENGTH)
        ]
        assert max(distinct) == 68
        assert sum(d >= 64 for d in distinct) == 4

    def test_bit_search_equals_list_search_at_every_retried_position(self):
        """Each position i of each word is retried on its own: the letters
        after it are the last symbol, above which no symbol is tried. Where
        the bit search's successor pivots at i, its charge is one AND of
        ceil(|Q|/64) per tried symbol, then, for the completion, a + 1 ANDs
        per letter a and one image per letter stepped, the pivot's included
        and the last excluded, however many states of the set are live."""
        nfa, length = self.NFA, self.LENGTH
        sigma = nfa.symbol_count
        words_per_and = -(-nfa.state_count // 64)
        tables = precompute(nfa, length)
        list_tables = precompute(on_kernel(nfa, "list"), length)
        rng = random.Random(83)
        words = list(itertools.islice(cross_section(nfa, length, tables), 60))
        words += [tuple(rng.randrange(sigma) for _ in range(length)) for _ in range(60)]
        wide_hits = 0
        for word in words:
            for i in range(length):
                probe = word[: i + 1] + (sigma - 1,) * (length - i - 1)
                lists = kernel_run(nfa, probe)
                masks = kernel_run(nfa, probe, nfa.images)
                expected = next_word(probe, lists, list_tables)
                with counting() as counter:
                    found = next_word(probe, masks, tables)
                    charged = counter.ops
                assert found == expected
                if found is None or found[1] != i:
                    continue
                successor = found[0]
                ands = successor[i] - probe[i] + sum(a + 1 for a in successor[i + 1 :])
                images = 0
                for source, a in zip(masks[i:], successor[i:-1]):
                    with counting() as counter:
                        mask_image(nfa.images, source, a)
                        images += counter.ops
                assert charged == ands * words_per_and + images
                assert masks == kernel_run(nfa, successor[:-1], nfa.images)
                wide_hits += len(tables.live[length - i - 1]) >= 64
        assert wide_hits >= 20, wide_hits

    def test_level_masks_stay_within_a_multiple_of_transitions(self):
        """An unsettled level holds a live set of at most |Q| states and one
        predecessor mask of ceil(|Q|/8) bytes per symbol. The kernel test
        keeps |Q| <= 2|delta|/sigma, so a level's traced size stays within
        48 |delta| bytes. The instance's live sets settle at level 8."""
        nfa = self.NFA
        delta = nfa.transition_count
        settled = 8
        sizes = []
        for length in (0, settled - 1):
            tracemalloc.start()
            try:
                tables = precompute(nfa, length)
                sizes.append(tracemalloc.get_traced_memory()[0])
            finally:
                tracemalloc.stop()
        assert all(tables.live[k] != tables.live[k - 1] for k in range(1, settled))
        assert precompute(nfa, settled).live[settled] == tables.live[settled - 1]
        per_level = (sizes[1] - sizes[0]) / (settled - 1)
        assert per_level <= 48 * delta, per_level

    def test_no_final_state_misses_on_every_level(self):
        # Every level holds the one empty mask 0 per symbol and no live
        # state, so each tried symbol's AND is empty.
        nfa = random_automaton(random.Random(8), 100, 3, 312, 4, 0)
        assert nfa.kernel == "bit" and not nfa.final_states
        tables = precompute(nfa, 6)
        assert tables.pred_masks == [[0] * 3] * 7
        assert tables.live == [frozenset()] * 7
        rng = random.Random(84)
        for _ in range(20):
            word = tuple(rng.randrange(3) for _ in range(6))
            stack = build_run_stack(word, nfa)
            assert next_word(word, stack, tables) is None
        assert list(cross_section(nfa, 6, tables)) == []


class TestRadix:
    def test_a1_prefix(self, a1):
        words = [a1.format_word(w) for w in radix_words(a1, max_length=3)]
        assert words == ["b", "ab", "ba", "aab", "aba", "baa"]

    def test_empty_language(self):
        nfa = build_nfa("ab", 1, [0], [], [(0, "a", 0)])
        assert list(radix_words(nfa, max_length=5)) == []
        assert list(radix_words(nfa)) == []

    def test_unbounded_edge_automata(self):
        epsilon_only = build_nfa("a", 1, [0], [0], [])
        assert list(radix_words(epsilon_only)) == [()]
        no_states = build_nfa("a", 0, [], [], [])
        assert list(radix_words(no_states)) == []
        # State 2 accepts words of every length but is unreachable.
        unreachable_cycle = build_nfa(
            "ab", 3, [0], [1], [(0, "a", 1), (2, "b", 2), (2, "a", 1)]
        )
        assert list(radix_words(unreachable_cycle)) == [(0,)]

    def test_limit_truncates(self, a1):
        words = [a1.format_word(w) for w in itertools.islice(radix_words(a1), 2)]
        assert words == ["b", "ab"]

    def test_limit_zero(self, a1):
        assert list(itertools.islice(radix_words(a1), 0)) == []

    def test_liveness_check_charges_each_state_it_reads(self):
        # An unbounded run of a finite language. Lengths 1-4, 6 and 8-13
        # hold no word, but some reachable state stays live at each, so
        # lengths 0-14 are checked and yield a cursor, and the rule fires at
        # 15, just after the longest word. At each, the check tests the
        # reachable set against the level's live set, charged the smaller
        # set's size, on top of the reachable-state pass.
        nfa = compile_regex("aaaaa|aaaaaaa|aaaaaaaaaaaaaa")
        with counting() as counter:
            words = list(radix_words(nfa))
            radix_total = counter.ops
            tables = precompute(nfa, 15)
            for length in range(15):
                list(CrossSectionCursor(nfa, length, tables))
            parts = counter.ops - radix_total
        assert [len(w) for w in words] == [5, 7, 14]
        reachable = list(nfa.initial)
        for q in reachable:
            for _, targets in nfa.adjacency[q]:
                reachable.extend(t for t in targets if t not in reachable)
        visited = sum(1 + len(t) for q in reachable for _, t in nfa.adjacency[q])
        parts += nfa.state_count + visited
        reads = []
        for length in range(16):
            live = sum(w is not None for w in min_words_by_state(nfa, length))
            reads.append(min(len(reachable), live))
        assert len(set(reads)) > 1
        assert reads[-1] == 0
        assert radix_total - parts == sum(reads)

    @pytest.mark.parametrize(
        "nfa,max_length,built,last",
        [
            (compile_regex("(aaaaa|aaaaaaa)*"), 13, 10, 13),
            (compile_regex("(aaaaa|aaaaaaa)*"), 40, 10, 40),
            (UNARY_2_CYCLE, 9, 2, 9),
            (BIPARTITE_4, 9, 3, 9),
            (compile_regex("aaaaa|aaaaaaa|aaaaaaaaaaaaaa"), 20, 16, 14),
        ],
        ids=["budget-13", "budget-40", "unary-2-cycle", "bipartite-4", "finite"],
    )
    def test_a_bounded_run_charges_its_levels_and_the_reachable_rule(
        self, nfa, max_length, built, last
    ):
        # Before its first cursor, a bounded run builds levels up to
        # max_length, the first repeated live set (level 2 on the 2-cycle,
        # 3 on BIPARTITE_4, 16 on the finite language, whose empty set
        # repeats) or the level whose predecessor visits reach |Q| +
        # #transitions: 29 for (aaaaa|aaaaaaa)*, passed at level 10, so its
        # later levels are built as their cursors are taken. Its stop rule
        # is the unbounded run's: a cursor for every length up to
        # max_length, the empty lengths of an infinite language included,
        # or up to just before the first length no reachable state accepts.
        # It is charged what precompute charges for the same levels, plus
        # the reachable-state pass and min(|reachable|, |live[k]|) per
        # length checked.
        with counting() as counter:
            cursors = radix_cursors(nfa, max_length)
            first = next(cursors)
            tables = first.tables
            assert tables.length == built
            budget = nfa.state_count + nfa.transition_count
            assert tables.period or tables.fill_ops >= budget
            taken = [first, *cursors]
            words = [w for cursor in taken for w in cursor]
            radix_total = counter.ops
            own = precompute(nfa, tables.length)
            for cursor in taken:
                list(CrossSectionCursor(nfa, cursor.length, own))
            parts = counter.ops - radix_total
        assert [cursor.length for cursor in taken] == list(range(last + 1))
        expected = [w for k in range(max_length + 1) for w in cross_section_bruteforce(nfa, k)]
        assert words == expected
        reachable = list(nfa.initial)
        for q in reachable:
            for _, targets in nfa.adjacency[q]:
                reachable.extend(t for t in targets if t not in reachable)
        visited = sum(1 + len(t) for q in reachable for _, t in nfa.adjacency[q])
        checked = range(min(last + 1, max_length) + 1)
        reads = [min(len(reachable), len(tables.live[k])) for k in checked]
        assert radix_total - parts == nfa.state_count + visited + sum(reads)

    def test_bounded_runs_match_the_oracle_through_the_repeat(self):
        # A bounded run builds its levels up front to the first repeat
        # L(j+p) = L(j) and after it appends the levels one period below.
        # Check it at m in {0, 1, j+p-1, j+p, 3(j+p)}, around and past the
        # repeat, where the oracle's candidates stay few.
        edge = [
            UNARY_2_CYCLE,
            BIPARTITE_4,
            compile_regex("(aa)*b"),
            # State 2 accepts words of every length but is unreachable.
            build_nfa("ab", 3, [0], [1], [(0, "a", 1), (2, "b", 2), (2, "a", 1)]),
            build_nfa("ab", 1, [0], [], [(0, "a", 0)]),
            build_nfa("a", 1, [0], [0], []),
            build_nfa("a", 0, [], [], []),
        ]
        rng = random.Random(97)
        corpus = [corpus_automaton(rng) for _ in range(300)]
        periods = []
        for nfa in edge + corpus:
            repeat = first_repeat(precompute(nfa, 2**nfa.state_count))
            periods.append(precompute(nfa, repeat).period)
            for m in sorted({0, 1, repeat - 1, repeat, 3 * repeat}):
                if m > 1 and nfa.symbol_count**m > 10**4:
                    continue
                expected = [w for k in range(m + 1) for w in cross_section_bruteforce(nfa, k)]
                assert list(radix_words(nfa, m)) == expected, (nfa, m)
        assert periods[:3] == [2, 2, 2]
        assert sum(p > 1 for p in periods[len(edge):]) >= 3
        assert {nfa.kernel for nfa in corpus} == {"list", "bit"}

    def test_a_bounded_run_builds_no_level_after_its_first_word(self):
        # A finite dictionary on the list kernel: its levels visit each
        # transition once, within the up-front budget, so the run builds
        # them up to the first repeated live set, the empty set at levels 9
        # and 10, before its first cursor, and no gap after the first word
        # builds one or visits a predecessor entry.
        rng = random.Random(61)
        words = {
            "".join(rng.choice("abcdefgh") for _ in range(length))
            for length in range(3, 9)
            for _ in range(12)
        }
        nfa = compile_regex("|".join(sorted(words)))
        assert nfa.kernel == "list"
        cursors = radix_cursors(nfa, 12)
        first = next(cursors)
        tables = first.tables
        taken, after_first = [], None
        for cursor in itertools.chain([first], cursors):
            for word in cursor:
                taken.append(nfa.format_word(word))
                after_first = after_first or (tables.length, tables.fill_ops)
        assert taken == sorted(words, key=lambda w: (len(w), w))
        assert after_first == (tables.length, tables.fill_ops)
        assert (tables.length, tables.period) == (10, 1)

    @pytest.mark.parametrize(
        "pattern,expected,repeat", [("(aa)*", ["", "aa", "aaaa"], 2), ("(a|b)*", ["", "a", "b"], 1)]
    )
    def test_a_far_bound_builds_levels_only_to_the_first_repeat(self, pattern, expected, repeat):
        # With max_length = 10**9 the run builds levels only up to the
        # first repeated live set, so a prefix of it comes out at once.
        nfa = compile_regex(pattern)
        words = itertools.islice(radix_words(nfa, 10**9), 3)
        assert [nfa.format_word(w) for w in words] == expected
        assert next(radix_cursors(nfa, 10**9)).tables.length == repeat

    def test_a_far_repeat_bounds_the_levels_built_up_front(self):
        # A union of unary cycles of the primes up to 23: its live sets
        # repeat with the lcm of the cycle lengths, 223092870, at level
        # 223092870 at the earliest. The levels built before the first word
        # stop once their predecessor visits reach |Q| + #transitions, so a
        # prefix of a run bounded at 10**9 comes out at once, and the
        # levels its cursors need are then built as they are taken.
        pattern = "|".join(f"({'a' * p})*" for p in (2, 3, 5, 7, 11, 13, 17, 19, 23))
        nfa = compile_regex(pattern)
        budget = nfa.state_count + nfa.transition_count
        cursors = radix_cursors(nfa, 10**9)
        first = next(cursors)
        tables = first.tables
        assert tables.period == 0
        assert budget <= tables.fill_ops < budget + nfa.transition_count
        assert tables.length < 30
        lengths = [len(w) for w in itertools.islice(radix_words(nfa, 10**9), 8)]
        assert lengths == [0, 2, 3, 4, 5, 6, 7, 8]
        assert [next(cursors).length for _ in range(40)] == list(range(1, 41))
        assert tables.length == 40

    def test_order_is_radix(self):
        rng = random.Random(53)
        for _ in range(20):
            nfa = corpus_automaton(rng)
            words = list(radix_words(nfa, max_length=4))
            keyed = [(len(w), w) for w in words]
            assert keyed == sorted(keyed)
            expected = []
            for length in range(5):
                expected.extend(cross_section_bruteforce(nfa, length))
            assert words == expected

    def test_unbounded_stops_exactly_after_longest_word(self):
        # A language is infinite iff it holds a word of length in [|Q|, 2|Q|):
        # any word of length >= |Q| repeats a state, and cutting out cycles of
        # at most |Q| letters brings a longer word down into that range.
        rng = random.Random(73)
        kinds = {"finite": 0, "infinite": 0}
        for _ in range(300):
            nfa = corpus_automaton(rng)
            n = nfa.state_count
            if nfa.symbol_count ** (2 * n) > 3 * 10**4:
                continue
            expected = []
            for length in range(2 * n):
                expected.extend(cross_section_bruteforce(nfa, length))
            if all(len(w) < n for w in expected):
                kinds["finite"] += 1
                assert list(radix_words(nfa)) == expected
            else:
                kinds["infinite"] += 1
                words = list(itertools.islice(radix_words(nfa), len(expected) + 1))
                assert len(words) == len(expected) + 1
                assert words[:-1] == expected
        assert min(kinds.values()) >= 20, kinds


class TestAgainstBruteForce:
    def test_random_corpus(self):
        rng = random.Random(59)
        for _ in range(200):
            nfa = corpus_automaton(rng)
            tables = precompute(nfa, 6)
            for length in range(7):
                assert list(cross_section(nfa, length, tables)) == \
                    cross_section_bruteforce(nfa, length)

    def test_consecutive_outputs_are_strict_successors(self):
        rng = random.Random(61)
        for _ in range(60):
            nfa = corpus_automaton(rng)
            for length in range(5):
                words = list(cross_section(nfa, length))
                for prev, cur in zip(words, words[1:]):
                    assert len(prev) == len(cur) == length
                    assert prev < cur


class TestMemorylessness:
    def test_tables_untouched_by_enumeration(self):
        rng = random.Random(67)
        for _ in range(30):
            nfa = corpus_automaton(rng)
            tables = precompute(nfa, 5)
            before = tables_snapshot(tables)
            for length in range(6):
                list(cross_section(nfa, length, tables))
            assert tables_snapshot(tables) == before

    def test_fast_forward_reproduces_tail(self):
        # seek(w) resumes a range: for a member or any other word w of the
        # right length, the cursor continues with the members greater than w.
        rng = random.Random(71)
        checked = 0
        while checked < 40:
            nfa = corpus_automaton(rng)
            length = rng.randint(1, 5)
            tables = precompute(nfa, length)
            words = list(cross_section(nfa, length, tables))
            if not words:
                continue
            member = words[rng.randrange(len(words))]
            arbitrary = tuple(rng.randrange(nfa.symbol_count) for _ in range(length))
            for start in (member, arbitrary):
                fresh = CrossSectionCursor(nfa, length, tables)
                fresh.seek(start)
                assert list(fresh) == [w for w in words if w > start]
            checked += 1


def test_readme_style_end_to_end():
    nfa = make_a1()
    assert [nfa.format_word(w) for w in cross_section(nfa, 3)] == ["aab", "aba", "baa"]


def test_golden_op_counts():
    """The cost model, pinned on one instance: a faster kernel must charge
    exactly these totals, and a change to the cost model changes the
    literals on purpose."""
    nfa = random_automaton(random.Random(7), 20, 4, 200, 5, 5)
    assert nfa.kernel == "bit"
    report = measure_delays(nfa, 8, limit=200)
    assert len(report.records) == 200
    assert report.preproc_ops == 1072
    assert sum(r.op_count for r in report.records) == 1336


def test_list_search_charge_does_not_depend_on_set_order():
    # Retrying position 1 of "aa": state 1 reaches a live target on "c"
    # only, state 9 on "b". Each state walks to its own first live pair, so
    # the charge is the same whichever of them the set yields first.
    nfa = build_nfa(
        "abc",
        10,
        [0],
        [5],
        [(0, "a", 1), (0, "a", 9), (1, "a", 5), (1, "b", 3), (1, "c", 5), (9, "b", 5)],
    )
    assert nfa.kernel == "list"
    tables = precompute(nfa, 2)
    forward, backward = {1, 9}, {9, 1}
    assert list(forward) != list(backward)
    results = []
    for states in (forward, backward):
        with counting() as counter:
            found = next_word((0, 0), [{0}, states], tables)
            results.append((found, counter.ops))
    assert results[0][0] == ((0, 1), 1)  # "ab", pivot 1
    assert results[0] == results[1]
    # The same holds for min_word, whose every letter is chosen by the same
    # walks, and for a successor that pivots before the last position, which
    # steps its new letter and completes the word: on seeded list-kernel
    # automata, one start set yielded in several shuffled orders (as a
    # duplicate-free list) gives the same word, the same run and the same
    # charge.
    rng = random.Random(101)
    pivots = 0
    for _ in range(60):
        nfa = on_kernel(random_automaton(rng, 17, 3, 60, 17, 4), "list")
        length = 4
        tables = precompute(nfa, length)
        last = nfa.symbol_count - 1
        start = rng.sample(range(17), rng.randint(2, 8))
        outcomes = {"min_word": set(), "next_word": set()}
        for _ in range(6):
            run = [rng.sample(start, len(start))]
            with counting() as counter:
                word = min_word(length, run, tables)
                charge = counter.ops
            outcomes["min_word"].add((word, tuple(map(frozenset, run)), charge))
            probe = (0, last, last, last)
            run = build_run_stack(probe[:-1], nfa, [rng.sample(start, len(start))])
            with counting() as counter:
                found = next_word(probe, run, tables)
                charge = counter.ops
            outcomes["next_word"].add((found, tuple(map(frozenset, run)), charge))
            pivots += found is not None and found[1] == 0
        assert all(len(seen) == 1 for seen in outcomes.values()), outcomes
    assert pivots >= 20, pivots


def test_least_letter_on_wide_rows_matches_a_reference():
    """On list-kernel automata whose rows hold 15 to 50 pairs, for every lo
    in 0..|Sigma|, the list kernel's live test returns the least symbol >= lo
    on which a state of the set has a target in the live set, or None. It
    charges |set| plus 1 + |targets| for each pair walked: each state's
    pairs from its first at or above lo to its first with a live target, or
    to the end of its row."""
    rng = random.Random(61)
    for _ in range(3):
        nfa = wide_row_automaton(rng)
        assert nfa.kernel == "list"
        n = nfa.state_count
        lives = [frozenset(), *precompute(nfa, 2).live]
        lives += [frozenset(rng.sample(range(n), k)) for k in (1, 3, 10)]
        for _ in range(4):
            states = set(rng.sample(range(n), rng.randint(0, 8)))
            for live in lives:
                for lo in range(nfa.symbol_count + 1):
                    hits = [a for q in states for a, into in nfa.adjacency[q] if a >= lo and live & set(into)]
                    charge = len(states)
                    for q in states:
                        walked = [into for a, into in nfa.adjacency[q] if a >= lo]
                        last = next((i for i, into in enumerate(walked) if live & set(into)), len(walked) - 1)
                        charge += sum(1 + len(into) for into in walked[: last + 1])
                    with counting() as ops:
                        assert enumeration._least_letter(states, lo, live, nfa.adjacency) == min(hits, default=None)
                        assert ops.ops == charge


_TWO_LOOPS = build_nfa("a", 2, [0, 1], [0, 1], [(0, "a", 0), (1, "a", 1)])


@pytest.mark.parametrize(
    "nfa, length, gaps",
    [
        (_TWO_LOOPS, 8, [92, 16]),
        (_TWO_LOOPS, 64, [764, 128]),
        (build_nfa("a", 100, range(100), [1], [(0, "a", 1)]), 1, [103, 1]),
    ],
    ids=["two-loops-l8", "two-loops-l64", "100-initial-l1"],
)
def test_list_kernel_gaps_quoted_by_the_cursor(nfa, length, gaps):
    """The list-kernel gaps that CrossSectionCursor's docstring quotes, as
    measure_delays records them: the one word a^length, then EXHAUSTED."""
    assert nfa.kernel == "list"
    records = measure_delays(nfa, length).records
    assert [r.word for r in records] == [(0,) * length, EXHAUSTED]
    assert [r.op_count for r in records] == gaps


def _counted_steps(monkeypatch):
    """Install counters on the bit kernel's enumeration.mask_image and on
    enumeration.build_run_stack, and return their records: ``images``
    counts the images taken inside build_run_stack (``"replay"``) and
    outside it (``"search"``), and ``replayed`` the length of each word
    build_run_stack is given."""
    images = {"search": 0, "replay": 0}
    replayed = []
    phase = ["search"]
    step, build = enumeration.mask_image, enumeration.build_run_stack

    def counted(images_, mask, symbol):
        images[phase[-1]] += 1
        return step(images_, mask, symbol)

    def counted_build(word, nfa, run=None, lives=None):
        replayed.append(len(word))
        phase.append("replay")
        try:
            return build(word, nfa, run, lives)
        finally:
            phase.pop()

    monkeypatch.setattr(enumeration, "mask_image", counted)
    monkeypatch.setattr(enumeration, "build_run_stack", counted_build)
    return images, replayed


def test_only_the_first_word_goes_through_min_word(monkeypatch):
    """A cursor's first word is the least word min_word computes from the
    initial set, by the same steps: the search from the one-entry run, whose
    completion takes l - 1 images on the bit kernel and l - 1 one-letter
    build_run_stack calls on the list kernel, and no replay. Every later
    call searches from the held run of the word before: it steps only the
    letters after its pivot but the last, l - 1 - pivot images or one-letter
    build_run_stack calls, those that pivot before the last position
    included, and after a seek one build_run_stack call first replays the
    sought word's l - 1 letters, never the search from the initial set."""
    images, replayed = _counted_steps(monkeypatch)
    bit = random_automaton(random.Random(7), 20, 4, 200, 5, 5)
    lists = random_automaton(random.Random(7), 100, 3, 250, 10, 10)
    assert (bit.kernel, lists.kernel) == ("bit", "list")
    for nfa in (bit, lists):

        def stepped(call, *args):
            """What ``call(*args)`` returns, with the kernel steps it took:
            images on the bit kernel, one-letter build_run_stack calls on the
            list kernel, whose steps all go through it."""
            replayed.clear()
            before = images["search"]
            result = call(*args)
            if nfa is bit:
                assert not replayed
                return result, images["search"] - before
            assert set(replayed) <= {1}
            return result, len(replayed)

        tables = precompute(nfa, 6)
        run = build_run_stack((), nfa, None, tables.live[6::-1] if nfa is lists else None)
        least, taken = stepped(min_word, 6, run, tables)
        assert taken == 5
        cursor = CrossSectionCursor(nfa, 6, tables)
        assert stepped(cursor.next) == (least, taken) and cursor._run == run
        words, completed = [least], 0
        while True:
            word, taken = stepped(cursor.next)
            if word is EXHAUSTED:
                break
            assert taken == 5 - cursor.pivot
            words.append(word)
            completed += cursor.pivot < 5
        assert completed
        cursor.seek(words[0])
        replayed.clear()
        assert cursor.next() == words[1] and replayed[0] == 5
        assert replayed[1:] == ([1] * (5 - cursor.pivot) if nfa is lists else [])
        assert list(cursor) == words[2:]


def test_the_last_letter_is_never_replayed(monkeypatch):
    """No kernel step takes a word's last letter, which no search reads. The
    first call steps the least word's first l - 1 letters; a call that finds
    a successor steps its letters after the pivot but the last, l - 1 -
    pivot of them; and after a seek the next call first replays the sought
    word's first l - 1 letters. So the held run never exceeds l entries, and
    at l = 1 no call steps a letter."""
    steps = []
    list_step, bit_step = enumeration.delta_step, enumeration.mask_image

    def counted_list(nfa, source, symbol):
        steps.append(symbol)
        return list_step(nfa, source, symbol)

    def counted_bit(images, mask, symbol):
        steps.append(symbol)
        return bit_step(images, mask, symbol)

    monkeypatch.setattr(enumeration, "delta_step", counted_list)
    monkeypatch.setattr(enumeration, "mask_image", counted_bit)
    bit = random_automaton(random.Random(7), 20, 4, 200, 5, 5)
    lists = random_automaton(random.Random(7), 100, 3, 250, 10, 10)
    assert (bit.kernel, lists.kernel) == ("bit", "list")
    for nfa in (bit, lists):
        for length in (0, 1, 2, 6):
            words = cross_section_bruteforce(nfa, length)
            # Each length but 0 runs successor searches.
            assert len(words) >= 2 or not length
            seek_at = max(len(words) // 2, 1)
            start = words[len(words) // 4] if words else (0,) * length
            cursor = CrossSectionCursor(nfa, length)
            steps.clear()
            got, expected = [], 0
            while True:
                if len(got) == seek_at:
                    cursor.seek(start)
                    expected += max(length - 1, 0)
                word = cursor.next()
                assert len(cursor._run) <= max(length, 1)
                if word is EXHAUSTED:
                    break
                expected += max(length - 1 - cursor.pivot, 0)
                got.append(word)
            assert got == words[:seek_at] + [w for w in words if w > start]
            assert len(steps) == expected
            if length <= 1:
                assert not steps


def test_a_wrapper_on_delta_step_sees_every_replayed_position(monkeypatch):
    """The list kernel steps every letter, replayed after a seek or new
    after a pivot, through build_run_stack, which looks its step up as
    enumeration.delta_step at every call, so a wrapper installed on that
    module attribute, as a tracer installs one, sees exactly one call per
    letter build_run_stack is given, before and after a seek."""
    steps, replayed = [], []
    step, build = enumeration.delta_step, enumeration.build_run_stack

    def counted_step(nfa, source, symbol):
        steps.append(symbol)
        return step(nfa, source, symbol)

    def counted_build(word, nfa, run=None, lives=None):
        replayed.append(len(word))
        return build(word, nfa, run, lives)

    nfa = random_automaton(random.Random(7), 100, 3, 250, 10, 10)
    assert nfa.kernel == "list"
    words = cross_section_bruteforce(nfa, 6)
    start = words[len(words) // 4]
    monkeypatch.setattr(enumeration, "delta_step", counted_step)
    monkeypatch.setattr(enumeration, "build_run_stack", counted_build)
    cursor = CrossSectionCursor(nfa, 6)
    got = list(itertools.islice(cursor, len(words) // 2))
    before = len(steps)
    assert before and before == sum(replayed)
    cursor.seek(start)
    got += cursor
    assert got == words[: len(words) // 2] + [w for w in words if w > start]
    assert len(steps) > before and len(steps) == sum(replayed)


def test_the_bit_search_takes_no_image(monkeypatch):
    """The bit search tests a retried position by ANDs alone: a call that
    finds a successor takes mask_image images only for the successor's
    letters after the pivot but the last, l - 1 - pivot of them, however
    many positions were retried. The first call's search, from the one-entry
    run, completes the least word: l - 1 images. None of them goes through
    build_run_stack; the replay after a seek, in build_run_stack, takes one
    image per position it replays, and no image is taken outside a call."""
    images, replayed = _counted_steps(monkeypatch)
    wide = random_automaton(random.Random(7), 20, 4, 200, 5, 5)
    narrow = compile_regex("(a|b|c)*b(a|c)*")
    searches = 0
    for nfa in (wide, narrow):
        assert nfa.kernel == "bit"
        for length in (1, 2, 6):
            words = cross_section_bruteforce(nfa, length)
            assert words
            seek_at = max(len(words) // 2, 1)
            start = words[len(words) // 4]
            outside = dict(images)
            cursor = CrossSectionCursor(nfa, length)
            assert images == outside
            before = images["search"]
            got = [cursor.next()]
            assert images["search"] - before == length - 1
            for _ in range(seek_at - 1):
                before = images["search"]
                got.append(cursor.next())
                assert images["search"] - before == length - 1 - cursor.pivot
                searches += 1
            outside = dict(images)
            cursor.seek(start)
            assert images == outside
            got += cursor
            assert got == words[:seek_at] + [w for w in words if w > start]
    assert searches > 100
    assert images["replay"] == sum(replayed) > 0


def _follow_the_reference(nfa, length, rng, calls, seeks):
    """Run a cursor and a :class:`ReferenceCursor` side by side for
    ``calls`` calls, with seeks at random, and assert that after every call
    they agree on the word, the pivot, the held run, the current word and
    the charge, counted under ``counting()`` on a random half of the calls,
    so that counting also switches on and off between two calls of one
    generator. A seek goes to a word produced before, a member, or to a
    random word, and after EXHAUSTED mostly to one of those; ``seeks``
    tallies each kind."""
    tables = precompute(nfa, length)
    cursor = CrossSectionCursor(nfa, length, tables)
    reference = ReferenceCursor(nfa, length, tables)
    produced, ended = [], False
    for _ in range(calls):
        if rng.random() < (0.6 if ended else 0.08):
            if produced and rng.random() < 0.5:
                target = rng.choice(produced)
            else:
                target = tuple(rng.randrange(nfa.symbol_count) for _ in range(length))
            kind = "exhausted" if ended else "member" if member(nfa, target) else "non-member"
            seeks[kind] += 1
            cursor.seek(target)
            reference.seek(target)
            ended = False
        counted = rng.random() < 0.5
        with counting(counted) as counter:
            before = counter.ops
            got = cursor.next()
            charge = counter.ops - before
        with counting(counted) as counter:
            before = counter.ops
            expected = reference.next()
            expected_charge = counter.ops - before
        assert (got, cursor.pivot, charge) == (expected, reference.pivot, expected_charge)
        assert cursor._run == reference.run and cursor.current == reference.current
        if got is EXHAUSTED:
            ended = True
        else:
            produced.append(got)


def test_the_resumed_search_matches_the_per_call_search_on_the_corpus():
    """A cursor resumes one successor generator; the reference runs the
    per-call search once per call. On 150 corpus automata, each on both
    kernels at lengths 0 to 6, they agree after every call, seeks to
    members, to non-members and after EXHAUSTED included."""
    rng = random.Random(4242)
    seeks = {"member": 0, "non-member": 0, "exhausted": 0}
    for _ in range(150):
        nfa = corpus_automaton(rng)
        for kernel in ("list", "bit"):
            for length in range(7):
                _follow_the_reference(on_kernel(nfa, kernel), length, rng, 25, seeks)
    assert min(seeks.values()) > 100, seeks


def test_the_resumed_search_matches_the_per_call_search_on_a_hill_climb_instance():
    """The same on the three-state automaton whose later gaps a seeded
    hill-climb found at up to 4.72 * l * #transitions on the list kernel:
    120 calls at l = 9, which has 41 words, and 700 at l = 16, which has
    595, each with seeks."""
    nfa = build_nfa("abc", 3, [0, 1, 2], [0, 1, 2], [(1, "a", 0), (1, "a", 1), (0, "a", 2), (2, "c", 1)])
    rng = random.Random(9)
    seeks = {"member": 0, "non-member": 0, "exhausted": 0}
    for kernel in ("list", "bit"):
        for length, calls in ((9, 120), (16, 700)):
            _follow_the_reference(on_kernel(nfa, kernel), length, rng, calls, seeks)
    assert min(seeks.values()) > 0, seeks


def test_a_cursor_moved_between_threads_yields_the_sequential_words():
    """One cursor, and so one generator, whose calls alternate between two
    threads, each call made after the last one returned, yields the words
    a cursor called from one thread yields, across a seek and to
    EXHAUSTED, on both kernels."""
    bit = random_automaton(random.Random(7), 20, 4, 200, 5, 5)
    lists = random_automaton(random.Random(7), 100, 3, 250, 10, 10)
    assert (bit.kernel, lists.kernel) == ("bit", "list")
    with ThreadPoolExecutor(1) as first, ThreadPoolExecutor(1) as second:
        for nfa in (bit, lists):
            words = list(CrossSectionCursor(nfa, 6))
            assert len(words) > 100
            cursor = CrossSectionCursor(nfa, 6)
            threads = itertools.cycle((first, second))
            got = [next(threads).submit(cursor.next).result() for _ in range(50)]
            cursor.seek(words[20])
            got += [next(threads).submit(cursor.next).result() for _ in words[20:]]
            assert got == words[:50] + words[21:] + [EXHAUSTED]
