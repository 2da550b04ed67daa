import itertools
import random
import sys
import threading
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from lexenum import (
    EXHAUSTED,
    CrossSectionCursor,
    build_nfa,
    build_run_stack,
    compile_regex,
    cross_section,
    cross_section_bruteforce,
    delta_step,
    measure_delays,
    min_word,
    min_words_by_state,
    next_word,
    precompute,
    radix_words,
    random_automaton,
)
from lexenum.automaton import chunk_images, mask_states, replay, replay_masks, state_mask
from lexenum.enumeration import next_word_lists, next_word_masks
from lexenum.instrument import counting
from helpers import corpus_automaton, make_a1, tables_snapshot


class TestMinWord:
    def test_from_single_state(self, a1):
        tables = precompute(a1, 2)
        assert min_word(2, [0], tables) == (0, 1)  # "ab"

    def test_picks_best_state(self, a1):
        tables = precompute(a1, 2)
        assert min_word(1, [0, 1], tables) == (0,)  # via state 1

    def test_empty_word_cases(self, a1):
        tables = precompute(a1, 0)
        assert min_word(0, a1.initial, tables) is None  # initial not final
        assert min_word(0, [1], tables) == ()

    def test_empty_state_set(self, a1):
        tables = precompute(a1, 3)
        assert min_word(3, [], tables) is None


class TestBuildRunStack:
    def test_accepted_word(self, a1):
        stack = build_run_stack(a1.word_from_str("ab"), a1)
        assert [set(s) for s in stack] == [{0}, {0}, {1}]

    def test_empty_word(self, a1):
        stack = build_run_stack((), a1)
        assert [set(s) for s in stack] == [{0}]

    def test_dead_end_word(self, a1):
        stack = build_run_stack(a1.word_from_str("bb"), a1)
        assert [set(s) for s in stack] == [{0}, {1}, set()]

    def test_matches_chained_delta_step(self):
        """The run stack holds exactly what delta_step chained from the
        initial set gives, which is the naive union at each position: on the
        list kernel as duplicate-free sets with a charge of |source| plus the
        targets visited per position, on the bit kernel as masks of the same
        sets."""
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
                expected.append({t for q in source for t in nfa.targets(q, a)})
                naive_charge += len(source) + sum(len(nfa.targets(q, a)) for q in source)
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
            if length:
                if expected[-1]:
                    live += 1
                else:
                    dead_ends += 1
        assert dead_ends >= 30 and live >= 30, (dead_ends, live)


class TestNextWord:
    def _next(self, nfa, text, length, tables=None):
        tables = tables or precompute(nfa, length)
        word = nfa.word_from_str(text)
        stack = build_run_stack(word, nfa)
        return next_word(word, length, stack, tables)

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
        found = next_word(word, length, build_run_stack(word, nfa), tables)
        if expected is None:
            assert found is None
        else:
            pivot = next(i for i, (a, b) in enumerate(zip(word, expected)) if a != b)
            assert found == (expected, pivot)
        cursor.seek(word)
        assert cursor.next() == (EXHAUSTED if expected is None else expected)


class TestCursor:
    def test_a1_cross_section(self, a1):
        cursor = CrossSectionCursor(a1, 2)
        assert cursor.next() == (0, 1)
        assert cursor.next() == (1, 0)
        assert cursor.next() is EXHAUSTED
        assert cursor.next() is EXHAUSTED  # sticky

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

    def test_held_run_stays_coherent_under_seek(self):
        """After every call the held run's valid prefix equals the same
        prefix of a fresh run of the last word, and after every seek, to a
        word before or after the cursor, the continuation equals a fresh
        cursor's from that word."""
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
                    _assert_held_prefix_is_fresh(cursor)
                if rng.random() < 0.7:
                    start = words[rng.randrange(len(words))]
                else:
                    start = tuple(rng.randrange(nfa.symbol_count) for _ in range(length))
                cursor.seek(start)
                fresh = CrossSectionCursor(nfa, length, tables)
                fresh.seek(start)
                for _ in range(rng.randint(1, 6)):
                    word = cursor.next()
                    assert word == fresh.next()
                    if word is EXHAUSTED:
                        break
                    _assert_held_prefix_is_fresh(cursor)
            checked += 1
        assert kernels == {"list", "bit"}

    def test_memory_stays_flat(self):
        """The cursor holds one run of l+1 masks, replaced in place from the
        pivot on, so the traced heap after word 500 is within a small
        constant of its size after word 20."""
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


def _assert_held_prefix_is_fresh(cursor):
    """The held run has length + 1 entries, or only the initial set after
    the least word, and its entries 0 .. v, v the valid prefix, equal those
    of a run of the cursor's last word built from scratch."""
    v = cursor._valid
    assert len(cursor._stack) in (1, cursor.length + 1)
    held = cursor._stack[: v + 1]
    assert held == build_run_stack(cursor.current, cursor.nfa)[: v + 1]


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


def _live_masks(tables):
    n = tables.state_count
    return [state_mask(q for q in range(n) if rank[q] < n) for rank in tables.rank]


class TestKernels:
    """The list and the bit kernel, called directly on the same automaton,
    give the same run stacks as state sets and the same successors."""

    def _check(self, nfa, length, words):
        tables = precompute(nfa, length)
        images = chunk_images(nfa)
        start = state_mask(nfa.initial)
        live = _live_masks(tables)
        for word in words:
            lists = replay(nfa, word, nfa.initial)
            masks = replay_masks(images, word, start)
            assert [sorted(s) for s in lists] == [mask_states(m) for m in masks]
            expected = next_word_lists(word, length, lists, tables)
            assert next_word_masks(word, length, masks, tables, images, live) == expected
            assert next_word(word, length, build_run_stack(word, nfa), tables) == expected

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
                stack = replay_masks(images, word, state_mask(nfa.initial))
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
        # Lengths 1-4, 6, 8, 9, 11 and 13 hold no word, but some reachable
        # state stays live at each, so all 15 lengths are checked. At each,
        # the check reads reachable states in discovery order up to the
        # first one that accepts a word of that length.
        nfa = compile_regex("(aaaaa|aaaaaaa)*")
        with counting() as counter:
            words = list(radix_words(nfa, max_length=14))
            radix_total = counter.ops
            tables = precompute(nfa, 14)
            for length in range(15):
                list(CrossSectionCursor(nfa, length, tables))
            parts = counter.ops - radix_total
        assert [len(w) for w in words] == [0, 5, 7, 10, 12, 14]
        reachable = list(nfa.initial)
        for q in reachable:
            for _, targets in nfa.adjacency[q]:
                reachable.extend(t for t in targets if t not in reachable)
        visited = sum(1 + len(t) for q in reachable for _, t in nfa.adjacency[q])
        parts += nfa.state_count + visited
        reads = []
        for length in range(15):
            live = min_words_by_state(nfa, length)
            reads.append(next(j for j, q in enumerate(reachable, 1) if live[q] is not None))
        assert max(reads) > 1
        assert radix_total - parts == sum(reads)

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
    assert report.preproc_ops == 2816
    assert sum(r.op_count for r in report.records) == 9378
