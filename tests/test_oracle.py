import random

import pytest

from lexenum import build_nfa
from lexenum.oracle import (
    OracleCapExceeded,
    cross_section_bruteforce,
    member,
    min_word_oracle,
    min_words_by_state,
)
from helpers import corpus_automaton, word_from_str


class TestMember:
    def test_accepted(self, a1):
        assert member(a1, word_from_str(a1, "ab"))

    def test_rejected(self, a1):
        assert not member(a1, word_from_str(a1, "aa"))

    def test_empty_word(self, a1):
        assert not member(a1, ())

    def test_custom_start(self, a1):
        assert member(a1, word_from_str(a1, "a"), start=[1])
        assert not member(a1, word_from_str(a1, "b"), start=[1])


class TestCrossSectionBruteforce:
    def test_a1(self, a1):
        assert cross_section_bruteforce(a1, 2) == [(0, 1), (1, 0)]

    def test_length_zero(self, a1):
        assert cross_section_bruteforce(a1, 0) == []

    def test_no_final_states(self):
        nfa = build_nfa("ab", 2, [0], [], [(0, "a", 1)])
        for length in range(4):
            assert cross_section_bruteforce(nfa, length) == []

    def test_agrees_with_member(self):
        rng = random.Random(73)
        for _ in range(30):
            nfa = corpus_automaton(rng)
            for length in range(4):
                section = set(cross_section_bruteforce(nfa, length))
                sigma = nfa.symbol_count
                import itertools

                for word in itertools.product(range(sigma), repeat=length):
                    assert (word in section) == member(nfa, word)

    def test_cap_refusal(self, a1):
        with pytest.raises(OracleCapExceeded):
            cross_section_bruteforce(a1, 20)  # 2^20 > MAX_ENUMERATION


class TestMinWordOracle:
    def test_examples(self, a1):
        assert min_word_oracle(a1, 0, 2) == (0, 1)  # "ab"
        assert min_word_oracle(a1, 1, 1) == (0,)  # "a"
        assert min_word_oracle(a1, 0, 0) is None

    def test_none_iff_cross_section_from_state_empty(self):
        rng = random.Random(79)
        for _ in range(20):
            nfa = corpus_automaton(rng)
            for q in range(nfa.state_count):
                for k in range(4):
                    sigma = nfa.symbol_count
                    import itertools

                    words = [
                        w
                        for w in itertools.product(range(sigma), repeat=k)
                        if member(nfa, w, start=[q])
                    ]
                    expected = min(words) if words else None
                    assert min_word_oracle(nfa, q, k) == expected

    def test_cap_refusal(self, a1):
        with pytest.raises(OracleCapExceeded):
            min_word_oracle(a1, 0, 40)


def test_batch_min_words_matches_single_state_oracle():
    rng = random.Random(83)
    for _ in range(30):
        nfa = corpus_automaton(rng)
        for k in range(5):
            batch = min_words_by_state(nfa, k)
            for q in range(nfa.state_count):
                assert batch[q] == min_word_oracle(nfa, q, k)
