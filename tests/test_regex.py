import itertools
import re

import pytest

from lexenum import (
    RegexSyntaxError,
    compile_regex,
    cross_section,
    cross_section_bruteforce,
    radix_words,
)
from lexenum.regex import MAX_GROUP_DEPTH


def words_of(nfa, length):
    return [nfa.format_word(w) for w in cross_section(nfa, length)]


def test_same_language_as_reference_automaton(a1):
    nfa = compile_regex("a*ba*")
    for length in range(6):
        assert cross_section_bruteforce(nfa, length) == \
            cross_section_bruteforce(a1, length)
        assert list(cross_section(nfa, length)) == \
            list(cross_section(a1, length))


def test_alternation():
    nfa = compile_regex("a|b")
    assert words_of(nfa, 1) == ["a", "b"]
    assert words_of(nfa, 0) == []
    assert words_of(nfa, 2) == []


def test_star_accepts_empty_word():
    nfa = compile_regex("a*")
    assert words_of(nfa, 0) == [""]
    assert words_of(nfa, 3) == ["aaa"]


def test_plus_requires_one():
    nfa = compile_regex("a+")
    assert words_of(nfa, 0) == []
    assert words_of(nfa, 2) == ["aa"]


def test_optional():
    nfa = compile_regex("ab?")
    assert words_of(nfa, 1) == ["a"]
    assert words_of(nfa, 2) == ["ab"]


def test_empty_pattern_matches_empty_word():
    nfa = compile_regex("")
    assert words_of(nfa, 0) == [""]
    assert nfa.symbol_count == 0


def test_empty_alternative_branch():
    nfa = compile_regex("b|")
    assert words_of(nfa, 0) == [""]
    assert words_of(nfa, 1) == ["b"]


def test_alphabet_is_code_point_ordered():
    nfa = compile_regex("ba")
    assert [s.glyph for s in nfa.alphabet] == ["a", "b"]
    assert words_of(nfa, 2) == ["ba"]


def test_no_epsilon_moves_result_has_plain_transitions():
    nfa = compile_regex("(a|b)*c?")
    for q in range(nfa.state_count):
        for a, targets in nfa.adjacency[q]:
            assert 0 <= a < nfa.symbol_count
            assert targets


def test_stacked_quantifiers_allowed():
    # Python's re rejects "a**"; here it just means ("a*")*.
    doubled = compile_regex("a**")
    single = compile_regex("a*")
    for length in range(4):
        assert cross_section_bruteforce(doubled, length) == \
            cross_section_bruteforce(single, length)


# Python's re rejects x** and reads x+? and x?? as lazy; in this dialect
# stacked quantifiers collapse, so these patterns compare with that form.
_COLLAPSED = {"a" + "*" * 3000: "a*", "(a|b)+?c": "(a|b)*c", "a??b++": "a?b+"}


@pytest.mark.parametrize(
    "pattern",
    [
        "a*ba*",
        "(a|b)*abb",
        "a?b+c*",
        "((a|b)(a|b))*",
        "a(b|)c?",
        "(ab)+",
        "(|a)b*",
        # Inputs large enough to overflow a recursive parser or builder.
        pytest.param("a" * 3000, id="a-x3000"),
        pytest.param("|".join(["a"] * 1500), id="a-alt1500"),
        pytest.param("a" + "*" * 3000, id="a-star3000"),
        pytest.param("(" * MAX_GROUP_DEPTH + "ab|c" + ")" * MAX_GROUP_DEPTH, id="nested-max"),
        "(a|b)+?c",
        "a??b++",
    ],
)
def test_agrees_with_re_fullmatch(pattern):
    nfa = compile_regex(pattern)
    reference = _COLLAPSED.get(pattern, pattern)
    glyphs = [s.glyph for s in nfa.alphabet]
    for length in range(5):
        expected = [
            "".join(chars)
            for chars in itertools.product(sorted(set(pattern) - set("|*+?()")), repeat=length)
            if re.fullmatch(reference, "".join(chars))
        ]
        assert words_of(nfa, length) == expected
        assert glyphs == sorted(set(pattern) - set("|*+?()"))


@pytest.mark.parametrize(
    "pattern,position",
    [
        ("a)", 1),
        ("(a", 2),
        ("*a", 0),
        ("a|*", 2),
        ("a(b", 3),
        ("+", 0),
        pytest.param("(" * 400 + "a" + ")" * 400, MAX_GROUP_DEPTH, id="nested400"),
    ],
)
def test_syntax_errors_carry_position(pattern, position):
    with pytest.raises(RegexSyntaxError) as excinfo:
        compile_regex(pattern)
    assert excinfo.value.position == position
    assert str(position) in str(excinfo.value)


def test_radix_over_compiled_pattern():
    nfa = compile_regex("(ab)+")
    words = [nfa.format_word(w) for w in radix_words(nfa, max_length=6)]
    assert words == ["ab", "abab", "ababab"]
