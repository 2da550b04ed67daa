import itertools
import re
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from lexenum import RegexSyntaxError, compile_regex, cross_section, radix_words
from lexenum.oracle import cross_section_bruteforce
from lexenum.regex import MAX_GROUP_DEPTH, MAX_TRANSITIONS
from helpers import assert_canonical


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
    assert nfa.alphabet == "ab"
    assert words_of(nfa, 2) == ["ba"]


def test_no_epsilon_moves_result_has_plain_transitions():
    """The position automaton: one state per literal plus the initial state
    0, which nothing enters; every other state is entered on one symbol. Its
    layout is canonical, though in CPython the follow set of d in
    abcd(efgh|i), {5, 9}, iterates as 9, 5."""
    for pattern in ["(a|b)*c?", "", "a**|(b+a?)+c|", "((ab)*|c)+a", "abcd(efgh|i)"]:
        nfa = compile_regex(pattern)
        assert_canonical(nfa)
        literals = sum(ch not in "|*+?()" for ch in pattern)
        assert nfa.state_count == literals + 1
        assert list(nfa.initial) == [0]
        entered_on = [set() for _ in range(nfa.state_count)]
        for q in range(nfa.state_count):
            for a, targets in nfa.adjacency[q]:
                assert 0 <= a < nfa.symbol_count
                assert targets
                for t in targets:
                    entered_on[t].add(a)
        assert not entered_on[0], pattern
        assert all(len(symbols) == 1 for symbols in entered_on[1:]), pattern


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
    for length in range(5):
        expected = [
            "".join(chars)
            for chars in itertools.product(sorted(set(pattern) - set("|*+?()")), repeat=length)
            if re.fullmatch(reference, "".join(chars))
        ]
        assert words_of(nfa, length) == expected
        assert nfa.alphabet == "".join(sorted(set(pattern) - set("|*+?()")))


# Random patterns over abc that Python's re reads the same way: every
# alternation and every quantified operand is a parenthesised group, and a
# group carries at most one quantifier.
_PATTERNS = st.recursive(
    st.sampled_from(["a", "b", "c", ""]),
    lambda inner: st.one_of(
        st.lists(inner, min_size=2, max_size=4).map("".join),
        st.lists(inner, min_size=2, max_size=4).map(lambda bs: "(" + "|".join(bs) + ")"),
        st.tuples(inner, st.sampled_from("*+?")).map(lambda g: f"({g[0]}){g[1]}"),
    ),
    max_leaves=12,
)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_PATTERNS)
def test_random_patterns_agree_with_re_and_oracle(pattern):
    nfa = compile_regex(pattern)
    glyphs = sorted(set(pattern) - set("|*+?()"))
    assert nfa.alphabet == "".join(glyphs)
    for length in range(5):
        expected = [
            "".join(chars)
            for chars in itertools.product(glyphs, repeat=length)
            if re.fullmatch(pattern, "".join(chars))
        ]
        assert words_of(nfa, length) == expected, (pattern, length)
        oracle = [nfa.format_word(w) for w in cross_section_bruteforce(nfa, length)]
        assert oracle == expected, (pattern, length)


# A stacked run means what its collapse means, in place or across groups: a
# run of one quantifier is that quantifier, and a mixed run is *.
@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    _PATTERNS,
    st.lists(st.tuples(st.sampled_from("*+?"), st.booleans()), min_size=2, max_size=4),
    st.sampled_from([("", ""), ("c", "c"), ("c|", "|c")]),
)
@example("ab|c", [("*", False), ("+", False)], ("", ""))  # (P)*+
@example("ab|c", [("*", False), ("+", True)], ("", ""))  # ((P)*)+
@example("ab|c", [("+", False), ("?", True)], ("", ""))  # ((P)+)?
@example("ab|c", [("?", False), ("?", False)], ("", ""))  # (P)??
def test_stacked_quantifiers_compile_as_their_collapse(pattern, run, context):
    stacked = f"({pattern})"
    for quantifier, regroup in run:
        stacked = f"({stacked}){quantifier}" if regroup else stacked + quantifier
    kinds = {quantifier for quantifier, _ in run}
    collapsed = kinds.pop() if len(kinds) == 1 else "*"
    before, after = context
    assert compile_regex(before + stacked + after) == \
        compile_regex(f"{before}({pattern}){collapsed}{after}"), stacked


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


# "(" and 600 alternatives of distinct glyphs: starred, the group passes the
# transition cap, yet a syntax error later in the pattern is what is reported.
_OVER_CAP = "(" + "|".join(chr(0x100 + i) for i in range(600))


@pytest.mark.parametrize(
    "pattern,message,position",
    [
        (_OVER_CAP + ")*", f"pattern may need more than {MAX_TRANSITIONS} transitions", 1199),
        (_OVER_CAP + ")*)", "unexpected ')'", 1202),
        (_OVER_CAP + ")*(", "unbalanced '('", 1203),
        (_OVER_CAP + ")*" + "(" * 101, f"parentheses nested deeper than {MAX_GROUP_DEPTH}", 1302),
    ],
    ids=["cap", "unexpected", "unbalanced", "nested"],
)
def test_syntax_errors_win_over_the_transition_cap(pattern, message, position):
    with pytest.raises(RegexSyntaxError) as excinfo:
        compile_regex(pattern)
    assert excinfo.value.position == position
    assert str(excinfo.value) == f"{message} at position {position}"


def test_transition_cap_admits_its_bound_and_rejects_beyond():
    # (x1|...|xn)* over n distinct literals has n transitions from the
    # initial state and n * n from the star.
    n = max(k for k in range(1000) if k * k + k <= MAX_TRANSITIONS)
    glyphs = [chr(0x100 + i) for i in range(n + 1)]
    nfa = compile_regex("(" + "|".join(glyphs[:n]) + ")*")
    assert (nfa.state_count, nfa.transition_count) == (n + 1, n * n + n)
    with pytest.raises(RegexSyntaxError) as excinfo:
        compile_regex("(" + "|".join(glyphs) + ")*")
    # Reported at the last literal, the one before ")*".
    assert excinfo.value.position == 2 * n + 1
    # A stacked run links its operand once, so it costs the bound no more
    # than its collapse: each form compiles at n and is rejected at n + 1,
    # at the last literal.
    for form in ("({})*+", "(({})*)*", "({})+?"):
        nfa = compile_regex(form.format("|".join(glyphs[:n])))
        assert (nfa.state_count, nfa.transition_count) == (n + 1, n * n + n), form
        pattern = form.format("|".join(glyphs))
        with pytest.raises(RegexSyntaxError) as excinfo:
            compile_regex(pattern)
        assert excinfo.value.position == pattern.index(glyphs[n]), form


def test_empty_groups_after_a_wide_alternation_compile_in_linear_time():
    # Each "()" is nullable with an empty first set: it extends the running
    # last set in place and links nothing, so the pass stays linear where a
    # copy or a walk of that set per group took about n * n steps.
    n = 10_000
    t0 = time.perf_counter()
    nfa = compile_regex("(" + "|".join("a" * n) + ")" + "()" * n)
    assert time.perf_counter() - t0 < 3.0
    assert (nfa.state_count, nfa.transition_count) == (n + 1, n)


def test_radix_over_compiled_pattern():
    nfa = compile_regex("(ab)+")
    words = [nfa.format_word(w) for w in radix_words(nfa, max_length=6)]
    assert words == ["ab", "abab", "ababab"]
