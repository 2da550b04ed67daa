import random
import re

import pytest

from lexenum import ParseError, build_nfa, fileformat, parse_automaton, random_automaton
from lexenum.fileformat import decode_automaton
from lexenum.instrument import counting
from helpers import (
    assert_canonical,
    corpus_automaton,
    raw_pieces,
    reference_parse_automaton,
    serialize_automaton,
)

A1_TEXT = """\
# comment lines allowed anywhere
alphabet a b          # symbol order = lexicographic order
states 2
initial 0             # zero or more states, space-separated
final 1
0 a 0                 # transition lines: from symbol to
0 b 1
1 a 1
"""


def test_parses_reference_file(a1):
    assert parse_automaton(A1_TEXT) == a1


def test_blank_lines_and_full_line_comments_ignored(a1):
    text = "\n# leading\n\n" + A1_TEXT + "\n# trailing\n\n"
    assert parse_automaton(text) == a1


def test_states_zero_gives_empty_language_automaton():
    nfa = parse_automaton("alphabet a b\nstates 0\n")
    assert nfa.state_count == 0
    assert len(nfa.initial) == 0
    assert nfa.final_states == ()


def test_unknown_symbol_names_line_and_symbol():
    text = "alphabet a b\nstates 2\ninitial 0\nfinal 1\n0 c 1\n"
    with pytest.raises(ParseError, match=r"line 5.*'c'"):
        parse_automaton(text)


def test_unknown_directive_names_line():
    with pytest.raises(ParseError, match="line 2.*unknown directive"):
        parse_automaton("alphabet a\nbogus 1 2\nstates 1\n")


def test_state_out_of_range_names_line():
    text = "alphabet a\nstates 2\ninitial 0\nfinal 1\n0 a 5\n"
    with pytest.raises(ParseError, match="line 5.*out of range"):
        parse_automaton(text)


def test_initial_out_of_range_names_line():
    with pytest.raises(ParseError, match="line 3.*out of range"):
        parse_automaton("alphabet a\nstates 1\ninitial 4\n")


@pytest.mark.parametrize(
    "text,pattern",
    [
        ("states 1\n", "missing 'alphabet'"),
        ("alphabet a\n", "missing 'states'"),
        ("alphabet a\nstates 1\nalphabet b\n", "line 3.*duplicate 'alphabet'"),
        ("alphabet a\nstates 1\nstates 2\n", "line 3.*duplicate 'states'"),
        ("alphabet a\nstates\n", "line 2.*exactly one"),
        ("alphabet a\nstates 1\n0 a\n", "line 3.*from symbol to"),
        ("alphabet a\nstates 1\n0 a 0 0\n", "line 3.*from symbol to"),
        ("alphabet a\nstates 1\ninitial x\n", "line 3.*state number"),
        ("alphabet ab\nstates 1\n", "line 1.*single character"),
        ("alphabet a a\nstates 1\n", "line 1.*duplicate symbol"),
        ("alphabet a\nstates \u00b2\n", "line 2.*state number"),
        ("alphabet a\nstates \u0661\u0662\n", "line 2.*state number"),
        ("alphabet a\nstates 1\n\u0660 a 0\n", "line 3.*unknown directive"),
        ("alphabet a\nstates 1\ninitial " + "0" * 5000 + "\n", "line 3.*too long"),
        ("alphabet a\nstates 99999999999999999999\n", "line 2.*state count"),
        pytest.param(
            "alphabet a\nstates 1\n0 a \u00b2\n",
            r"^line 3: expected a state number, got '\u00b2'$",
            id="non-ascii-digit-target",
        ),
        pytest.param(
            "alphabet a\nstates 1\n0 a " + "0" * 5000 + "\n",
            r"^line 3: state number of 5000 digits is too long$",
            id="5000-digit-target",
        ),
        pytest.param(
            "alphabet a\nstates 1\n" + "0" * 5000 + " a 0\n",
            r"^line 3: state number of 5000 digits is too long$",
            id="5000-digit-source",
        ),
        # Tokens are checked left to right: the source's diagnostic wins.
        pytest.param(
            "alphabet a\nstates 1\n" + "0" * 5000 + " a x\n",
            r"^line 3: state number of 5000 digits is too long$",
            id="5000-digit-source-before-bad-target",
        ),
        pytest.param(
            "alphabet a\nstates 2\n" + "0 a 1\n" * 1497 + "2 a 0\n" + "1 a 0\n" * 500,
            r"^line 1500: transition source 2 out of range for 2 states$",
            id="out-of-range-source-on-line-1500-of-2000",
        ),
        # A state past int()'s digit limit on a well-formed transition line
        # is a syntax error: it wins over anything on a later line, and
        # loses to a syntax error on an earlier one.
        pytest.param(
            "alphabet a\nstates 1\n0 a " + "0" * 5000 + "\nbogus 1\n",
            r"^line 3: state number of 5000 digits is too long$",
            id="5000-digit-state-before-unknown-directive",
        ),
        pytest.param(
            "alphabet a\nstates 1\nbogus 1\n0 a " + "0" * 5000 + "\n",
            r"^line 3: unknown directive 'bogus'$",
            id="5000-digit-state-after-unknown-directive",
        ),
        pytest.param(
            "alphabet a\nstates 1\n0 a 5\n0 a " + "0" * 5000 + "\n",
            r"^line 4: state number of 5000 digits is too long$",
            id="5000-digit-state-after-out-of-range-state",
        ),
        pytest.param(
            "alphabet a\nstates 1\n" + "0 a 0\n" * 1997 + "0 b 0\n",
            r"^line 2000: unknown symbol 'b' in transition \(0, 'b', 0\)$",
            id="unknown-glyph-on-line-2000-of-2000",
        ),
    ],
)
def test_malformed_inputs(text, pattern):
    with pytest.raises(ParseError, match=pattern):
        parse_automaton(text)


def test_decode_rejects_invalid_utf8_naming_its_line():
    assert decode_automaton("alphabet \u00e9\n".encode()) == "alphabet \u00e9\n"
    with pytest.raises(ParseError, match=r"line 3: byte 0xff"):
        decode_automaton(b"alphabet a\nstates 1\n# \xff\n")
    with pytest.raises(ParseError, match=r"line 4: byte 0xc3"):
        decode_automaton(b"alphabet a\r\nstates 1\r\rfinal \xc3\n")


# Characters at which str.splitlines breaks but the format does not.
NOT_LINE_BREAKS = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("char", NOT_LINE_BREAKS)
def test_only_newlines_end_a_line(a1, char):
    # Inside a comment the character is comment text, not a line end that
    # would leave "page 2" to be read as a directive.
    text = A1_TEXT.replace("# comment lines", f"# comment{char}page 2 lines")
    assert parse_automaton(text) == a1
    # Errors on later lines are numbered by newlines alone.
    with pytest.raises(ParseError, match=r"^line 3: transition line"):
        parse_automaton(f"alphabet a # x{char}y\nstates 1\n0 a\n")
    with pytest.raises(ParseError, match=r"^line 3: byte 0xff"):
        decode_automaton(f"alphabet a # x{char}y\nstates 1\n# ".encode() + b"\xff\n")


@pytest.mark.parametrize("newline", ["\r\n", "\r"])
def test_crlf_and_lone_cr_files_parse(a1, newline):
    assert parse_automaton(A1_TEXT.replace("\n", newline)) == a1
    with pytest.raises(ParseError, match=r"^line 3: transition line"):
        parse_automaton(newline.join(["alphabet a", "states 1", "0 a", ""]))


def test_decode_drops_one_byte_order_mark(a1):
    bom = b"\xef\xbb\xbf"
    assert parse_automaton(decode_automaton(bom + A1_TEXT.encode())) == a1
    # The invalid byte is named by the file's own offsets, not shifted by
    # the mark.
    with pytest.raises(ParseError, match=r"line 3: byte 0xff"):
        decode_automaton(bom + b"alphabet a\nstates 1\n# \xff\n")


def test_directive_order_is_free(a1):
    text = "0 a 0\nfinal 1\n0 b 1\nstates 2\n1 a 1\ninitial 0\nalphabet a b\n"
    assert parse_automaton(text) == a1


def test_initial_final_lines_accumulate():
    text = "alphabet a\nstates 3\ninitial 0\ninitial 2\nfinal 1\nfinal 1 2\n"
    nfa = parse_automaton(text)
    assert nfa.initial == (0, 2)
    assert nfa.final_states == (1, 2)


def test_files_listing_the_same_lines_in_another_order_parse_equal():
    text = "alphabet a b\nstates 3\ninitial 2 0\nfinal 1 2\n0 a 1\n0 a 0\n2 b 1\n"
    reordered = "alphabet a b\nstates 3\ninitial 0 2\nfinal 2 1\n0 a 0\n0 a 1\n2 b 1\n"
    nfa, other = parse_automaton(text), parse_automaton(reordered)
    assert nfa == other
    assert nfa.adjacency == other.adjacency == [[(0, (0, 1))], [], [(1, (1,))]]
    assert nfa.initial == other.initial == (0, 2)
    assert nfa.final_states == other.final_states == (1, 2)


def test_round_trip_on_reference(a1):
    assert parse_automaton(serialize_automaton(a1)) == a1


def test_round_trip_on_random_corpus():
    rng = random.Random(89)
    for _ in range(60):
        nfa = corpus_automaton(rng)
        parsed = parse_automaton(serialize_automaton(nfa))
        assert parsed == nfa
        assert_canonical(parsed)


def test_round_trip_at_scale():
    # The sparse-tables shape: 20000 states, 60000 transitions.
    nfa = random_automaton(random.Random(5), 20000, 4, 60000, 500, 500)
    assert parse_automaton(serialize_automaton(nfa)) == nfa


def test_the_pattern_and_str_split_break_on_the_same_whitespace():
    # The transition pattern's \s must split where the header lines'
    # str.split does, or a line would be read two ways.
    text = "".join(map(chr, range(0x110000)))
    assert re.findall(r"\s", text) == [c for c in text if c.isspace()]
    assert re.findall(r".", text) == [c for c in text if c != "\n"]


def test_parse_calls_build_nfa_once_and_charges_what_it_charges(monkeypatch):
    nfa = random_automaton(random.Random(1), 200, 4, 2000, 50, 50)
    text = serialize_automaton(nfa)
    calls = []

    def spy(*args):
        calls.append(args)
        return build_nfa(*args)

    # perfbench times the layout through this module-level name.
    monkeypatch.setattr(fileformat, "build_nfa", spy)
    with counting() as ops:
        assert parse_automaton(text) == nfa
        parsed = ops.ops
    assert len(calls) == 1
    with counting() as ops:
        build_nfa(*raw_pieces(nfa))
        built = ops.ops
    assert parsed == built > 0


SEPARATORS = [" ", "\t", "\u00a0"] + NOT_LINE_BREAKS
COMMENTS = ["#", "# note", "#0 a 1", "##", "# x\u2028y", "# \x85 states 9"]
# One corrupted line each: (kind, tokens of a transition line) -> tokens.
CORRUPTIONS = {
    "two-tokens": lambda rng, tokens: tokens[:2],
    "four-tokens": lambda rng, tokens: tokens + [rng.choice(["0", "a", "x"])],
    "non-ascii-digit": lambda rng, tokens: _replace_state(rng, tokens, rng.choice(["\u0661", "\u00b2", "1\u0662", "\uff11"])),
    "5000-digits": lambda rng, tokens: _replace_state(rng, tokens, rng.choice(["0", "1"]) + "0" * 4999),
    "unknown-glyph": lambda rng, tokens: [tokens[0], rng.choice(["~", "ab", "\u00e9"]), tokens[2]],
    "glued-glyph": lambda rng, tokens: [tokens[0], tokens[1] + "#", tokens[2]],
    "glued-source": lambda rng, tokens: [tokens[0] + "#", tokens[1], tokens[2]],
    "out-of-range": lambda rng, tokens: _replace_state(rng, tokens, str(rng.randint(6, 9))),
}


def _replace_state(rng, tokens, token):
    tokens = list(tokens)
    tokens[rng.choice([0, 2])] = token
    return tokens


def _automaton_file(rng, nfa, corruption):
    """A file for ``nfa`` with its lines in random order and layout, and
    the named corruption on one transition line or, for "header", one
    repeated header line."""
    header = [
        ["alphabet", *nfa.alphabet],
        ["states", str(nfa.state_count)],
        ["initial", *map(str, nfa.initial)],
        ["final", *map(str, nfa.final_states)],
    ]
    lines = [
        [str(q), nfa.alphabet[a], str(t)]
        for q, row in enumerate(nfa.adjacency)
        for a, targets in row
        for t in targets
    ]
    rng.shuffle(lines)
    if corruption == "header":
        header.append(list(rng.choice(header[:2])))
    elif corruption is not None and lines:
        i = rng.randrange(len(lines))
        lines[i] = CORRUPTIONS[corruption](rng, lines[i])
    for tokens in header:
        lines.insert(rng.randint(0, len(lines)), tokens)

    def gap():
        return "".join(rng.choice(SEPARATORS) for _ in range(rng.randint(1, 2)))

    def pad():
        return gap() if rng.random() < 0.3 else ""

    out = []
    for tokens in lines:
        line = pad() + "".join(token + gap() for token in tokens[:-1]) + tokens[-1] + pad()
        if rng.random() < 0.2:
            line += rng.choice(["", " ", "\t"]) + rng.choice(COMMENTS)
        out.append(line)
        if rng.random() < 0.1:
            out.append(rng.choice(["", pad(), gap(), rng.choice(COMMENTS)]))
    newline = rng.choice(["\n", "\r\n", "\r"])
    return newline.join(out) + rng.choice(["", newline])


def _parse_outcome(parse, text):
    try:
        nfa = parse(text)
    except ParseError as exc:
        return str(exc), exc.line
    return nfa, nfa.adjacency


def test_the_pattern_pass_matches_the_line_by_line_parser_on_2400_files():
    rng = random.Random(43)
    kinds = [None, None, None, "header", *CORRUPTIONS]
    rejected = {}
    for i in range(2400):
        if i % 4:
            nfa = corpus_automaton(rng)
        else:
            n = rng.randint(1, 12)
            nfa = random_automaton(rng, n, rng.randint(1, 5), rng.randint(0, 3 * n))
        kind = kinds[i % len(kinds)]
        text = _automaton_file(rng, nfa, kind)
        expected = _parse_outcome(reference_parse_automaton, text)
        assert _parse_outcome(parse_automaton, text) == expected, (kind, text)
        if kind is None:
            assert expected[0] == nfa
        elif isinstance(expected[0], str):
            rejected.setdefault(kind, []).append(expected[0])
    # Every corruption was rejected, with the diagnostics it can have.
    diagnostics = {
        "header": ["duplicate 'alphabet' line", "duplicate 'states' line"],
        "two-tokens": ["transition line must be"],
        "four-tokens": ["transition line must be"],
        "non-ascii-digit": ["expected a state number", "unknown directive"],
        "5000-digits": ["state number of 5000 digits is too long"],
        "unknown-glyph": ["unknown symbol"],
        "glued-glyph": ["transition line must be"],
        "glued-source": ["transition line must be"],
        "out-of-range": ["out of range"],
    }
    assert rejected.keys() == diagnostics.keys()
    for kind, phrases in diagnostics.items():
        for phrase in phrases:
            assert any(phrase in message for message in rejected[kind]), (kind, phrase)
