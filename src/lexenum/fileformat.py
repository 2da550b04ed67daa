"""Line-oriented text format for automata.

::

    # comment lines allowed anywhere; `#` also starts a trailing comment
    alphabet a b          # symbol order = lexicographic order
    states 2
    initial 0             # zero or more states, space-separated
    final 1
    0 a 0                 # transition lines: from symbol to
    0 b 1
    1 a 1

Files are UTF-8, optionally behind one byte-order mark
(:func:`decode_automaton` turns bytes into text). Lines end at ``\\n``,
``\\r\\n`` or ``\\r`` only: a form feed, U+2028 or another character at
which :meth:`str.splitlines` also breaks ends no line, so inside a comment
it is part of the comment. Tokens are whitespace-separated. The
``alphabet`` and ``states`` lines are required (each exactly once);
``initial``/``final`` lines may repeat and accumulate. Line order is
otherwise free. Every rejection is a :class:`ParseError` that names the
offending line; only a missing ``alphabet`` or ``states`` line, which has
no line, is named by its directive instead.

:func:`parse_automaton` takes the well-formed transition lines, nearly
every line of a file, in one pattern pass over the text, with no Python
step per line, and reads the header lines, and any malformed transition
line, from what that pass leaves. A state number with more digits than
:func:`int` converts (:func:`sys.get_int_max_str_digits`, where that
limit exists) makes its transition line malformed.
"""

from __future__ import annotations

import codecs
import re
import sys
from functools import lru_cache
from itertools import compress, count
from operator import length_hint
from typing import Optional

from .automaton import AutomatonError, Nfa, build_nfa


class ParseError(ValueError):
    """Diagnostic for a malformed automaton file, with a 1-based line number."""

    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


def _state_token(token: str, line_no: int) -> int:
    # ASCII digits only: str.isdigit alone also accepts superscripts and the
    # digits of other scripts.
    if not (token.isascii() and token.isdigit()):
        raise ParseError(f"expected a state number, got {token!r}", line_no)
    try:
        return int(token)
    except ValueError:  # beyond int()'s limit on decimal digits
        raise ParseError(f"state number of {len(token)} digits is too long", line_no) from None


def _newlines(text: str) -> str:
    """``text`` with each ``\\r\\n`` and lone ``\\r`` turned into ``\\n``, the
    one line end left."""
    return text.replace("\r\n", "\n").replace("\r", "\n")


def decode_automaton(data: bytes) -> str:
    """Decode the bytes of an automaton file as UTF-8, after dropping one
    leading byte-order mark.

    Raises :class:`ParseError` naming the line of the first invalid byte;
    that byte is rejected even inside a comment.
    """
    # Not "utf-8-sig": its error offsets do not count the mark, so
    # data[exc.start] would name the wrong byte.
    data = data.removeprefix(codecs.BOM_UTF8)
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # Number lines as parse_automaton does; the bytes before the bad one
        # decode, and the bad one is on the last of their lines.
        line = _newlines(data[: exc.start].decode("utf-8")).count("\n") + 1
        raise ParseError(f"byte {data[exc.start]:#04x} is not valid UTF-8", line) from None


@lru_cache(maxsize=None)
def _transition(limit: int) -> re.Pattern:
    r"""The pattern of a well-formed transition line: an ASCII decimal state,
    a symbol token and another state, separated by whitespace, then an
    optional comment; each state of at most ``limit`` digits, so that
    :func:`int` converts it, or of any length when ``limit`` is 0.
    ``[^\S\n]`` is whitespace but the line end; re's ``\s`` and
    :meth:`str.split` break on the same code points, and neither ``$`` nor
    ``.`` passes a ``\n``."""
    state = f"([0-9]{{1,{limit}}})" if limit else "([0-9]+)"
    return re.compile(rf"^[^\S\n]*{state}[^\S\n]+([^\s#]+)[^\S\n]+{state}[^\S\n]*(?:#.*)?$", re.M)


def _directives(text: str) -> tuple:
    """The header lines of ``text``, a file whose well-formed transition
    lines are emptied: ``(alphabet, state count, its line, initial
    entries, final entries)``, with the alphabet, initial and final entries
    as ``(line, value)`` pairs. Raises :class:`ParseError` for the first
    line in ``text`` that is not blank, a comment, or a well-formed header;
    a transition line left in ``text`` is malformed, and gets the
    diagnostic of its first bad token."""
    alphabet: Optional[list[tuple[int, str]]] = None  # (line, glyph)
    state_count: Optional[int] = None
    states_line = 0
    initial_entries: list[tuple[int, int]] = []  # (line, state)
    final_entries: list[tuple[int, int]] = []

    lines = text.split("\n")
    # Only the lines that are not empty, numbered: the emptied transition
    # lines cost no Python step.
    for line_no, raw in zip(compress(count(1), lines), filter(None, lines)):
        comment = raw.find("#")
        if comment != -1:
            raw = raw[:comment]
        tokens = raw.split()
        if not tokens:
            continue
        head = tokens[0]
        if head.isdigit() and head.isascii():
            if len(tokens) != 3:
                raise ParseError(
                    "transition line must be 'from symbol to'", line_no
                )
            # A state is no ASCII decimal number or is too long for int(),
            # or the pattern would have taken the line: this raises the
            # diagnostic of the first bad state token.
            _state_token(head, line_no)
            _state_token(tokens[2], line_no)
        elif head == "alphabet":
            if alphabet is not None:
                raise ParseError("duplicate 'alphabet' line", line_no)
            alphabet = [(line_no, token) for token in tokens[1:]]
        elif head == "states":
            if state_count is not None:
                raise ParseError("duplicate 'states' line", line_no)
            if len(tokens) != 2:
                raise ParseError("'states' expects exactly one number", line_no)
            state_count = _state_token(tokens[1], line_no)
            states_line = line_no
        elif head == "initial":
            initial_entries += [(line_no, _state_token(t, line_no)) for t in tokens[1:]]
        elif head == "final":
            final_entries += [(line_no, _state_token(t, line_no)) for t in tokens[1:]]
        else:
            raise ParseError(f"unknown directive {head!r}", line_no)
    return alphabet, state_count, states_line, initial_entries, final_entries


def parse_automaton(text: str) -> Nfa:
    """Parse the text format above into a validated :class:`Nfa`.

    The parser checks syntax only: directives, token shapes, missing or
    duplicate ``alphabet``/``states`` lines, and ASCII decimal state
    numbers. After the line ends are normalized, one pattern pass splits
    every well-formed transition line into its three tokens and leaves the
    text with those lines emptied, so line numbers hold; the header lines,
    and any malformed transition line, are read from what is left. The
    pattern takes no state token longer than :func:`int`'s digit limit at
    the time of the call, so a line with one stays in the text and is
    rejected there, in file order. Each distinct state token is converted
    once, and the triples go, with the header entries, to
    :func:`build_nfa`, which checks the alphabet, the state count, and
    every state and symbol reference.

    Every rejection raises :class:`ParseError` naming its line, except a
    missing header line, which has none. Syntax errors come before what
    :func:`build_nfa` rejects, and among them the first bad line in file
    order wins. :func:`build_nfa` reads each piece once, in order, from a
    list iterator, whose length hint is the number of entries still unread;
    so the entry it rejected is the last one read, and a triple's line is
    one past the newlines before it in the split text.
    """
    # Python 3.10 before 3.10.7 has no digit limit.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    # parts: the text before each well-formed transition line, then the
    # line's source, symbol and target tokens, ..., then the rest.
    parts = _transition(limit).split(_newlines(text))
    sources, glyphs, targets = parts[1::4], parts[2::4], parts[3::4]
    tokens = set(sources).union(targets)
    states = dict(zip(tokens, map(int, tokens)))
    alphabet, state_count, states_line, initial_entries, final_entries = _directives("".join(parts[::4]))
    if alphabet is None:
        raise ParseError("missing 'alphabet' line")
    if state_count is None:
        raise ParseError("missing 'states' line")

    transitions = list(zip(map(states.__getitem__, sources), glyphs, map(states.__getitem__, targets)))
    header = [alphabet, initial_entries, final_entries]
    readers = [iter([value for _, value in entries]) for entries in header]
    readers.append(iter(transitions))
    try:
        return build_nfa(readers[0], state_count, *readers[1:])
    except AutomatonError as exc:
        # build_nfa checks the state count first and then reads each piece
        # once, in order, so it rejected the last entry it read of the last
        # piece it began.
        line_no = states_line
        for entries, reader in zip(header, readers):
            read = len(entries) - length_hint(reader)
            if read:
                line_no = entries[read - 1][0]
        read = len(transitions) - length_hint(readers[3])
        if read:
            line_no = "".join(parts[: 4 * read - 3 : 4]).count("\n") + 1
        raise ParseError(str(exc), line_no) from None
