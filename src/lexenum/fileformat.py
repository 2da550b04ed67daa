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
"""

from __future__ import annotations

import codecs
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


def _lines(text: str) -> list[str]:
    """The lines of ``text``, split at ``\\n``, ``\\r\\n`` and ``\\r`` only."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


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
        line = len(_lines(data[: exc.start].decode("utf-8")))
        raise ParseError(f"byte {data[exc.start]:#04x} is not valid UTF-8", line) from None


def parse_automaton(text: str) -> Nfa:
    """Parse the text format above into a validated :class:`Nfa`.

    The parser checks syntax only: directives, token shapes, missing or
    duplicate ``alphabet``/``states`` lines, and ASCII decimal state
    numbers. The entries it records then stream into :func:`build_nfa`,
    which checks the alphabet, the state count, and every state and symbol
    reference. Every rejection raises :class:`ParseError` naming its line,
    except a missing header line, which has none.
    """
    alphabet: Optional[list[tuple[int, str]]] = None  # (line, glyph)
    state_count: Optional[int] = None
    states_line = 0
    initial_entries: list[tuple[int, int]] = []  # (line, state)
    final_entries: list[tuple[int, int]] = []
    transition_entries: list[tuple[int, tuple[int, str, int]]] = []  # (line, (src, glyph, dst))

    for line_no, raw in enumerate(_lines(text), start=1):
        comment = raw.find("#")
        if comment != -1:
            raw = raw[:comment]
        tokens = raw.split()
        if not tokens:
            continue
        head = tokens[0]
        # Transition lines come first: they are nearly every line of a file.
        if head.isdigit() and head.isascii():
            if len(tokens) != 3:
                raise ParseError(
                    "transition line must be 'from symbol to'", line_no
                )
            dst = tokens[2]
            if dst.isdigit() and dst.isascii():
                try:
                    transition_entries.append((line_no, (int(head), tokens[1], int(dst))))
                    continue
                except ValueError:  # beyond int()'s limit on decimal digits
                    pass
            # Raises the diagnostic of the first bad state token.
            _state_token(head, line_no)
            _state_token(dst, line_no)
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

    if alphabet is None:
        raise ParseError("missing 'alphabet' line")
    if state_count is None:
        raise ParseError("missing 'states' line")

    # build_nfa checks the state count first and then reads each iterable
    # once, in order, so `at` is the line of whatever it rejects.
    at = states_line

    def read(entries):
        nonlocal at
        for at, value in entries:
            yield value

    try:
        return build_nfa(
            read(alphabet),
            state_count,
            read(initial_entries),
            read(final_entries),
            read(transition_entries),
        )
    except AutomatonError as exc:
        raise ParseError(str(exc), at) from None
