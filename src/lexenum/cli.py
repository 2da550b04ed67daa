"""Command line interface.

Three subcommands stream to standard output:

* ``enum``: the words of one length, least first, one per line.
* ``radix``: the whole language by increasing length, ties lexicographic.
* ``bench``: per-output operation counts and timings as CSV.

Diagnostics go to standard error with exit code 2; success (including empty
output) exits 0.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from contextlib import closing
from functools import partial
from itertools import chain, islice
from typing import Iterator, Optional

from .automaton import AutomatonError, Nfa
from .bench import _csv_row, _measure, random_automaton
from .enumeration import CrossSectionCursor, radix_cursors
from .fileformat import ParseError, decode_automaton, parse_automaton
from .instrument import counting
from .regex import RegexSyntaxError, compile_regex
from .tables import precompute

_INPUT_ERRORS = (AutomatonError, ParseError, RegexSyntaxError)


def _int_at_least(low: int, text: str) -> int:
    """An argparse type: an int of at least ``low``, 0 or 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < low:
        raise argparse.ArgumentTypeError("must be positive" if low else "must be non-negative")
    return value


_nonneg = partial(_int_at_least, 0)
_positive = partial(_int_at_least, 1)


def _random_spec(text: str) -> tuple[int, int, int]:
    """Three comma-separated ints; :func:`random_automaton` checks their range."""
    try:
        states, symbols, transitions = map(int, text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError("expected three integers Q,S,T") from None
    return states, symbols, transitions


def _add_input_flags(parser: argparse.ArgumentParser) -> argparse._MutuallyExclusiveGroup:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--automaton", metavar="FILE", help="automaton description file")
    group.add_argument("--regex", metavar="PATTERN", help="regular expression")
    return group


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lexenum",
        description="Enumerate the words of a regular language in order.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    enum_p = sub.add_parser("enum", help="words of one length, in lexicographic order")
    _add_input_flags(enum_p)
    enum_p.add_argument("--length", type=_nonneg, required=True, help="word length")
    enum_p.add_argument("--limit", type=_positive, help="stop after N words")
    enum_p.add_argument("--count-ops", action="store_true",
                        help="tally operations and report them on stderr")
    enum_p.set_defaults(handler=_cmd_enum)

    radix_p = sub.add_parser("radix", help="whole language by increasing length")
    _add_input_flags(radix_p)
    radix_p.add_argument("--max-length", type=_nonneg, help="largest length to emit")
    radix_p.add_argument("--limit", type=_positive, help="stop after N words")
    radix_p.add_argument("--count-ops", action="store_true",
                         help="tally operations and report them on stderr")
    radix_p.set_defaults(handler=_cmd_radix)

    bench_p = sub.add_parser("bench", help="measure per-output cost as CSV")
    _add_input_flags(bench_p).add_argument(
        "--random",
        metavar="Q,S,T",
        type=_random_spec,
        help="random automaton with Q states, S symbols, T transitions",
    )
    bench_p.add_argument("--length", type=_nonneg, required=True, help="word length")
    bench_p.add_argument("--limit", type=_positive, help="measure at most N outputs")
    bench_p.add_argument("--seed", type=int, default=0, help="seed for --random")
    bench_p.set_defaults(handler=_cmd_bench)

    return parser


def _load_automaton(args) -> Nfa:
    """The automaton of whichever input option is given: ``--automaton``,
    ``--regex`` or (bench only) ``--random``, sampled from ``--seed`` with
    ``max(1, STATES // 4)`` initial and final states."""
    if args.automaton is not None:
        with open(args.automaton, "rb") as handle:
            return parse_automaton(decode_automaton(handle.read()))
    if args.regex is not None:
        return compile_regex(args.regex)
    states, symbols, transitions = args.random
    ends = max(1, states // 4)
    return random_automaton(random.Random(args.seed), states, symbols, transitions, ends, ends)


def _printable(nfa: Nfa) -> Nfa:
    """``nfa`` itself, once every glyph of it can be printed before any word
    is: no glyph is one of the characters that ``str.splitlines`` breaks on,
    since a word holding one would print as several lines (only a regex can
    hold one; the file format splits on whitespace), and standard output's
    encoding, with its error handler, can write each glyph. A standard output
    without an ``encoding`` attribute is not checked for the second.
    """
    for glyph in nfa.alphabet:
        if glyph.splitlines() != [glyph]:
            raise AutomatonError(f"symbol {glyph!r} breaks lines; words are printed one per line")
    encoding = getattr(sys.stdout, "encoding", None)
    try:
        if encoding is not None:
            nfa.alphabet.encode(encoding, getattr(sys.stdout, "errors", "strict"))
    except UnicodeEncodeError as exc:
        raise AutomatonError(
            f"symbol {exc.object[exc.start]!r} cannot be written in the output encoding {encoding}"
        ) from None
    return nfa


def _lines(nfa: Nfa, cursors) -> Iterator[str]:
    """Each word of each cursor as a line, the cursors pulled one after
    another and each cursor's words pulled one at a time, each by one
    :meth:`~lexenum.enumeration.CrossSectionCursor.next` call that resumes
    the cursor's successor search. Consecutive words of a cursor share their
    letters before its pivot, so a line keeps the previous line's up to
    there and spells only the rest: the one glyph at the pivot when the
    pivot is the last position, else the letters from the pivot on, with
    :meth:`~lexenum.automaton.Nfa.format_word`. A cursor's first word has
    pivot 0 and is spelled whole, by its one glyph at length 1. Each glyph
    is one character, so letter positions are character positions."""
    format_word, alphabet = nfa.format_word, nfa.alphabet
    for cursor in cursors:
        line, last = "", cursor.length - 1
        for word in cursor:
            pivot = cursor.pivot
            # A change at the last letter, 3269 of tiny-stream's first 5000
            # words, takes its one glyph: no format_word call, list
            # comprehension or slice of the word. Kept because it pays: those
            # 5000 lines took 1.80 us per word in-process without it and 1.55
            # with it, and in 10 of 10 perfbench pairs (3 s runs at seed 1)
            # tiny-stream's delay_p50_us rose 25.9 % and its words_per_s fell
            # 11.7 % without it (Python 3.11.7, 2-vCPU container).
            spelled = alphabet[word[pivot]] if pivot == last else format_word(word[pivot:])
            line = line[:pivot] + spelled + "\n"
            yield line


def _stream_words(nfa: Nfa, cursors, limit: Optional[int]) -> None:
    write = sys.stdout.write
    for line in islice(_lines(nfa, cursors), limit):
        write(line)


def _cmd_enum(args) -> int:
    with counting(args.count_ops) as counter:
        nfa = _printable(_load_automaton(args))
        tables = precompute(nfa, args.length)
        preproc = counter.ops
        _stream_words(nfa, [CrossSectionCursor(nfa, args.length, tables)], args.limit)
        enumeration = counter.ops - preproc
    if args.count_ops:
        print(f"# ops: preproc={preproc}, enumeration={enumeration}", file=sys.stderr)
    return 0


def _cmd_radix(args) -> int:
    with counting(args.count_ops) as counter:
        nfa = _printable(_load_automaton(args))
        _stream_words(nfa, radix_cursors(nfa, args.max_length), args.limit)
        total = counter.ops
    if args.count_ops:
        print(f"# ops: total={total}", file=sys.stderr)
    return 0


def _cmd_bench(args) -> int:
    # Each row is written as it is measured, so no run holds its records.
    write = sys.stdout.write
    with closing(_measure(partial(_load_automaton, args), args.length, args.limit)) as rows:
        for line in chain(next(rows).csv_lines(), map(_csv_row, rows)):
            write(line + "\n")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2
    except OSError as exc:
        if isinstance(exc, BrokenPipeError):
            # Downstream closed the pipe (e.g. `| head`); not an error.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 0
        print(f"error: {exc}", file=sys.stderr)
        return 2
