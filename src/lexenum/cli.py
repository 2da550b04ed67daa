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
from typing import Optional

from .automaton import AutomatonError, Nfa
from .bench import MAX_SYMBOLS, measure_delays, random_automaton
from .enumeration import cross_section, radix_words
from .fileformat import ParseError, decode_automaton, parse_automaton
from .instrument import counting
from .regex import RegexSyntaxError, compile_regex
from .tables import precompute

_INPUT_ERRORS = (AutomatonError, ParseError, RegexSyntaxError)


def _nonneg(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be non-negative")
    return value


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be positive")
    return value


def _random_spec(text: str):
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected STATES,SYMBOLS,TRANSITIONS")
    try:
        states, symbols, transitions = (int(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError("expected three integers") from None
    if states < 1:
        raise argparse.ArgumentTypeError("STATES must be at least 1")
    if not 1 <= symbols <= MAX_SYMBOLS:
        raise argparse.ArgumentTypeError(f"SYMBOLS must be in 1..{MAX_SYMBOLS}")
    if transitions < 0:
        raise argparse.ArgumentTypeError("TRANSITIONS must be non-negative")
    return states, symbols, transitions


def _add_input_flags(parser: argparse.ArgumentParser, with_random: bool = False) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--automaton", metavar="FILE", help="automaton description file")
    group.add_argument("--regex", metavar="PATTERN", help="regular expression")
    if with_random:
        group.add_argument(
            "--random",
            metavar="Q,S,T",
            type=_random_spec,
            help="random automaton with Q states, S symbols, T transitions",
        )


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
    _add_input_flags(bench_p, with_random=True)
    bench_p.add_argument("--length", type=_nonneg, required=True, help="word length")
    bench_p.add_argument("--limit", type=_positive, help="measure at most N outputs")
    bench_p.add_argument("--seed", type=int, default=0, help="seed for --random")
    bench_p.set_defaults(handler=_cmd_bench)

    return parser


def _load_automaton(args) -> Nfa:
    if args.automaton is not None:
        with open(args.automaton, "rb") as handle:
            return parse_automaton(decode_automaton(handle.read()))
    return compile_regex(args.regex)


def _printable(nfa: Nfa) -> Nfa:
    """``nfa`` itself, once no glyph of it is one of the characters that
    ``str.splitlines`` breaks on: a word holding one would print as several
    lines. Only a regex can hold one; the file format splits on whitespace.
    """
    for glyph in nfa.alphabet:
        if glyph.splitlines() != [glyph]:
            raise AutomatonError(f"symbol {glyph!r} breaks lines; words are printed one per line")
    return nfa


def _stream_words(nfa: Nfa, words, limit: Optional[int]) -> None:
    out = sys.stdout
    emitted = 0
    for word in words:
        out.write(nfa.format_word(word))
        out.write("\n")
        emitted += 1
        if limit is not None and emitted >= limit:
            break


def _cmd_enum(args) -> int:
    nfa = _printable(_load_automaton(args))
    with counting(args.count_ops) as counter:
        tables = precompute(nfa, args.length)
        preproc = counter.ops
        _stream_words(nfa, cross_section(nfa, args.length, tables), args.limit)
        enumeration = counter.ops - preproc
    if args.count_ops:
        print(f"# ops: preproc={preproc}, enumeration={enumeration}", file=sys.stderr)
    return 0


def _cmd_radix(args) -> int:
    nfa = _printable(_load_automaton(args))
    with counting(args.count_ops) as counter:
        _stream_words(nfa, radix_words(nfa, args.max_length), args.limit)
        total = counter.ops
    if args.count_ops:
        print(f"# ops: total={total}", file=sys.stderr)
    return 0


def _cmd_bench(args) -> int:
    if getattr(args, "random", None) is not None:
        states, symbols, transitions = args.random
        rng = random.Random(args.seed)

        def factory() -> Nfa:
            return random_automaton(rng, states, symbols, transitions,
                                    initial_count=max(1, states // 4),
                                    final_count=max(1, states // 4))

    else:
        def factory() -> Nfa:
            return _load_automaton(args)

    report = measure_delays(factory, args.length, args.limit)
    out = sys.stdout
    for line in report.csv_lines():
        out.write(line)
        out.write("\n")
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


if __name__ == "__main__":
    sys.exit(main())
