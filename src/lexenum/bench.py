"""Delay measurement harness and random instance generation.

:func:`measure_delays` runs one cross-section enumeration with the global
operation counter enabled and records, per ``cursor.next()`` call, the
operations and wall time spent since the previous call returned; the call
that returns EXHAUSTED, when the run gets that far, records the final gap.
The preprocessing tally covers automaton layout construction (when a
factory is passed) plus table building.
"""

from __future__ import annotations

import random
import string
import sys
import time
from dataclasses import dataclass, field
from itertools import count
from math import isqrt
from typing import Callable, Iterator, Optional, Union

from .automaton import AutomatonError, Nfa, Word, build_nfa
from .enumeration import EXHAUSTED, CrossSectionCursor, _ExhaustedType
from .instrument import counting
from .tables import precompute

_GLYPH_POOL = string.ascii_lowercase + string.ascii_uppercase + string.digits
# The most symbols a random automaton can have: one per glyph in the pool.
MAX_SYMBOLS = len(_GLYPH_POOL)


@dataclass(frozen=True, slots=True)
class DelayRecord:
    """One ``cursor.next()`` call: its index, the word it returned, and its
    gap in operations and in nanoseconds. ``word`` is a :data:`Word`, or
    EXHAUSTED for the call that found the end, which is a record too."""

    index: int
    word: Union[Word, _ExhaustedType]
    op_count: int
    wall_nanos: int


@dataclass(frozen=True)
class DelayReport:
    """Per-run measurement: instance sizes, preprocessing cost, per-call cost.

    ``records`` holds one :class:`DelayRecord` per ``cursor.next()`` call.
    When the run reached the end within its limit, the last record is the
    call that returned EXHAUSTED, and its gap is the final one.
    """

    length: int
    state_count: int
    symbol_count: int
    transition_count: int
    preproc_ops: int
    preproc_nanos: int
    records: list[DelayRecord] = field(default_factory=list)

    @property
    def exhausted(self) -> bool:
        return bool(self.records) and self.records[-1].word is EXHAUSTED

    def csv_lines(self) -> Iterator[str]:
        """The report in CSV form: a comment header, a column row, data rows.

        Words themselves are suppressed (only their length is reported) to
        keep the output small.
        """
        yield (
            f"# l={self.length}, Q={self.state_count}, "
            f"sigma={self.symbol_count}, delta={self.transition_count}, "
            f"preproc_ops={self.preproc_ops}, preproc_nanos={self.preproc_nanos}"
        )
        yield "index,word_len,op_count,wall_nanos"
        yield from map(_csv_row, self.records)


def _csv_row(r: DelayRecord) -> str:
    """A record's CSV data row; the comment row of the final gap for the
    record whose word is EXHAUSTED."""
    if r.word is EXHAUSTED:
        return f"# final_gap_ops={r.op_count}, final_gap_nanos={r.wall_nanos}"
    return f"{r.index},{len(r.word)},{r.op_count},{r.wall_nanos}"


def _measure(
    source: Union[Nfa, Callable[[], Nfa]], length: int, limit: Optional[int]
) -> Iterator[Union[DelayReport, DelayRecord]]:
    """The measurement of :func:`measure_delays`, streamed.

    Yields a :class:`DelayReport` with the sizes and the preprocessing tally
    and no records, then a :class:`DelayRecord` per ``cursor.next()`` call
    as it is measured, at most ``limit`` of them; the call that returns
    EXHAUSTED is the last. The first gap's clock and tally both cover setting
    the cursor up. What the consumer does between two records is outside
    every gap: each gap's clock and tally start when it resumes.
    """
    with counting() as ops:
        t0 = time.perf_counter_ns()
        nfa = source() if callable(source) else source
        tables = precompute(nfa, length)
        preproc_nanos = time.perf_counter_ns() - t0
        yield DelayReport(
            length=length,
            state_count=nfa.state_count,
            symbol_count=nfa.symbol_count,
            transition_count=nfa.transition_count,
            preproc_ops=ops.ops,
            preproc_nanos=preproc_nanos,
        )
        mark, t_prev = ops.ops, time.perf_counter_ns()
        cursor = CrossSectionCursor(nfa, length, tables=tables)
        for index in count() if limit is None else range(limit):
            word = cursor.next()
            yield DelayRecord(index, word, ops.ops - mark, time.perf_counter_ns() - t_prev)
            if word is EXHAUSTED:
                break
            mark, t_prev = ops.ops, time.perf_counter_ns()


def measure_delays(
    source: Union[Nfa, Callable[[], Nfa]],
    length: int,
    limit: Optional[int] = None,
) -> DelayReport:
    """Enumerate one cross-section with counting on and report the delays.

    ``source`` is an automaton or a zero-argument factory; pass a factory to
    include the automaton layout construction in the preprocessing tally.
    ``limit`` bounds the number of ``cursor.next()`` calls measured. Under an
    enclosing :func:`~lexenum.instrument.counting` block the whole tally,
    preprocessing and every gap, is added to the enclosing count.
    """
    rows = _measure(source, length, limit)
    report = next(rows)
    report.records.extend(rows)
    return report


def random_automaton(
    rng: random.Random,
    state_count: int,
    symbol_count: int,
    transition_count: int,
    initial_count: Optional[int] = None,
    final_count: Optional[int] = None,
) -> Nfa:
    """Sample an automaton with the given sizes, uniformly without repetition.

    ``transition_count`` is clamped to the ``state_count^2 * symbol_count``
    possible distinct triples. ``initial_count``/``final_count`` default to a
    uniform size in ``0..state_count`` (so either set may come out empty).
    A size out of range raises :class:`~lexenum.automaton.AutomatonError`, a
    :class:`ValueError`, whose message names the size as the help of
    ``lexenum bench --random`` does (``states must be at least 1, got 0``);
    this is the only check of the sizes that ``--random`` passes. The triples
    are sampled from a range of ``state_count^2 * symbol_count`` codes, which
    must not exceed ``sys.maxsize``; a larger state count is out of range.
    """
    if state_count < 1:
        raise AutomatonError(f"states must be at least 1, got {state_count}")
    if not 1 <= symbol_count <= MAX_SYMBOLS:
        raise AutomatonError(f"symbols must be in 1..{MAX_SYMBOLS}, got {symbol_count}")
    if transition_count < 0:
        raise AutomatonError(f"transitions must be non-negative, got {transition_count}")
    for name, value in (("initial states", initial_count), ("final states", final_count)):
        if value is not None and not 0 <= value <= state_count:
            raise AutomatonError(f"{name} must be in 0..{state_count}, got {value}")
    max_triples = state_count * state_count * symbol_count
    if max_triples > sys.maxsize:
        limit = isqrt(sys.maxsize // symbol_count)
        raise AutomatonError(f"states must be at most {limit} for {symbol_count} symbols, got {state_count}")
    # The code of a triple is (src * symbol_count + a) * state_count + dst.
    codes = rng.sample(range(max_triples), min(transition_count, max_triples))
    transitions = [divmod(c // state_count, symbol_count) + (c % state_count,) for c in codes]
    if initial_count is None:
        initial_count = rng.randint(0, state_count)
    if final_count is None:
        final_count = rng.randint(0, state_count)
    initial = rng.sample(range(state_count), initial_count)
    final = rng.sample(range(state_count), final_count)
    return build_nfa(_GLYPH_POOL[:symbol_count], state_count, initial, final, transitions)
