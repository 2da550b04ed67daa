"""Delay measurement harness and random instance generation.

:func:`measure_delays` runs one cross-section enumeration with the global
operation counter enabled and records, per output word, the operations and
wall time spent since the previous output. The preprocessing tally covers
automaton layout construction (when a factory is passed) plus table building.
"""

from __future__ import annotations

import random
import string
import time
from dataclasses import dataclass, field, replace
from itertools import count
from typing import Callable, Iterator, Optional, Union

from .automaton import Nfa, build_nfa
from .enumeration import EXHAUSTED, CrossSectionCursor
from .instrument import counting
from .tables import precompute

_GLYPH_POOL = string.ascii_lowercase + string.ascii_uppercase + string.digits
# The most symbols a random automaton can have: one per glyph in the pool.
MAX_SYMBOLS = len(_GLYPH_POOL)


@dataclass(frozen=True, slots=True)
class DelayRecord:
    index: int
    word: tuple
    op_count: int
    wall_nanos: int


@dataclass(frozen=True)
class DelayReport:
    """Per-run measurement: instance sizes, preprocessing cost, per-output cost.

    ``final_gap_ops``/``final_gap_nanos`` cover the work after the last output
    that established exhaustion; they are None when a limit cut the run short.
    """

    length: int
    state_count: int
    symbol_count: int
    transition_count: int
    preproc_ops: int
    preproc_nanos: int
    records: list[DelayRecord] = field(default_factory=list)
    final_gap_ops: Optional[int] = None
    final_gap_nanos: Optional[int] = None

    @property
    def exhausted(self) -> bool:
        return self.final_gap_ops is not None

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
        if self.exhausted:
            index = len(self.records)
            yield _csv_row(DelayRecord(index, EXHAUSTED, self.final_gap_ops, self.final_gap_nanos))


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
    and no records, then a :class:`DelayRecord` per output as it is measured
    and, when the cursor ran out within ``limit``, a last record whose word is
    EXHAUSTED, for the final gap. What the consumer does between two records
    is outside every gap: each gap's clock and tally start when it resumes.
    """
    with counting() as ops:
        t0 = time.perf_counter_ns()
        nfa = source() if callable(source) else source
        tables = precompute(nfa, length)
        preproc_nanos = time.perf_counter_ns() - t0
        # The first gap's tally also covers setting the cursor up.
        mark = ops.ops
        cursor = CrossSectionCursor(nfa, length, tables=tables)
        yield DelayReport(
            length=length,
            state_count=nfa.state_count,
            symbol_count=nfa.symbol_count,
            transition_count=nfa.transition_count,
            preproc_ops=mark,
            preproc_nanos=preproc_nanos,
        )
        for index in count() if limit is None else range(limit):
            t_prev = time.perf_counter_ns()
            word = cursor.next()
            now = time.perf_counter_ns()
            yield DelayRecord(index, word, ops.ops - mark, now - t_prev)
            if word is EXHAUSTED:
                break
            mark = ops.ops


def measure_delays(
    source: Union[Nfa, Callable[[], Nfa]],
    length: int,
    limit: Optional[int] = None,
) -> DelayReport:
    """Enumerate one cross-section with counting on and report the delays.

    ``source`` is an automaton or a zero-argument factory; pass a factory to
    include the automaton layout construction in the preprocessing tally.
    ``limit`` bounds the number of outputs measured. Under an enclosing
    :func:`~lexenum.instrument.counting` block the whole tally, preprocessing
    and every gap, is added to the enclosing count.
    """
    rows = _measure(source, length, limit)
    report = next(rows)
    final = None
    for record in rows:
        if record.word is EXHAUSTED:
            final = record
        else:
            report.records.append(record)
    if final is None:
        return report
    return replace(report, final_gap_ops=final.op_count, final_gap_nanos=final.wall_nanos)


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
    uniform size in ``0..state_count`` (so either set may come out empty);
    a size given outside that range raises :class:`ValueError`.
    """
    if state_count < 1:
        raise ValueError("need at least one state")
    if not 1 <= symbol_count <= MAX_SYMBOLS:
        raise ValueError(f"symbol count must be in 1..{MAX_SYMBOLS}")
    if transition_count < 0:
        raise ValueError(f"transition_count must be non-negative, got {transition_count}")
    for name, value in (("initial_count", initial_count), ("final_count", final_count)):
        if value is not None and not 0 <= value <= state_count:
            raise ValueError(f"{name} must be in 0..{state_count}, got {value}")
    max_triples = state_count * state_count * symbol_count
    transition_count = min(transition_count, max_triples)
    span = symbol_count * state_count
    transitions = []
    for code in rng.sample(range(max_triples), transition_count):
        src, rest = divmod(code, span)
        a, dst = divmod(rest, state_count)
        transitions.append((src, a, dst))
    if initial_count is None:
        initial_count = rng.randint(0, state_count)
    if final_count is None:
        final_count = rng.randint(0, state_count)
    initial = rng.sample(range(state_count), initial_count)
    final = rng.sample(range(state_count), final_count)
    return build_nfa(_GLYPH_POOL[:symbol_count], state_count, initial, final, transitions)
