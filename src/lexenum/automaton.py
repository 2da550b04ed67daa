"""Automaton data model: alphabet, dense states, two transition layouts.

States are exactly the integers ``0 .. state_count-1``. Transitions live in
two read-only layouts built once by :func:`build_nfa`:

* per-state adjacency lists of ``(symbol_id, targets)`` pairs, strictly
  increasing in symbol id, with non-empty duplicate-free target tuples;
* per-symbol transition columns: ``columns[a][q]`` is the target tuple of
  state ``q`` on symbol ``a``, and ``()`` when there is none.

The adjacency lists serve the successor search and the tables, which visit
only the symbols a state has; the columns serve the subset step, which reads
one symbol for a whole set of states. :func:`replay` runs that step over a
whole word into a caller-owned stack of sets; :func:`delta_step` is its
one-symbol case.

``Nfa`` instances are immutable after construction and safe to share across
threads. ``SparseStateSet`` is a single-owner mutable structure.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator, Sequence, Union

from .instrument import ops as _ops

# A word is a tuple of symbol ids, first letter first.
Word = tuple[int, ...]


class AutomatonError(ValueError):
    """Raw automaton input failed validation."""


@dataclass(frozen=True, slots=True)
class Symbol:
    """One alphabet letter: dense id (the lexicographic rank) and its glyph."""

    id: int
    glyph: str


class SparseStateSet:
    """Subset of states with O(1) insert and membership test, O(|set|) iterate.

    A byte membership array plus a list of the members in insertion order;
    creating a fresh set costs O(state_count). Iteration order is insertion
    order. :func:`replay` rewrites sets in place through both fields.
    """

    __slots__ = ("membership", "elements")

    def __init__(self, state_count: int):
        self.membership = bytearray(state_count)
        self.elements: list[int] = []

    def insert(self, state: int) -> None:
        """Add ``state`` (0 <= state < state_count); re-inserting is a no-op."""
        if not self.membership[state]:
            self.membership[state] = 1
            self.elements.append(state)

    def copy(self) -> "SparseStateSet":
        dup = SparseStateSet.__new__(SparseStateSet)
        dup.membership = bytearray(self.membership)
        dup.elements = list(self.elements)
        return dup

    def __contains__(self, state: int) -> bool:
        return bool(self.membership[state])

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __repr__(self) -> str:
        return f"SparseStateSet({self.elements!r})"


class Nfa:
    """Immutable nondeterministic finite automaton without epsilon moves.

    Build instances through :func:`build_nfa` (or the text/regex frontends);
    the constructor trusts its arguments. ``initial`` is exposed as a
    :class:`SparseStateSet` and must not be mutated.
    """

    __slots__ = (
        "alphabet",
        "state_count",
        "initial",
        "final_flags",
        "final_states",
        "adjacency",
        "transition_count",
        "_glyphs",
        "_glyph_ids",
        "_columns",
    )

    def __init__(
        self,
        alphabet: tuple[Symbol, ...],
        state_count: int,
        initial: SparseStateSet,
        final_flags: bytearray,
        final_states: tuple[int, ...],
        adjacency: list[list[tuple[int, tuple[int, ...]]]],
        columns: list[list[tuple[int, ...]]],
        transition_count: int,
    ):
        self.alphabet = alphabet
        self.state_count = state_count
        self.initial = initial
        self.final_flags = final_flags
        self.final_states = final_states
        self.adjacency = adjacency
        self.transition_count = transition_count
        self._glyphs = tuple(s.glyph for s in alphabet)
        self._glyph_ids = {s.glyph: s.id for s in alphabet}
        self._columns = columns

    @property
    def symbol_count(self) -> int:
        return len(self.alphabet)

    def targets(self, state: int, symbol_id: int) -> tuple[int, ...]:
        """Target states of ``state`` on ``symbol_id``; () when none.

        One read of the ``symbol_id`` column, O(1).
        """
        return self._columns[symbol_id][state]

    def symbol_id(self, glyph: str) -> int:
        try:
            return self._glyph_ids[glyph]
        except KeyError:
            raise AutomatonError(f"unknown symbol {glyph!r}") from None

    def format_word(self, word: Iterable[int]) -> str:
        glyphs = self._glyphs
        return "".join(glyphs[a] for a in word)

    def word_from_str(self, text: str) -> Word:
        return tuple(self.symbol_id(ch) for ch in text)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Nfa):
            return NotImplemented
        return (
            self._glyphs == other._glyphs
            and self.state_count == other.state_count
            and set(self.initial.elements) == set(other.initial.elements)
            and set(self.final_states) == set(other.final_states)
            and self.adjacency == other.adjacency
        )

    __hash__ = None  # mutable buffers inside

    def __repr__(self) -> str:
        return (
            f"Nfa(|Q|={self.state_count}, sigma={''.join(self._glyphs)!r}, "
            f"|delta|={self.transition_count}, I={self.initial.elements}, "
            f"F={list(self.final_states)})"
        )


def _check_state(value, state_count: int, what: str) -> int:
    if not isinstance(value, int) or not 0 <= value < state_count:
        raise AutomatonError(f"{what} {value!r} out of range for {state_count} states")
    return value


def build_nfa(
    alphabet: Sequence[Union[str, Symbol]],
    state_count: int,
    initial: Iterable[int],
    final: Iterable[int],
    transitions: Iterable[tuple],
) -> Nfa:
    """Validate raw automaton pieces and normalise them into an :class:`Nfa`.

    ``alphabet`` lists single-character glyphs whose *declaration order* is the
    lexicographic order. Transitions are ``(state, symbol, state)`` triples
    where the symbol may be a glyph or a symbol id; duplicates are collapsed.
    Target order within a pair is first-occurrence order. The layout build
    costs O(#transitions + |alphabet| * state_count).

    Raises :class:`AutomatonError` for duplicate alphabet glyphs, for a state
    count beyond ``sys.maxsize`` (no buffer can be indexed that far), and for
    out-of-range state or symbol references. A 0-state automaton with empty
    initial/final/transitions is legal and accepts nothing.
    """
    symbols: list[Symbol] = []
    glyph_ids: dict[str, int] = {}
    for item in alphabet:
        glyph = item.glyph if isinstance(item, Symbol) else item
        if not isinstance(glyph, str) or len(glyph) != 1:
            raise AutomatonError(f"alphabet entry {glyph!r} is not a single character")
        if glyph in glyph_ids:
            raise AutomatonError(f"duplicate symbol {glyph!r} in alphabet")
        glyph_ids[glyph] = len(symbols)
        symbols.append(Symbol(len(symbols), glyph))
    sigma = len(symbols)

    if not isinstance(state_count, int) or not 0 <= state_count <= sys.maxsize:
        raise AutomatonError(f"state count must be an int in 0..{sys.maxsize}, got {state_count!r}")

    init_set = SparseStateSet(state_count)
    for q in initial:
        init_set.insert(_check_state(q, state_count, "initial state"))

    final_set = SparseStateSet(state_count)
    for q in final:
        final_set.insert(_check_state(q, state_count, "final state"))

    # One column of per-state target buckets per symbol, () while empty;
    # creating them is the O(sigma*|Q|) share of the layout cost.
    columns: list[list] = [[()] * state_count for _ in range(sigma)]
    seen: set[tuple[int, int, int]] = set()
    raw_count = 0
    for entry in transitions:
        raw_count += 1
        try:
            src, sym, dst = entry
        except (TypeError, ValueError):
            raise AutomatonError(f"transition {entry!r} is not a (state, symbol, state) triple") from None
        if isinstance(sym, str):
            if sym not in glyph_ids:
                raise AutomatonError(f"unknown symbol {sym!r} in transition {entry!r}")
            a = glyph_ids[sym]
        elif isinstance(sym, int) and 0 <= sym < sigma:
            a = sym
        else:
            raise AutomatonError(f"unknown symbol {sym!r} in transition {entry!r}")
        _check_state(src, state_count, "transition source")
        _check_state(dst, state_count, "transition target")
        key = (src, a, dst)
        if key in seen:
            continue
        seen.add(key)
        bucket = columns[a][src]
        if bucket:
            bucket.append(dst)
        else:
            columns[a][src] = [dst]

    adjacency: list[list[tuple[int, tuple[int, ...]]]] = []
    for q in range(state_count):
        row = []
        for a, column in enumerate(columns):
            if column[q]:
                column[q] = tuple(column[q])
                row.append((a, column[q]))
        adjacency.append(row)

    if _ops.enabled:
        _ops.ops += 2 * state_count * sigma + raw_count

    return Nfa(
        tuple(symbols),
        state_count,
        init_set,
        final_set.membership,
        tuple(final_set.elements),
        adjacency,
        columns,
        len(seen),
    )


def replay(nfa: Nfa, word: Sequence[int], stack: list[SparseStateSet]) -> list[SparseStateSet]:
    """Run ``word`` from the set ``stack[0]``, writing the set reached after
    each prefix ``word[:i]`` into ``stack[i]``; returns ``stack``.

    ``stack`` needs ``len(word) + 1`` sets over ``nfa``'s states; entries 1 to
    ``len(word)`` are overwritten whatever they held, and entry 0 is only
    read. Each entry is cleared in place (one O(|Q|) zero-fill of its
    membership bytes, the cost of allocating a fresh set) and then filled
    with the targets in first-occurrence order over the previous entry's
    states in their order. A position is charged ``len(source)`` plus the
    targets visited, which is its work up to the uncharged zero-fill.
    """
    columns = nfa._columns
    zero = bytes(nfa.state_count)
    counting = _ops.enabled
    sources = stack[0].elements
    for a, into in zip(word, islice(stack, 1, None)):
        column = columns[a]
        membership = into.membership
        membership[:] = zero
        elements = into.elements
        elements.clear()
        # SparseStateSet.insert, inlined: this loop is the per-output hot path.
        for q in sources:
            for t in column[q]:
                if not membership[t]:
                    membership[t] = 1
                    elements.append(t)
        if counting:
            _ops.ops += len(sources) + sum(map(len, map(column.__getitem__, sources)))
        sources = elements
    return stack


def delta_step(
    nfa: Nfa,
    source: SparseStateSet,
    symbol: Union[int, Symbol],
    into: SparseStateSet,
) -> SparseStateSet:
    """Collect every target reachable from ``source`` on ``symbol`` into ``into``.

    The one-symbol case of :func:`replay`. ``into`` must be empty on entry;
    it is also returned. Targets enter ``into`` in first-occurrence order
    over the source states in their order. The charge is ``len(source)``
    plus the number of targets visited.
    """
    a = symbol.id if isinstance(symbol, Symbol) else symbol
    replay(nfa, (a,), [source, into])
    return into
