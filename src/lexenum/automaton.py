"""Automaton data model: alphabet, dense states, two transition layouts.

The alphabet is a string of distinct single-character glyphs; the glyph at
index ``a`` is symbol ``a``, and that index order is the lexicographic order.
States are exactly the integers ``0 .. state_count-1``. Transitions live in
two read-only layouts built once by :func:`build_nfa`:

* per-state adjacency lists of ``(symbol_id, targets)`` pairs, strictly
  increasing in symbol id, with non-empty duplicate-free target tuples;
* per-symbol transition columns: ``columns[a][q]`` is the target tuple of
  state ``q`` on symbol ``a``, and ``()`` when there is none.

The adjacency lists serve the successor search and the tables, which visit
only the symbols a state has; the columns serve the subset step, which reads
one symbol for a whole set of states. A state set is a plain sequence of
states, duplicate-free and in first-occurrence order. :func:`replay` runs the
subset step over a whole word and returns a new list of sets, one per
prefix; :func:`delta_step` is its one-symbol case.

``Nfa`` instances are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

import sys
from typing import Iterable, Sequence

from .instrument import ops as _ops

# A word is a tuple of symbol ids, first letter first.
Word = tuple[int, ...]


class AutomatonError(ValueError):
    """Raw automaton input failed validation."""


class Nfa:
    """Immutable nondeterministic finite automaton without epsilon moves.

    Build instances through :func:`build_nfa` (or the text/regex frontends);
    the constructor trusts its arguments. ``alphabet`` is the glyph string;
    ``initial`` and ``final_states`` are duplicate-free tuples of states in
    first-occurrence order.
    """

    __slots__ = (
        "alphabet",
        "state_count",
        "initial",
        "final_states",
        "adjacency",
        "transition_count",
        "_glyph_ids",
        "_columns",
    )

    def __init__(
        self,
        alphabet: str,
        state_count: int,
        initial: tuple[int, ...],
        final_states: tuple[int, ...],
        adjacency: list[list[tuple[int, tuple[int, ...]]]],
        columns: list[list[tuple[int, ...]]],
        transition_count: int,
    ):
        self.alphabet = alphabet
        self.state_count = state_count
        self.initial = initial
        self.final_states = final_states
        self.adjacency = adjacency
        self.transition_count = transition_count
        self._glyph_ids = {glyph: a for a, glyph in enumerate(alphabet)}
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
        alphabet = self.alphabet
        # A list comprehension joins faster than a generator expression.
        return "".join([alphabet[a] for a in word])

    def word_from_str(self, text: str) -> Word:
        return tuple(self.symbol_id(ch) for ch in text)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Nfa):
            return NotImplemented
        return (
            self.alphabet == other.alphabet
            and self.state_count == other.state_count
            and set(self.initial) == set(other.initial)
            and set(self.final_states) == set(other.final_states)
            and self.adjacency == other.adjacency
        )

    def __repr__(self) -> str:
        return (
            f"Nfa(|Q|={self.state_count}, sigma={self.alphabet!r}, "
            f"|delta|={self.transition_count}, I={list(self.initial)}, "
            f"F={list(self.final_states)})"
        )


def _check_state(value, state_count: int, what: str) -> int:
    if not isinstance(value, int) or not 0 <= value < state_count:
        raise AutomatonError(f"{what} {value!r} out of range for {state_count} states")
    return value


def _distinct_states(values: Iterable, state_count: int, what: str) -> tuple[int, ...]:
    """The distinct checked states in first-occurrence order."""
    return tuple(dict.fromkeys(_check_state(q, state_count, what) for q in values))


def build_nfa(
    alphabet: Sequence[str],
    state_count: int,
    initial: Iterable[int],
    final: Iterable[int],
    transitions: Iterable[tuple],
) -> Nfa:
    """Validate raw automaton pieces and normalise them into an :class:`Nfa`.

    ``alphabet`` lists single-character glyphs (a string or a sequence of
    strings) whose *declaration order* is the lexicographic order; it is
    stored as one string. Transitions are ``(state, symbol, state)`` triples
    where the symbol may be a glyph or a symbol id; duplicates are collapsed.
    Target order within a pair is first-occurrence order. The layout build
    costs O(#transitions + |alphabet| * state_count).

    Raises :class:`AutomatonError` for duplicate alphabet glyphs, for a state
    count beyond ``sys.maxsize`` (no buffer can be indexed that far), and for
    out-of-range state or symbol references. A 0-state automaton with empty
    initial/final/transitions is legal and accepts nothing.
    """
    glyph_ids: dict[str, int] = {}
    for glyph in alphabet:
        if not isinstance(glyph, str) or len(glyph) != 1:
            raise AutomatonError(f"alphabet entry {glyph!r} is not a single character")
        if glyph in glyph_ids:
            raise AutomatonError(f"duplicate symbol {glyph!r} in alphabet")
        glyph_ids[glyph] = len(glyph_ids)
    sigma = len(glyph_ids)

    if not isinstance(state_count, int) or not 0 <= state_count <= sys.maxsize:
        raise AutomatonError(f"state count must be an int in 0..{sys.maxsize}, got {state_count!r}")

    init_states = _distinct_states(initial, state_count, "initial state")
    final_states = _distinct_states(final, state_count, "final state")

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
        "".join(glyph_ids),
        state_count,
        init_states,
        final_states,
        adjacency,
        columns,
        len(seen),
    )


def replay(nfa: Nfa, word: Sequence[int], start: Sequence[int]) -> list[Sequence[int]]:
    """The state sets reached from ``start`` after each prefix of ``word``.

    Returns a new list of ``len(word) + 1`` entries: entry 0 is ``start``
    itself, and entry ``i`` a new list of the states reached after reading
    ``word[:i]``. Each entry holds the targets in first-occurrence order over
    the previous entry's states in their order, without duplicates; it is
    built against a fresh |Q|-byte membership array, one O(|Q|) allocation
    per position. A position is charged ``len(source)`` plus the targets
    visited, which is its work up to that uncharged allocation.
    """
    columns = nfa._columns
    n = nfa.state_count
    counting = _ops.enabled
    stack = [start]
    sources = start
    for a in word:
        column = columns[a]
        # A fresh array per position: one array reused and cleared over the
        # new list, or dict.fromkeys over the chained targets, measured slower.
        membership = bytearray(n)
        elements: list[int] = []
        # This loop is the per-output hot path.
        for q in sources:
            for t in column[q]:
                if not membership[t]:
                    membership[t] = 1
                    elements.append(t)
        if counting:
            _ops.ops += len(sources) + sum(map(len, map(column.__getitem__, sources)))
        stack.append(elements)
        sources = elements
    return stack


def delta_step(nfa: Nfa, source: Sequence[int], symbol: int) -> list[int]:
    """Every target reachable from ``source`` on ``symbol``, as a new list.

    The one-symbol case of :func:`replay`: targets in first-occurrence order
    over the source states in their order, without duplicates. The charge is
    ``len(source)`` plus the number of targets visited.
    """
    return replay(nfa, (symbol,), source)[1]
