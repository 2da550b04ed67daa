"""Precomputed live sets for least-word completion.

For every length ``k <= length`` the tables hold ``live[k]``, the frozenset
of the states that accept a word of length exactly k. L(0) is the final
set, and a state accepts a word of length k + 1 exactly when it has a
transition into a state of L(k), so L(k+1) is the union of the predecessors
of L(k)'s states. That is all the enumeration needs: a set of states has a
length-k completion iff it meets L(k), and its least one is built letter by
letter, each letter the least symbol on which the set reaches L(k-1) (see
:func:`lexenum.enumeration.min_word`).

This module only builds the tables. Every reader is in
:mod:`lexenum.enumeration`.

For automata on the bit kernel (``nfa.kernel == "bit"``) the tables also
hold, per level k, what the bit kernel's live test reads in place of the
live set: ``pred_masks[k][a]`` is the mask of the states with an
``a``-transition into a state of L(k), so a mask reaches L(k) on ``a`` iff
its AND with that mask is non-zero. A level's masks, one per symbol, take
ceil(|Q|/8) bytes each. On the list kernel ``pred_masks`` is None.

The tables keep the automaton they were built for in ``nfa``, so readers
take the adjacency lists and the alphabet from the tables themselves and
cannot pair them with another automaton. Level k is derived from level k-1
alone, so the tables grow one level at a time: a radix run extends one table
as its length rises instead of building a table per length.

Each state's predecessors are listed once, with level 0, in O(|Q| +
#transitions); on the bit kernel so is ``pm[a][t]``, the mask of the states
with an ``a``-transition into ``t``. Level k+1 visits the predecessor entries
of L(k)'s states, at most #transitions, and on the bit kernel ORs the ``pm``
masks of its live states, |alphabet| ORs of ceil(|Q|/64) words per live
state, which the kernel test keeps within 2 * #transitions. L(k+1) is a
function of L(k) alone, so once a live set repeats, L(j+p) = L(j) for the
first such j and p, every later level repeats with period p: level k >= j+p
is level k-p, so it appends the same objects in O(1) time and memory, and the
predecessor lists and masks are dropped. Each level's live set is looked up
in a dict from live set to the first level that had it, in O(|L(k)|), until
the first repeat. Settling, L(k+1) = L(k), is the period-1 case; live sets
that cycle without settling, as in a unary 2-cycle, repeat with a longer
period. So building levels ``0 .. length`` costs O(|Q| + length *
#transitions) at worst, and O(|Q| + (j+p) * #transitions + length) when a
live set repeats first at level j+p; a radix length in which few states are
live costs their predecessors, not |Q| rows. The tables hold O((j+p) * |Q| +
length) entries. With the automaton's layout, O(|alphabet| + |Q| +
#transitions), that is the whole preprocessing.
"""

from __future__ import annotations

from functools import reduce
from operator import or_
from typing import Optional

from .automaton import Nfa
from .instrument import ops as _ops


class MinWordTables:
    """Live sets of ``nfa`` for lengths ``0 .. length``, grown one level at
    a time.

    The constructor builds level 0 and :meth:`add_level` appends the next
    level, derived from the current top level alone. Existing levels are never
    rewritten, so readers of levels up to ``length`` are unaffected by growth;
    only the owner of the tables appends, and cursors never write.

    ``live[k]`` is level k's live set, a frozenset; on the bit kernel each
    level also gets its ``pred_masks`` entry, built in full before the level
    is appended. Once a level's live set equals an earlier level's, L(j+p) =
    L(j), the live sets repeat with period :attr:`period`: every level k >=
    j+p is level k-p, so it holds the same ``live`` and ``pred_masks``
    objects, and the predecessor lists and masks are dropped. A level equal
    to the one below it, p = 1, is a settled level.

    The predecessor lists and masks, and the dict from each live set to the
    first level that had it (all None once a live set has repeated), are
    private to the tables and only :meth:`add_level` reads them.

    ``fill_ops`` records how many predecessor entries the levels above 0
    visited; that is at most #transitions per level, and it exists so tests
    can check that bound.
    """

    __slots__ = ("nfa", "live", "pred_masks", "fill_ops", "_pred", "_pm", "_first", "_period")

    def __init__(self, nfa: Nfa):
        """Level 0: the final states, which accept the empty word.

        Also lists, once, each state's predecessors: one entry per transition
        into it. Charged |Q| + #transitions for the predecessor lists and one
        unit per final state. On the bit kernel ``pm[a][t]`` is built in the
        same walk over the transitions, with one OR per transition, charged
        one unit each, and the level's masks are charged as
        :meth:`add_level` charges a level's."""
        n = nfa.state_count
        self.nfa = nfa
        self.fill_ops = 0
        pred: list[list[int]] = [[] for _ in range(n)]
        # On the bit kernel, pm[a][t]: the states with an a-transition into
        # t, built in the same walk over the transitions.
        pm = [[0] * n for _ in nfa.alphabet] if nfa.images is not None else None
        for q, row in enumerate(nfa.adjacency):
            for a, targets in row:
                for t in targets:
                    pred[t].append(q)
                if pm is not None:
                    into, bit = pm[a], 1 << q
                    for t in targets:
                        into[t] |= bit
        # Dropped, set to None, once a live set has repeated, as are pm and
        # _first.
        self._pred: Optional[list[list[int]]] = pred
        self._pm: Optional[list[list[int]]] = pm
        self.live = [frozenset(nfa.final_states)]
        self._first: Optional[dict[frozenset, int]] = {self.live[0]: 0}
        self._period = 0
        self.pred_masks: Optional[list[list[int]]] = None
        if pm is not None:
            self.pred_masks = [self._masks_into(self.live[0])]
        if _ops.enabled:
            _ops.ops += n + nfa.transition_count + len(nfa.final_states)
            _ops.ops += nfa.transition_count * (pm is not None)

    def add_level(self) -> None:
        """Append level ``length + 1``, derived from level ``length`` alone.

        The new live set is the union of the predecessors of the states of
        ``live[length]``: each has a transition into a state live at level
        ``length`` and no other state has one. If no earlier level has that
        set, it is appended, with its masks on the bit kernel, charged one
        unit per predecessor entry visited and per state of the new set, plus
        what its masks are charged. If level j has it, the live sets repeat
        from j with period ``length + 1 - j``: the predecessor lists and
        masks are dropped, and the level is charged the same visit and
        states and appended as a level past the repeat is.

        Once a live set has repeated with period p, the new level is level
        ``length + 1 - p``: its ``live`` set and, on the bit kernel, its
        ``pred_masks`` list are appended as they are, the same objects, and
        the level is charged one unit.
        """
        live, first = self.live, self._first
        if first is not None:
            preds = list(map(self._pred.__getitem__, live[-1]))
            level = frozenset().union(*preds)
            visited = sum(map(len, preds))
            self.fill_ops += visited
            if _ops.enabled:
                _ops.ops += visited + len(level)
            k = first.setdefault(level, len(live))
            if k == len(live):
                # The masks first: ``length`` counts the live sets, so a
                # level is visible only once it is whole.
                if self._pm is not None:
                    self.pred_masks.append(self._masks_into(level))
                live.append(level)
                return
            self._period = len(live) - k
            self._pred = self._pm = self._first = None
        p = self._period
        # pred_masks is None on the list kernel.
        for rows in filter(None, (self.pred_masks, live)):
            rows.append(rows[-p])
        if _ops.enabled:
            _ops.ops += 1

    def _masks_into(self, live: frozenset) -> list[int]:
        """A bit-kernel level's ``pred_masks`` entry for its live set: per
        symbol ``a``, the OR of the ``pm[a]`` masks of the live states.
        Charged ceil(|Q|/64) per OR, |alphabet| ORs per live state."""
        if _ops.enabled:
            _ops.ops += len(self._pm) * len(live) * -(-self.nfa.state_count // 64)
        return [reduce(or_, map(into.__getitem__, live), 0) for into in self._pm]

    @property
    def period(self) -> int:
        """The period p of the live sets once one has repeated, L(j+p) =
        L(j) with j+p <= ``length``; 0 until then. 1 once the tables have
        settled."""
        return self._period

    @property
    def length(self) -> int:
        """The top level: the tables cover word lengths ``0 .. length``."""
        return len(self.live) - 1

    def __repr__(self) -> str:
        return f"MinWordTables(length={self.length}, states={self.nfa.state_count})"


def check_length(length) -> None:
    """Raise :class:`ValueError` unless ``length`` is a non-negative int; a
    bool, or any other subclass of int, is not a length."""
    if type(length) is not int or length < 0:
        raise ValueError(f"length must be a non-negative int, got {length!r}")


def precompute(nfa: Nfa, length: int) -> MinWordTables:
    """Build the tables for all word lengths ``0 .. length``."""
    check_length(length)
    tables = MinWordTables(nfa)
    for _ in range(length):
        tables.add_level()
    return tables
