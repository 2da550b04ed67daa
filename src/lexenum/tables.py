"""Precomputed guidance tables for minimal-word reconstruction.

For every length ``k <= length`` the tables hold the order of the least
length-k words, which answers two questions in O(1):

* ``rank[k][q]`` is the dense rank of the least length-k word accepted
  starting from ``q`` among the least length-k words of all states that
  accept one: states spelling the same word share a rank, and the ranks in
  use are ``0 .. m-1``. States accepting no length-k word get the sentinel
  ``nfa.state_count``, above every live rank. So ``q`` is live at level k
  iff ``rank[k][q] < nfa.state_count``, and ``q``'s word is
  lexicographically <= ``q'``'s iff ``rank[k][q] <= rank[k][q']``.
* ``first_step[k][r]``, for ``k >= 1`` and each live rank ``r`` of level k,
  is the pair ``(symbol_id, r')`` that the level-k word of rank ``r`` is
  made of: its first letter, then the level-(k-1) word of rank ``r'``. The
  list holds one pair per live rank, in rank order, so the pairs increase
  strictly, and ``first_step[0]`` is empty.

This module only builds the tables. Every reader is in
:mod:`lexenum.enumeration`, whose :func:`~lexenum.enumeration.min_word`
spells a least word by following the first steps down from a rank of level
k; no state is needed for that, since a rank stands for one word.

For automata on the bit kernel (``nfa.kernel == "bit"``) the tables also
hold, per level k, what the bit kernel's successor search reads in place of
an image. ``pred_masks[k][a]`` lists prefix masks over the live ranks: entry
``r`` is the mask of the states with an ``a``-transition into a state of
level-k rank ``<= r``, so the last entry holds every state with an
``a``-transition into a live state. A level with no live state holds ``[0]``
per symbol. A level's masks, one per symbol and live rank, take
ceil(|Q|/8) bytes each. On the list kernel ``pred_masks`` is None.

The tables keep the automaton they were built for in ``nfa``, so readers
take the adjacency lists and the alphabet from the tables themselves and
cannot pair them with another automaton. Level k is derived from level k-1
alone, so the tables grow one level at a time: a radix run extends one table
as its length rises instead of building a table per length.

A state is live at level k exactly when it has a transition into a state live
at level k-1. So level k's live set is the union of the predecessors of level
k-1's live states, L(k) = pred(L(k-1)), and level k scans those states' rows
only, for each one's least (symbol, rank) pair. The tables keep the top
level's live set, ``live``, the frozenset ``{q : rank[length][q] < |Q|}``,
which the next level starts from and a radix run's stop rule reads. Each
state's predecessors are listed once, with level 0, in O(|Q| +
#transitions); on the bit kernel so is ``pm[a][t]``, the mask of the states
with an ``a``-transition into ``t``.
Level k is a function of ``rank[k-1]`` alone, so once a level's rank row
equals the one below it, every later level equals it too: the tables have
settled. From then on a level appends the top level's lists, and on the bit
kernel its masks, themselves, in O(1) time and memory, and the predecessor
lists and masks are dropped. Until then a level costs O(|Q|) for its rank
row and for comparing it with the one below, plus its live states'
adjacency lists, m log m to rank its m live states, one first step per live
rank, and the previous live states' predecessor counts. On the bit kernel it
also ORs each live state's ``pm`` masks into running prefixes over its
ranks: |alphabet| times m ORs plus one per live rank, of ceil(|Q|/64) words
each, which the kernel test keeps within 4 * #transitions. That is never more
than a scan of every row, so building levels ``0 .. length`` costs O(|Q| +
length * (#transitions + |Q| log |Q|)) at worst, and O(|Q| + s *
(#transitions + |Q| log |Q|) + length) when the tables settle at level s; a
radix length in which few states are live costs their frontier, not |Q| rows.
The tables hold O(s * |Q| + length) entries; every later access is O(1). With
the automaton's layout, O(|alphabet| + |Q| + #transitions), that is the whole
preprocessing.
"""

from __future__ import annotations

from functools import reduce
from itertools import accumulate
from operator import or_
from typing import Optional, Sequence

from .automaton import Nfa
from .instrument import ops as _ops


class MinWordTables:
    """Guidance tables of ``nfa`` for lengths ``0 .. length``, grown one level
    at a time.

    The constructor builds level 0 and :meth:`add_level` appends the next
    level, derived from the current top level alone. Existing levels are never
    rewritten, so readers of levels up to ``length`` are unaffected by growth;
    only the owner of the tables appends, and cursors never write.

    A level's live set, the set of states it scans, is the union of the
    predecessors of the level below's live states. ``live`` holds the top
    level's, ``{q : rank[length][q] < |Q|}`` as a frozenset; it is replaced,
    never changed, when a level is added. On the bit kernel each
    level also gets its ``pred_masks`` entry, built in full before the level
    is appended. Once a level's rank row equals the one below it, the tables
    have settled: every later level is that level, so it holds the same
    ``first_step``, ``rank`` and ``pred_masks`` objects, and the predecessor
    lists and masks are dropped.

    The predecessor lists and masks (None once the tables have settled) are
    private to the tables and only :meth:`add_level` reads them.

    ``fill_ops`` records how many adjacency pairs were inspected and target
    comparisons made while picking the live states' first steps; only live
    states' pairs are inspected, so it is bounded by 4 * length *
    #transitions and exists so tests can check that bound.
    """

    __slots__ = (
        "nfa",
        "first_step",
        "rank",
        "pred_masks",
        "fill_ops",
        "_pred",
        "_pm",
        "live",
    )

    def __init__(self, nfa: Nfa):
        """Level 0: final states accept the empty word and share rank 0.

        Also lists, once, each state's predecessors: one entry per transition
        into it. Charged |Q| for the rank row, |Q| + #transitions for the
        predecessor lists, and one unit per final state. On the bit kernel
        ``pm[a][t]`` is built in the same walk over the transitions, with
        one OR per transition, charged one unit each, and the level's masks
        are charged as :meth:`add_level` charges a level's."""
        n = nfa.state_count
        self.nfa = nfa
        # The empty word has no first step; the empty list keeps
        # ``first_step[k]`` at index k.
        self.first_step: list[list[tuple[int, int]]] = [[]]
        self.rank = [[n] * n]
        self.fill_ops = 0
        for q in nfa.final_states:
            self.rank[0][q] = 0
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
        # Dropped, set to None, once the tables have settled, as is pm.
        # Copied into tuples because it pays: without the copy, dict-radix's
        # delay_p99_us, whose p99 gaps are its level builds, rose from 193 to
        # 216 us and from 179 to 205 us in two sets of 10 perfbench pairs
        # (parent IQR 25 and 18 us).
        self._pred: Optional[list[tuple[int, ...]]] = [tuple(p) for p in pred]
        self.live = frozenset(nfa.final_states)
        self._pm: Optional[list[list[int]]] = pm
        self.pred_masks: Optional[list[list[list[int]]]] = None
        if pm is not None:
            self.pred_masks = []
            # Every final state has rank 0.
            self._append_masks([nfa.final_states] if nfa.final_states else [])
        if _ops.enabled:
            _ops.ops += 2 * n + nfa.transition_count + len(nfa.final_states)
            _ops.ops += nfa.transition_count * (self._pm is not None)

    def add_level(self) -> None:
        """Append level ``length + 1``, derived from level ``length`` alone.

        Once the tables have settled, the new level is level ``length``: its
        ``first_step`` and ``rank`` lists and, on the bit kernel, its
        ``pred_masks`` list are appended as they are, the same objects,
        ``live`` stays, and the level is charged one unit.

        Until then the new level's live set is the union of the predecessors
        of the states live at level ``length``, ``live``: each has a
        transition into a live state and no other state has one, and it
        becomes the new ``live``. Each live state's adjacency
        list is scanned in increasing symbol order for the least top-level
        rank among each pair's targets, and the first symbol with a live one
        wins. The live states are then ranked by the key (first symbol, that
        rank), which orders their least words, and each distinct key, in
        rank order, is the new level's first step of its rank. The new rank
        row is compared with level ``length``'s; since a level is a function
        of the rank row below it, equal rows make every later level equal
        too, so the tables have settled and the predecessor lists and masks
        are dropped. On the bit kernel the live states are grouped by rank
        for the level's masks (see :meth:`_append_masks`).

        With m live states and ``ranks`` live ranks such a level is charged
        one unit per predecessor entry of the previous live states, the pairs
        and targets visited, |Q| for its rank row, ``ranks`` for its first
        steps, |Q| for the row comparison, m for the rank writes, m *
        ceil(log2 m) for the sort and, on the bit kernel, what its masks are
        charged.
        """
        pred = self._pred
        if pred is None:
            # pred_masks is None on the list kernel.
            for rows in filter(None, (self.first_step, self.rank, self.pred_masks)):
                rows.append(rows[-1])
            if _ops.enabled:
                _ops.ops += 1
            return

        n = self.nfa.state_count
        prev_rank = self.rank[-1]
        prev_key = prev_rank.__getitem__
        adjacency = self.nfa.adjacency
        below = self.live
        live = self.live = frozenset().union(*map(pred.__getitem__, below))

        visited = 0
        keys = []
        for q in live:
            for a, targets in adjacency[q]:
                r = min(map(prev_key, targets))
                visited += 2 + 2 * len(targets)
                if r < n:
                    keys.append((a * n + r, q))
                    break
        self.fill_ops += visited

        steps = []
        cur_rank = [n] * n
        r = -1
        last_key = None
        keys.sort()
        for key, q in keys:
            if key != last_key:
                r += 1
                last_key = key
                steps.append(divmod(key, n))
            # One int object per rank, shared by the rank's states.
            cur_rank[q] = r
        self.first_step.append(steps)
        self.rank.append(cur_rank)
        if self._pm is not None:
            # groups[r] lists the states of rank r.
            groups: list[list[int]] = [[] for _ in steps]
            for _, q in keys:
                groups[cur_rank[q]].append(q)
            self._append_masks(groups)
        if cur_rank == prev_rank:
            self._pred = self._pm = None
        if _ops.enabled:
            m = len(live)
            _ops.ops += sum(len(pred[t]) for t in below) + visited + 2 * n + len(steps) + m
            _ops.ops += m * (m - 1).bit_length()

    @property
    def length(self) -> int:
        """The top level: the tables cover word lengths ``0 .. length``."""
        return len(self.rank) - 1

    def _append_masks(self, groups: list[Sequence[int]]) -> None:
        """Append a bit-kernel level's ``pred_masks`` entry, given
        ``groups[r]``, the states of rank ``r``.

        For each symbol ``a`` the ``pm[a]`` masks of each group's states are
        ORed into one group mask, and the groups are folded in rank order
        into running ORs, so entry ``r`` holds the states with an
        ``a``-transition into a state of rank ``<= r``; with no group the
        entry is ``[0]``. An entry equal to the one before it is that same
        int object, so a group that adds no state costs no mask. With m
        states in the groups, charged m for the grouping and ceil(|Q|/64)
        per OR and per fold step: |alphabet| times m ORs plus one step per
        group.
        """
        self.pred_masks.append([
            list(accumulate([reduce(or_, map(into.__getitem__, group)) for group in groups], _widen))
            or [0]
            for into in self._pm
        ])
        if _ops.enabled:
            m = sum(map(len, groups))
            _ops.ops += m + len(self._pm) * (m + len(groups)) * -(-self.nfa.state_count // 64)

    def __repr__(self) -> str:
        return f"MinWordTables(length={self.length}, states={self.nfa.state_count})"


def _widen(prefix: int, mask: int) -> int:
    """``prefix | mask``, but ``prefix`` itself when the OR adds no bit."""
    wider = prefix | mask
    return prefix if wider == prefix else wider


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
