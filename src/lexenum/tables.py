"""Precomputed guidance tables for minimal-word reconstruction.

For every length ``k <= length`` and state ``q`` the tables answer two
questions in O(1):

* ``rank[k][q]`` is the dense rank of the least length-k word accepted
  starting from ``q`` among the least length-k words of all states that
  accept one: states spelling the same word share a rank, and the ranks in
  use are ``0 .. m-1``. States accepting no length-k word get the sentinel
  ``nfa.state_count``, above every live rank. So ``q`` is live at level k
  iff ``rank[k][q] < nfa.state_count``, and ``q``'s word is
  lexicographically <= ``q'``'s iff ``rank[k][q] <= rank[k][q']``.
* ``first_step[k][q]``, for ``k >= 1`` and ``q`` live at level k, is the
  first transition of that least word, a ``(symbol_id, next_state)`` pair.
  It is read only where the rank is live; other entries mean nothing.

For automata on the bit kernel (``nfa.kernel == "bit"``) the tables also
hold ``live[k]``, the mask of the states with ``rank[k][q] < |Q|``, which the
bit kernel's successor search intersects with each image it tries; on the
list kernel ``live`` is None.

The tables keep the automaton they were built for in ``nfa``, so readers
take the adjacency lists and the alphabet from the tables themselves and
cannot pair them with another automaton. Level k is derived from level k-1
alone, so the tables grow one level at a time: a radix run extends one table
as its length rises instead of building a table per length.

A state is live at level k exactly when it has a transition into a state live
at level k-1. So level k's live set is the union of the predecessors of level
k-1's live states, L(k) = pred(L(k-1)), and level k scans those states' rows
only, for each one's first step and rank. Each state's predecessors are listed
once, with level 0, in O(|Q| + #transitions). Since a live set is a function
of the one below it, once two consecutive live sets are equal every later one
is equal too: the live set has settled. From then on a level reuses the settled
set, and on the bit kernel its mask, and the predecessor lists are dropped.
A level costs O(|Q|) for its two rows, plus its live states' adjacency lists
and m log m to rank its m live states; until the live set settles it also
costs the previous live states' predecessor counts, to derive the new live
set and compare it with the previous one. That is never more than a scan of
every row, so building levels ``0 .. length`` costs O(|Q| + length *
(#transitions + |Q| log |Q|)) at worst, and a radix length in which few states
are live costs their frontier, not |Q| rows. The tables hold O(length * |Q|)
entries; every later access is O(1). With the automaton's layout,
O(|alphabet| + |Q| + #transitions), that is the whole preprocessing.
"""

from __future__ import annotations

from typing import Optional

from .automaton import Nfa, Word, state_mask
from .instrument import ops as _ops


class MinWordTables:
    """Guidance tables of ``nfa`` for lengths ``0 .. length``, grown one level
    at a time.

    The constructor builds level 0 and :meth:`add_level` appends the next
    level, derived from the current top level alone. Existing levels are never
    rewritten, so readers of levels up to ``length`` are unaffected by growth;
    only the owner of the tables appends, and cursors never write.

    A level's live set, the set of states it scans, is the union of the
    predecessors of the level below's live states. Once a level's live set
    equals the one below it, it is a fixed point: every later level has the
    same live set, so the predecessor lists are dropped and later levels
    reuse it. On the bit kernel each level also gets its live set as a mask
    in ``live``; a level whose live set equals the one below it holds the
    same mask object, and building a new mask is charged one unit per live
    state.

    The predecessor lists (None once the live set has settled) and the top
    level's live set are private to the tables and only :meth:`add_level`
    reads them.

    ``fill_ops`` records how many adjacency pairs were inspected and target
    comparisons made while filling ``first_step``; only live states' pairs are
    inspected, so it is bounded by 4 * length * #transitions and exists so
    tests can check that bound.
    """

    __slots__ = (
        "nfa",
        "length",
        "first_step",
        "rank",
        "live",
        "fill_ops",
        "_pred",
        "_frontier",
    )

    def __init__(self, nfa: Nfa):
        """Level 0: final states accept the empty word and share rank 0.

        Also lists, once, each state's predecessors: one entry per transition
        into it. Charged |Q| for the rank row, |Q| + #transitions for the
        predecessor lists, and one unit per final state."""
        n = nfa.state_count
        self.nfa = nfa
        self.length = 0
        # Level 0 has no first steps; the empty placeholder keeps
        # ``first_step[k]`` at index k.
        self.first_step: list[list[Optional[tuple[int, int]]]] = [[]]
        self.rank = [[n] * n]
        self.fill_ops = 0
        for q in nfa.final_states:
            self.rank[0][q] = 0
        pred: list[list[int]] = [[] for _ in range(n)]
        for q, row in enumerate(nfa.adjacency):
            for _, targets in row:
                for t in targets:
                    pred[t].append(q)
        # Dropped, set to None, once the live set has settled.
        self._pred: Optional[list[tuple[int, ...]]] = [tuple(p) for p in pred]
        # The top level's live states.
        self._frontier = frozenset(nfa.final_states)
        self.live: Optional[list[int]] = None
        if nfa.images is not None:
            self.live = [state_mask(nfa.final_states)]
        if _ops.enabled:
            _ops.ops += 2 * n + nfa.transition_count + len(nfa.final_states)
            if self.live is not None:
                _ops.ops += len(nfa.final_states)

    def add_level(self) -> None:
        """Append level ``length + 1``, derived from level ``length`` alone.

        Until the live set settles, the new level's live set is the union of
        the predecessors of the states live at level ``length``: each has a
        transition into a live state and no other state has one. It is
        compared with level ``length``'s live set; when the two are equal the
        live set has settled, since L(k+1) = pred(L(k)) makes every later level
        equal too, and the predecessor lists are dropped. A settled level
        takes level ``length``'s live set, and on the bit kernel its mask
        object, as they are. Each live state's adjacency list is scanned in
        increasing symbol order, within each target tuple the target of least
        top-level rank is selected, and the first symbol whose selected
        target is live wins. The live states are then ranked by the key
        (first symbol, top-level rank of the selected target), which orders
        their least words.

        With m live states the level is charged the pairs and targets
        visited, 2|Q| for its two rows, m for the rank writes and
        m * ceil(log2 m) for the sort. A level that derives its live set is
        also charged one unit per predecessor entry of the previous live
        states and m for the comparison, plus, on the bit kernel, m for a
        new mask when the live set changed.
        """
        n = self.nfa.state_count
        prev_rank = self.rank[-1]
        prev_key = prev_rank.__getitem__
        adjacency = self.nfa.adjacency
        cur_step: list[Optional[tuple[int, int]]] = [None] * n

        below = live = self._frontier
        pred = self._pred
        derived = 0
        if pred is not None:
            candidates = frozenset().union(*map(pred.__getitem__, below))
            if _ops.enabled:
                derived = sum(len(pred[t]) for t in below) + len(candidates)
            if candidates == below:
                self._pred = None
            else:
                live = self._frontier = candidates

        visited = 0
        keys = []
        for q in live:
            for a, targets in adjacency[q]:
                q_min = min(targets, key=prev_key)
                visited += 2 + 2 * len(targets)
                r = prev_rank[q_min]
                if r < n:
                    cur_step[q] = (a, q_min)
                    keys.append((a * n + r, q))
                    break
        self.fill_ops += visited

        cur_rank = [n] * n
        r = -1
        last_key = None
        for key, q in sorted(keys):
            if key != last_key:
                r += 1
                last_key = key
            cur_rank[q] = r
        self.first_step.append(cur_step)
        self.rank.append(cur_rank)
        if self.live is not None:
            self.live.append(self.live[-1] if live is below else state_mask(live))
        self.length += 1
        if _ops.enabled:
            m = len(live)
            _ops.ops += derived + visited + 2 * n + m + m * (m - 1).bit_length()
            if self.live is not None and live is not below:
                _ops.ops += m

    def min_word_from(self, k: int, q: int) -> Optional[Word]:
        """Spell the least length-k word accepted from ``q``, or None when
        ``q``'s level-k rank is the sentinel. A spelled word is charged
        ``k``, one unit per first-step entry read."""
        if self.rank[k][q] == self.nfa.state_count:
            return None
        if _ops.enabled:
            _ops.ops += k
        out = []
        for level in range(k, 0, -1):
            a, q = self.first_step[level][q]
            out.append(a)
        return tuple(out)

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
