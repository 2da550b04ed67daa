"""Precomputed guidance tables for minimal-word reconstruction.

For every length ``k <= length`` and state ``q`` the tables answer two
questions in O(1):

* ``first_step[k][q]`` is the first transition of the least length-k word
  accepted starting from ``q``: a ``(symbol_id, next_state)`` pair, or
  :data:`EMPTY_WORD` when ``k == 0`` and ``q`` is final, or ``None`` when no
  length-k word is accepted from ``q``.
* ``rank[k][q]`` is the dense rank of that least word among the least
  length-k words of all states that accept one: states spelling the same
  word share a rank, and the ranks in use are ``0 .. m-1``. States accepting
  no length-k word get the sentinel ``state_count``, above every live rank.
  So ``q``'s word is lexicographically <= ``q'``'s iff
  ``rank[k][q] <= rank[k][q']``.

Level k is derived from level k-1 alone, so building the tables costs
O(|alphabet| * |Q| + length * (#transitions + |Q| log |Q|)) and they hold
O(length * |Q|) entries; every later access is O(1).
"""

from __future__ import annotations

from typing import Optional, Union

from .automaton import Nfa, Word
from .instrument import ops as _ops

# Level-0 entry of final states: the empty word is accepted. Distinct from
# None, which means "no word of this length".
EMPTY_WORD: Word = ()

Entry = Union[None, tuple[int, int], Word]


class MinWordTables:
    """Read-only tables driving the enumeration phase.

    ``fill_ops`` records how many adjacency pairs were inspected and target
    comparisons made while filling ``first_step``; it is bounded by
    4 * length * #transitions and exists so tests can check that bound.
    """

    __slots__ = ("length", "state_count", "first_step", "rank", "fill_ops")

    def __init__(
        self,
        length: int,
        state_count: int,
        first_step: list[list[Entry]],
        rank: list[list[int]],
        fill_ops: int,
    ):
        self.length = length
        self.state_count = state_count
        self.first_step = first_step
        self.rank = rank
        self.fill_ops = fill_ops

    def min_word_from(self, k: int, q: int) -> Optional[Word]:
        """Spell the least length-k word accepted from ``q``, or None."""
        if self.first_step[k][q] is None:
            return None
        out = []
        for level in range(k, 0, -1):
            a, q = self.first_step[level][q]
            out.append(a)
        return tuple(out)

    def __repr__(self) -> str:
        return f"MinWordTables(length={self.length}, states={self.state_count})"


def precompute(nfa: Nfa, length: int) -> MinWordTables:
    """Build the tables for all word lengths ``0 .. length``.

    Level 0 gives final states the empty word and rank 0. Level k derives
    each state's entry from level k-1: its adjacency list is scanned in
    increasing symbol order, within each target tuple the target of least
    level-(k-1) rank is selected, and the first symbol whose selected target
    is live wins. The live states are then ranked by the key (first symbol,
    level-(k-1) rank of the selected target), which orders their least words.
    """
    if length < 0:
        raise ValueError(f"length must be non-negative, got {length}")
    n = nfa.state_count
    counting = _ops.enabled

    first_step: list[list[Entry]] = [[None] * n for _ in range(length + 1)]
    rank0 = [n] * n
    for q in nfa.final_states:
        first_step[0][q] = EMPTY_WORD
        rank0[q] = 0
    rank = [rank0]
    if counting:
        _ops.ops += (length + 1) * n + n + 2 * len(nfa.final_states)

    adjacency = nfa.adjacency
    fill_ops = 0
    for k in range(1, length + 1):
        prev_rank = rank[k - 1]
        prev_key = prev_rank.__getitem__
        cur_step = first_step[k]

        visited = 0
        live = []
        for q in range(n):
            for a, targets in adjacency[q]:
                q_min = min(targets, key=prev_key)
                visited += 2 + 2 * len(targets)
                r = prev_rank[q_min]
                if r < n:
                    cur_step[q] = (a, q_min)
                    live.append((a * n + r, q))
                    break
        fill_ops += visited

        cur_rank = [n] * n
        r = -1
        last_key = None
        for key, q in sorted(live):
            if key != last_key:
                r += 1
                last_key = key
            cur_rank[q] = r
        rank.append(cur_rank)
        if counting:
            m = len(live)
            _ops.ops += visited + n + m + m * (m - 1).bit_length()

    return MinWordTables(length, n, first_step, rank, fill_ops)
