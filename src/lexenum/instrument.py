"""Process-global operation counter for verifying the enumerator's cost model.

One unit is charged per transition inspected, per state-set insertion, per
table cell read or written, and per word-order comparison. On the list
kernel a replay position charges one unit per state of its source set and
one per target it visits, and a replay is charged once per call, after its
loop, for all its positions; on the bit kernel each image is charged as it
is taken. Wherever a least length-k word
is spelled, for the cursor's first word or a successor's suffix, the charge
is ``|states| + k``: one unit per state the least-rank state is picked
from, and one per letter spelled; a miss, no state live, is charged
``|states|``. The list kernel's successor search
charges, at each retried position, one unit per state whose adjacency list
it walks and 1 plus the target count per adjacency pair it examines. Each
state walks from the first symbol above the retried letter to its own first
live pair, so the charge depends on the set and not on the order in which it
is iterated; the suffix is spelled from one target. On the bit kernel, where
a state set is an int mask of ``ceil(|Q|/8)`` bytes, taking an image charges
one unit per byte scanned plus ``ceil(|Q|/64)``, the machine words of a
mask, per lookup or OR: two lookups and two ORs per non-zero byte. A replay
position takes one image. The successor search charges, per symbol it
tries, one image plus ``ceil(|Q|/64)`` for intersecting it with the level's
live mask. On the hit it binary-searches the level's prefix rank masks,
one per live rank, for the least rank the image meets, and charges
``ceil(|Q|/64)`` per probe, at most ``ceil(log2 #ranks)`` of them; the
suffix is then spelled from one state, for ``1 + k``.

Laying out an automaton charges one unit per raw transition bucketed, per
symbol, per state and per distinct transition frozen into a row: ``raw +
|alphabet| + |Q| + #transitions`` in all. Finding a symbol in a row by
binary search is not charged. On the bit kernel the layout also charges, for
the chunk image tables, one unit per transition plus ``ceil(|Q|/64)`` per
table entry. There each table level built before the tables settle, level 0
included, also charges its prefix rank masks: one unit per live state, for
its bit in its rank's mask, plus ``ceil(|Q|/64)`` per prefix OR, one per
live rank.

The tables charge, with level 0, ``|Q|`` for its rank row, one unit per
final state, and ``|Q| + #transitions`` for the lists of each state's
predecessors. Until the tables settle, each later level charges one unit per
predecessor entry of the previous level's live states, from which it takes
its live set, ``2 + 2 * |targets|`` per adjacency pair its live states visit,
``2 * |Q|`` for its two rows, ``|Q|`` for comparing its rank row with the
previous level's, one unit per live state for its rank write, and ``m *
ceil(log2 m)`` for ranking its ``m`` live states. Once two consecutive rank
rows are equal the tables have settled: every later level is the top level,
appended as it is for one unit.

A radix run charges, once, ``|Q|`` plus one unit per adjacency pair
and per target it visits while it collects the states reachable from the
initial set; at each length it charges one unit per reachable state whose
liveness it checks.

The core modules funnel every increment through the single ``ops`` object
below. When counting is disabled (the default) they pay only tests of
``ops.enabled``, or of a search's local copy of it, and their observable
behaviour is identical either way. A cursor's call makes, besides its
replay's, at most three: one on entering the search, one on the bit search's
hit, and one in spelling the word, which ``min_word`` does. The replay makes
one on the list kernel and one per position on the bit kernel, where each
image is a :func:`~lexenum.automaton.mask_image` step that charges itself.
On top of those come one per position the list search retries and two per
symbol the bit search tries, one in the symbol's image step and one for its
intersection's charge. The
tables make one per level built; a radix run makes one at its start and one
per length.
:func:`counting` blocks nest; what an inner block counts also reaches the
enclosing count.
"""

from __future__ import annotations

from contextlib import contextmanager


class OpCounter:
    __slots__ = ("enabled", "ops")

    def __init__(self):
        self.enabled = False
        self.ops = 0

    def reset(self) -> None:
        self.ops = 0


ops = OpCounter()


@contextmanager
def counting(enabled: bool = True):
    """Count inside the block, restoring the previous state on exit.

    Yields the global counter, reset to zero on entry. Blocks nest: on exit
    the block's count, as it stands then, is added to the enclosing count
    when that count is enabled, and otherwise the previous tally comes back
    unchanged. With ``enabled`` false the block leaves the counter as it
    finds it, so code that counts only on request keeps one path and never
    switches off a count around it.
    """
    if not enabled:
        yield ops
        return
    prev_enabled = ops.enabled
    prev_ops = ops.ops
    ops.enabled = True
    ops.reset()
    try:
        yield ops
    finally:
        ops.ops = prev_ops + ops.ops if prev_enabled else prev_ops
        ops.enabled = prev_enabled
