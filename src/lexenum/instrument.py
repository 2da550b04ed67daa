"""Process-global operation counter for verifying the enumerator's cost model.

One unit is charged per transition inspected, per state-set insertion, per
table cell read or written, and per word-order comparison. On the list
kernel the successor search charges, at each retried position, one unit per
state whose adjacency list it walks, 1 plus the target count per adjacency
pair it examines, and one per letter of the suffix it spells. On the bit
kernel, where a state set is an int mask of ``ceil(|Q|/8)`` bytes, taking an
image charges one unit per byte scanned plus ``ceil(|Q|/64)``, the machine
words of a mask, per lookup or OR: two lookups and two ORs per non-zero
byte. A replay position takes one image. The successor search charges, per
symbol it tries, one image plus ``ceil(|Q|/64)`` for intersecting it with
the level's live mask; on the hit, one unit per byte of the mask and per
member decoded, and one per letter of the suffix. Laying out an automaton
charges one unit per raw transition bucketed, per symbol, per state and per
distinct transition frozen into a row: ``raw + |alphabet| + |Q| +
#transitions`` in all. Finding a symbol in a row by binary search is not
charged. On the bit kernel the layout also charges, for the chunk image
tables, one unit per transition plus ``ceil(|Q|/64)`` per table entry, and
each table level charges one unit per state in its live mask. The radix run
charges one unit per reachable state whose liveness it checks at each
length. The core modules funnel every
increment through the single ``ops`` object below; when counting is disabled (the default) they pay one branch per
loop, nothing more, and their observable behaviour is identical either way.
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
