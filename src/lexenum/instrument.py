"""Process-global operation counter for verifying the enumerator's cost model.

One unit is charged per transition inspected, per state-set insertion, per
table cell read or written, and per word-order comparison. On the bit
kernel, where a state set is an int mask, a mask costs one unit per byte
scanned and ``ceil(|Q|/64)``, its machine words, per lookup, OR or AND.
Each function that charges states its charge in its own docstring: the
layout's :func:`~lexenum.automaton.build_nfa` and
:func:`~lexenum.automaton.chunk_images`; the tables'
:class:`~lexenum.tables.MinWordTables` and
:meth:`~lexenum.tables.MinWordTables.add_level`; the kernels' subset steps,
:func:`~lexenum.automaton.delta_step` and
:func:`~lexenum.automaton.mask_image`, which every stepped letter goes
through, and :func:`~lexenum.enumeration.build_run_stack`, one unit per
state tested when it trims a list-kernel cursor's run; the letter choices
of the successor search :func:`~lexenum.enumeration.next_word`, which also
builds the least words of :func:`~lexenum.enumeration.min_word`, the list
kernel's walks in :func:`~lexenum.enumeration._least_letter` and one AND
per symbol tried on the bit kernel, plus ``min_word``'s test for the empty
word; and :func:`~lexenum.enumeration.radix_cursors` for a radix run's
liveness checks, the reachable-state pass and ``min(|reachable|, |live|)``
per length.

The core modules funnel every increment through the single ``ops`` object
below, and :func:`counting` turns it on for a block. Blocks nest: what an
inner block counts also reaches the enclosing count. When counting is off
(the default) they pay only tests of ``ops.enabled``, or of a function's
local copy of it, and their observable behaviour is identical either way.
"""

from __future__ import annotations

from contextlib import contextmanager


class OpCounter:
    __slots__ = ("enabled", "ops")

    def __init__(self):
        self.enabled = False
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
    ops.ops = 0
    try:
        yield ops
    finally:
        ops.ops = prev_ops + ops.ops if prev_enabled else prev_ops
        ops.enabled = prev_enabled
