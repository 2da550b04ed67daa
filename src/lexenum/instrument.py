"""Process-global operation counter for verifying the enumerator's cost model.

One unit is charged per transition inspected, per state-set insertion, per
table cell read or written, per word-order comparison, and per state whose
adjacency list the successor search scans at a retried position. The core
modules funnel every increment through the single ``ops`` object below; when
counting is disabled (the default) they pay one branch per loop, nothing
more, and their observable behaviour is identical either way.
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

    def take(self) -> int:
        """Return the current tally and reset it to zero."""
        n = self.ops
        self.ops = 0
        return n


ops = OpCounter()


@contextmanager
def counting(enabled: bool = True):
    """Temporarily switch counting on (or off), restoring the previous state.

    Yields the global counter, reset to zero on entry.
    """
    prev_enabled = ops.enabled
    prev_ops = ops.ops
    ops.enabled = enabled
    ops.reset()
    try:
        yield ops
    finally:
        ops.enabled = prev_enabled
        ops.ops = prev_ops
