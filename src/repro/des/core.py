"""Simulation clock and event loop.

The :class:`Environment` keeps a binary heap of ``(time, seq, fn)``
callbacks.  ``seq`` grows with every :meth:`~Environment.call_later`,
so callbacks due at the same time run in the order they were
scheduled.  That total order is what makes seeded runs
bit-reproducible.
"""

from __future__ import annotations

import heapq
from typing import Callable, Optional


class Environment:
    """A discrete-event simulation clock with a callback agenda.

    Examples
    --------
    >>> env = Environment()
    >>> fired = []
    >>> env.call_later(5.0, lambda: fired.append(env.now))
    >>> env.run()
    >>> fired
    [5.0]
    """

    __slots__ = ("now", "_queue", "_seq")

    def __init__(self, initial_time: float = 0.0):
        #: Current simulation time.
        self.now: float = float(initial_time)
        self._queue: list[tuple[float, int, Callable[[], object]]] = []
        self._seq = 0

    def call_later(self, delay: float, fn: Callable[[], object]) -> None:
        """Run ``fn()`` *delay* time units from now (after every callback
        already due at that time)."""
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        self._seq += 1
        heapq.heappush(self._queue, (self.now + delay, self._seq, fn))

    def run(self, until: Optional[float] = None) -> None:
        """Run callbacks until the agenda empties, or until the next one
        is due after *until*; the clock then reads exactly *until*.

        An exception raised by a callback propagates out of ``run``.
        """
        limit = float("inf") if until is None else float(until)
        if limit < self.now:
            raise ValueError(f"until={limit} is in the past (now={self.now})")
        queue = self._queue
        pop = heapq.heappop
        while queue and queue[0][0] <= limit:
            self.now, _, fn = pop(queue)
            fn()
        if until is not None:
            self.now = limit
