"""Discrete-event simulation substrate.

* :class:`~repro.des.core.Environment` -- the simulation clock and a
  heap of ``(time, seq, fn)`` callbacks.  The workload driver, the
  channels and the host inboxes schedule all their work with
  ``call_later``.
* :class:`~repro.des.rng.RandomStreams` -- reproducible named random
  substreams built on :class:`numpy.random.SeedSequence`.

Determinism contract: callbacks due at the same simulation time run in
the order they were scheduled, so a seeded simulation replays
identically across runs and platforms.
"""

from repro.des.core import Environment
from repro.des.rng import RandomStreams

__all__ = ["Environment", "RandomStreams"]
