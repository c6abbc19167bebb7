"""Reproducible named random substreams.

Every stochastic component of the simulator (per-host internal-event
timers, mobility, message destinations, ...) draws from its own
:class:`numpy.random.Generator`, derived from one root seed via
``SeedSequence.spawn``-style keyed derivation.  Two properties follow:

* a run is fully determined by ``(seed, configuration)``;
* adding a new consumer stream does not perturb existing streams
  (unlike sharing one generator), which keeps paper-figure sweeps
  comparable across library versions.
"""

from __future__ import annotations

import zlib
from typing import Iterator, Sequence

import numpy as np

# numpy loads its random package on first attribute access; load it
# with this module, so the first trace generated does not pay for it
# (extension modules, plus the hmac/secrets imports it pulls in).
import numpy.random  # noqa: F401


def _key_to_int(key: str) -> int:
    """Stable 32-bit hash of a stream name (crc32; Python's ``hash`` is
    salted per-process and would break reproducibility)."""
    return zlib.crc32(key.encode("utf-8"))


class RandomStreams:
    """A family of named, independent random generators.

    Parameters
    ----------
    seed:
        Root seed for the whole family.

    Examples
    --------
    >>> rs = RandomStreams(42)
    >>> a = rs.stream("mobility/h0")
    >>> b = rs.stream("mobility/h1")
    >>> a is rs.stream("mobility/h0")   # cached per name
    True
    >>> float(a.exponential(1.0)) != float(b.exponential(1.0))
    True
    """

    #: Draws buffered per stream; per-call numpy overhead dominates the
    #: simulator's RNG cost otherwise (profiling, see DESIGN.md).
    BATCH = 512

    def __init__(self, seed: int):
        if not isinstance(seed, (int, np.integer)):
            raise TypeError(f"seed must be an int, got {seed!r}")
        self.seed = int(seed)
        self._streams: dict[str, np.random.Generator] = {}
        self._exp_buf: dict[str, tuple[np.ndarray, int]] = {}
        self._unit_buf: dict[str, tuple[np.ndarray, int]] = {}
        self._int_buf: dict[tuple[str, int], tuple[np.ndarray, int]] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return (and memoise) the generator for *name*."""
        gen = self._streams.get(name)
        if gen is None:
            ss = np.random.SeedSequence(
                entropy=self.seed, spawn_key=(_key_to_int(name),)
            )
            gen = np.random.default_rng(ss)
            self._streams[name] = gen
        return gen

    # -- convenience draws -------------------------------------------------
    # Draws are buffered (BATCH at a time) per stream name; the value
    # sequence per name is still fully determined by (seed, name, call
    # order), so runs stay reproducible.

    def _next_unit_exponential(self, name: str) -> float:
        buf = self._exp_buf.get(name)
        if buf is None or buf[1] >= self.BATCH:
            buf = (self.stream(name).exponential(1.0, self.BATCH), 0)
        value = buf[0][buf[1]]
        self._exp_buf[name] = (buf[0], buf[1] + 1)
        return float(value)

    def _next_unit_uniform(self, name: str) -> float:
        buf = self._unit_buf.get(name)
        if buf is None or buf[1] >= self.BATCH:
            buf = (self.stream(name).random(self.BATCH), 0)
        value = buf[0][buf[1]]
        self._unit_buf[name] = (buf[0], buf[1] + 1)
        return float(value)

    def exponential(self, name: str, mean: float) -> float:
        """One draw from Exp(mean) on stream *name*."""
        if mean <= 0:
            raise ValueError(f"exponential mean must be positive, got {mean}")
        return self._next_unit_exponential(name) * mean

    def uniform(self, name: str, low: float = 0.0, high: float = 1.0) -> float:
        """One draw from U[low, high) on stream *name*."""
        return low + (high - low) * self._next_unit_uniform(name)

    def bernoulli(self, name: str, p: float) -> bool:
        """One biased coin flip with success probability *p*."""
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {p}")
        return self._next_unit_uniform(name) < p

    def choice_other(self, name: str, n: int, exclude: int) -> int:
        """Uniform draw from ``{0..n-1} - {exclude}``.

        Used for "destination of each message is a uniformly distributed
        random variable" over the *other* hosts, and for cell switches to
        a *different* cell.
        """
        if n < 2:
            raise ValueError(f"need at least 2 alternatives, got n={n}")
        if not 0 <= exclude < n:
            raise ValueError(f"exclude={exclude} out of range for n={n}")
        k = self.choice_index(name, n - 1)
        return k if k < exclude else k + 1

    def choice_index(self, name: str, k: int) -> int:
        """Uniform draw from ``{0..k-1}`` on stream *name*."""
        if k < 1:
            raise ValueError(f"need at least 1 alternative, got k={k}")
        key = (name, k)
        buf = self._int_buf.get(key)
        if buf is None or buf[1] >= self.BATCH:
            buf = (self.stream(name).integers(0, k, self.BATCH), 0)
        value = int(buf[0][buf[1]])
        self._int_buf[key] = (buf[0], buf[1] + 1)
        return value

    # -- bulk draws -------------------------------------------------------
    # The next *n* values the scalar draws above would return, from the
    # same buffers: a bulk take followed by scalar draws (or the other
    # way round) sees one value sequence per stream.  Refills stay
    # BATCH-sized calls, so the generator is advanced exactly as the
    # scalar path advances it.

    def _take(self, bufs: dict, key, n: int, refill) -> np.ndarray:
        buf = bufs.get(key)
        if buf is None or buf[1] >= self.BATCH:
            chunks, last, avail = [], None, 0
        else:
            last = buf[0]
            chunks = [last[buf[1]:]]
            avail = self.BATCH - buf[1]
        while avail < n:
            last = refill()
            chunks.append(last)
            avail += self.BATCH
        if last is not None:
            bufs[key] = (last, self.BATCH - (avail - n))
        if not chunks:
            return np.empty(0)
        return np.concatenate(chunks)[:n]

    def take_exponential(self, name: str, n: int) -> np.ndarray:
        """The next *n* unit-mean exponential draws on stream *name*
        (what *n* ``exponential(name, 1.0)`` calls would return)."""
        return self._take(
            self._exp_buf, name, n,
            lambda: self.stream(name).exponential(1.0, self.BATCH),
        )

    def take_uniform(self, name: str, n: int) -> np.ndarray:
        """The next *n* U[0, 1) draws on stream *name* (what *n*
        ``uniform(name)`` calls would return)."""
        return self._take(
            self._unit_buf, name, n, lambda: self.stream(name).random(self.BATCH)
        )

    def take_choice_indices(self, name: str, bounds) -> np.ndarray:
        """What ``[choice_index(name, k) for k in bounds]`` returns.

        Every bound keeps its own buffer, but all of them refill from
        the one generator of *name*, so the refills are replayed in the
        order the scalar calls would trigger them.
        """
        bounds = np.asarray(bounds, dtype=np.int64)
        out = np.empty(len(bounds), dtype=np.int64)
        if not len(bounds):
            return out
        lo, hi = int(bounds.min()), int(bounds.max())
        if lo < 1:
            raise ValueError(f"need at least 1 alternative, got k={lo}")
        if lo == hi:  # one buffer: its refills are the generator's calls
            return self._take(
                self._int_buf, (name, lo), len(bounds),
                lambda: self.stream(name).integers(0, lo, self.BATCH),
            )
        gen = self.stream(name)
        # Positions grouped by bound, each group in call order.
        order = np.argsort(bounds, kind="stable")
        counts = np.bincount(bounds)
        ks = np.flatnonzero(counts).tolist()
        groups = np.split(order, np.cumsum(counts[ks])[:-1])
        # The draws that find their bound's buffer empty refill it; the
        # generator serves those refills in call order across bounds.
        refills = []
        for k, pos in zip(ks, groups):
            buf = self._int_buf.get((name, k))
            left = 0 if buf is None else self.BATCH - buf[1]
            refills.extend((p, k) for p in pos[left::self.BATCH].tolist())
        drawn: dict[int, list] = {k: [] for k in ks}
        for _, k in sorted(refills):
            drawn[k].append(gen.integers(0, k, self.BATCH))
        out[order] = np.concatenate([
            self._take(self._int_buf, (name, k), len(pos), iter(drawn[k]).__next__)
            for k, pos in zip(ks, groups)
        ])
        return out

    def spawn_seeds(self, name: str, count: int) -> list[int]:
        """Derive *count* child seeds (for multi-run sweeps / workers)."""
        gen = self.stream(f"__spawn__/{name}")
        return [int(s) for s in gen.integers(0, 2**63 - 1, size=count)]


def seed_sequence(root_seed: int, count: int) -> Iterator[int]:
    """Yield *count* independent run seeds derived from *root_seed*."""
    yield from RandomStreams(root_seed).spawn_seeds("runs", count)


def check_distinct(streams: RandomStreams, names: Sequence[str]) -> bool:
    """Diagnostic: True when the named streams have distinct states."""
    states = set()
    for name in names:
        gen = streams.stream(name)
        states.add(bytes(str(gen.bit_generator.state), "utf-8"))
    return len(states) == len(names)
