"""The benchmark's named workloads.

Each workload is a plan of whole sweeps over a paper-figure grid.  The
plan is made from the workload seed and the run length alone, so the
same ``(seed, seconds)`` always gives the same inputs; the program only
ever sees the sweep configurations built from it.

A *cell* is one ``(T_switch, seed)`` pair with all of its protocols
(on ``replay-zoo``: one trace replayed by the whole zoo).  A *pass* is
one ``run_sweep`` over the plan's grid; the timed phase runs
``passes`` of them back to back.  This module imports nothing from the
program, so the orchestrator can plan a run without paying for it.
"""

from __future__ import annotations

from dataclasses import dataclass

#: The x-axis of every paper figure (mirrors the program's sweep).
T_SWITCH = (100.0, 200.0, 500.0, 1000.0, 2000.0, 5000.0, 10000.0)

#: The paper's three protocols.
PAPER = ("TP", "BCS", "QBC")

#: Every replayable protocol the program ships.
ZOO = ("TP", "BCS", "QBC", "BCS-NS", "QBC-NS", "UNC", "FDAS", "BQF")

WORKLOADS = ("cold-figure", "warm-figure", "replay-zoo")


@dataclass(frozen=True)
class Plan:
    """What one run of a workload executes."""

    name: str
    figure: int
    sim_time: float
    seeds: tuple[int, ...]
    passes: int
    protocols: tuple[str, ...]
    engine: str
    #: Fill a disk cache with the grid before the run (untimed).
    prep: bool
    #: Run one untimed pass first, counted as set-up.
    prime: bool
    #: Empty the in-memory trace tier before each timed pass.
    clear_memory: bool
    #: Check the figure claims (see ``child.claims``).
    claims: bool
    #: The grid's x-axis.
    t_switch: tuple[float, ...] = T_SWITCH

    @property
    def cells_per_pass(self) -> int:
        return len(self.t_switch) * len(self.seeds)

    @property
    def grid(self) -> list[tuple[float, int]]:
        """Every ``(T_switch, seed)`` cell, point-major."""
        return [(t, s) for t in self.t_switch for s in self.seeds]

    @property
    def cells(self) -> int:
        """Cells in the timed phase."""
        return self.passes * self.cells_per_pass


def _scaled(seconds: int, per_unit_s: float) -> int:
    """How many units of ``per_unit_s`` fill ``seconds`` (at least 1)."""
    return max(1, round(seconds / per_unit_s))


def plan(name: str, seed: int, seconds: int) -> Plan:
    """The plan of workload *name* for workload seed *seed*.

    The unit sizes below were chosen so that the timed phase lasts
    about *seconds* on a 2-core x86-64 host; they fix the work, never
    adapt to the speed of the program under test.
    """
    if seconds < 1 or seed < 0:
        raise ValueError("seconds must be >= 1 and seed >= 0")
    base = 1000 * seed
    if name == "cold-figure":
        # Fig. 6 (P_switch 0.8, H 30%): every driver path runs.  More
        # seeds, never repeated passes: a pass must not hit its own
        # cache entries.
        n = _scaled(seconds, 2.0)
        return Plan(
            name, 6, 2000.0, tuple(range(base, base + n)), 1, PAPER,
            "fused", prep=False, prime=False, clear_memory=False,
            claims=True,
        )
    if name == "warm-figure":
        # Fig. 1 (largest traces per horizon) served from disk: the
        # memory tier is emptied before every pass.  Four seeds keep
        # the grid's size steady from one workload seed to the next.
        return Plan(
            name, 1, 2500.0, tuple(range(base, base + 4)),
            _scaled(seconds, 3.5), PAPER, "fused", prep=True, prime=False,
            clear_memory=True, claims=True,
        )
    if name == "replay-zoo":
        # Fig. 4, every other point x 4 seeds = 16 cells: fits the
        # memory tier, so after the priming pass every timed pass
        # replays memoized traces.  Four seeds rather than seven points
        # keep the grid's size steadier from one workload seed to the
        # next (disconnections make single traces vary widely).
        return Plan(
            name, 4, 2000.0, tuple(range(base, base + 4)),
            _scaled(seconds, 0.3), ZOO, "auto", prep=True, prime=True,
            clear_memory=False, claims=False,
            t_switch=T_SWITCH[::2],
        )
    raise ValueError(
        f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}"
    )
