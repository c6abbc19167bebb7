"""Mobility decision and cell-choice models."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro.des.rng import RandomStreams

if TYPE_CHECKING:
    import networkx as nx


class MoveKind(enum.Enum):
    """What the host will do at the end of its cell residence."""

    SWITCH = "switch"
    DISCONNECT = "disconnect"


@dataclass(slots=True, frozen=True)
class MobilityDecision:
    """Pre-decision drawn when a host enters a cell (paper Section 5.1)."""

    kind: MoveKind
    #: Residence time in the current cell before the move.
    residence: float
    #: For DISCONNECT: how long the host stays away.
    away_time: float = 0.0


class PaperMobilityModel:
    """The paper's switch-or-disconnect mobility.

    Parameters
    ----------
    residence_means:
        Per-host mean residence time (see
        :func:`repro.mobility.heterogeneity.residence_means`).
    p_switch:
        Probability that the next move is a cell switch (1.0 = the host
        never disconnects).
    disconnect_mean:
        Mean of the exponential disconnection duration (paper: 1000).
    disconnect_residence_divisor:
        The residence before a disconnection is Exp(mean/this); the
        paper uses ``T_switch / 3``.
    """

    def __init__(
        self,
        residence_means: Sequence[float],
        p_switch: float,
        disconnect_mean: float = 1000.0,
        disconnect_residence_divisor: float = 3.0,
    ):
        if not 0.0 <= p_switch <= 1.0:
            raise ValueError(f"p_switch must be in [0, 1], got {p_switch}")
        if disconnect_mean <= 0:
            raise ValueError("disconnect_mean must be positive")
        if disconnect_residence_divisor <= 0:
            raise ValueError("disconnect_residence_divisor must be positive")
        if any(m <= 0 for m in residence_means):
            raise ValueError("all residence means must be positive")
        self.residence_means = list(residence_means)
        self.p_switch = p_switch
        self.disconnect_mean = disconnect_mean
        self.divisor = disconnect_residence_divisor

    def decide(self, host: int, rng: RandomStreams) -> MobilityDecision:
        """Draw the next move for *host* on entering a cell."""
        mean = self.residence_means[host]
        if rng.bernoulli(f"mobility/decide/{host}", self.p_switch):
            return MobilityDecision(
                kind=MoveKind.SWITCH,
                residence=rng.exponential(f"mobility/residence/{host}", mean),
            )
        return MobilityDecision(
            kind=MoveKind.DISCONNECT,
            residence=rng.exponential(
                f"mobility/residence/{host}", mean / self.divisor
            ),
            away_time=rng.exponential(
                f"mobility/away/{host}", self.disconnect_mean
            ),
        )


# ---------------------------------------------------------------------------
# cell choice
# ---------------------------------------------------------------------------


class CellChooser:
    """Strategy interface: pick the next cell on a switch."""

    def next_cell(self, host: int, current: int, rng: RandomStreams) -> int:
        raise NotImplementedError


class UniformCellChooser(CellChooser):
    """Uniform over the other cells (the paper's implicit default)."""

    def __init__(self, n_mss: int):
        if n_mss < 2:
            raise ValueError("uniform switching needs at least 2 cells")
        self.n_mss = n_mss

    def next_cell(self, host: int, current: int, rng: RandomStreams) -> int:
        return rng.choice_other(f"mobility/cell/{host}", self.n_mss, current)


class GraphWalkCellChooser(CellChooser):
    """Random walk on a cell-adjacency graph (geographic mobility).

    Models cells with a physical neighbourhood structure: a host can
    only roam into an adjacent cell.  The default topology is a cycle
    (cells along a road); pass any connected :class:`networkx.Graph`
    whose nodes are ``0..n_mss-1``.  networkx is imported here, not at
    module level, so the paper's uniform model never loads it.
    """

    def __init__(self, n_mss: int, graph: Optional[nx.Graph] = None):
        import networkx as nx

        if graph is None:
            graph = nx.cycle_graph(n_mss)
        if set(graph.nodes) != set(range(n_mss)):
            raise ValueError("graph nodes must be exactly 0..n_mss-1")
        if not nx.is_connected(graph):
            raise ValueError("cell-adjacency graph must be connected")
        if any(graph.degree(n) == 0 for n in graph.nodes):
            raise ValueError("every cell needs at least one neighbour")
        self.graph = graph
        self._neighbours = {n: sorted(graph.neighbors(n)) for n in graph.nodes}

    def next_cell(self, host: int, current: int, rng: RandomStreams) -> int:
        options = self._neighbours[current]
        k = int(rng.stream(f"mobility/cell/{host}").integers(0, len(options)))
        return options[k]


class MarkovCellChooser(CellChooser):
    """First-order Markov mobility with an explicit transition matrix.

    ``matrix[i][j]`` is the probability of moving to cell *j* when
    switching out of cell *i*; the diagonal must be zero (a switch
    always changes cells).
    """

    def __init__(self, matrix: Sequence[Sequence[float]]):
        P = np.asarray(matrix, dtype=float)
        if P.ndim != 2 or P.shape[0] != P.shape[1]:
            raise ValueError("transition matrix must be square")
        if np.any(np.diagonal(P) != 0.0):
            raise ValueError("diagonal must be zero: a switch changes cells")
        if np.any(P < 0) or not np.allclose(P.sum(axis=1), 1.0):
            raise ValueError("rows must be probability distributions")
        self.P = P

    def next_cell(self, host: int, current: int, rng: RandomStreams) -> int:
        row = self.P[current]
        u = rng.uniform(f"mobility/cell/{host}")
        return int(np.searchsorted(np.cumsum(row), u, side="right"))


def make_cell_chooser(
    name: str, n_mss: int, graph: Optional[nx.Graph] = None
) -> CellChooser:
    """Factory for the choosers by config name."""
    if name == "uniform":
        return UniformCellChooser(n_mss)
    if name == "graph":
        return GraphWalkCellChooser(n_mss, graph)
    raise ValueError(f"unknown cell chooser {name!r} (use 'uniform' or 'graph')")
