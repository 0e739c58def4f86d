"""Immutable data model for a slot-based entanglement-distribution network.

Nodes, links and applications use dense non-negative integer ids so hot
paths can index plain dicts and iteration order stays deterministic.
Fidelities are Werner-state fidelities: swap composition is closed on
[0.25, 1], and values below the fully-mixed floor are rejected at
validation time rather than clamped.

The fields of Node, QuantumLink, Application and SimConfig are the scenario
file's keys, with their types and defaults, so renaming a field renames a
key; only SimConfig.warmup_slots names its key, ``warmup``, in metadata.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from decimal import Decimal
from enum import Enum
from typing import Iterable, Mapping, Optional

NodeId = int
EdgeId = int
AppId = int

WERNER_FLOOR = 0.25
DEFAULT_EXHAUSTIVE_LIMIT = 1_000_000


def shown(value: object) -> str:
    """How a diagnostic echoes a value, so that no input makes a long line:
    an int of more than 20 digits by its digit count (``str`` stops at 4300
    digits; a caller may pass more), any other value by its ``repr`` if that
    has at most 40 characters, and by the length of the ``repr`` otherwise."""
    if isinstance(value, int) and not -(10**20) < value < 10**20:
        article = "a negative" if value < 0 else "an"
        return f"{article} integer of {Decimal(value).adjusted() + 1} digits"
    text = repr(value)
    return text if len(text) <= 40 else f"a value of {len(text)} characters"


class NodeKind(Enum):
    REPEATER = "repeater"
    COMPUTATION = "computation"


class Policy(Enum):
    FCFS = "FCFS"
    RR = "RR"
    WRR = "WRR"
    DRR = "DRR"


class Traffic(Enum):
    BACKLOGGED = "backlogged"
    POISSON = "poisson"


class CapacityMode(Enum):
    DETERMINISTIC = "deterministic"
    STOCHASTIC = "stochastic"


class CostMode(Enum):
    UNIT = "unit"
    HOPS = "hops"


class AssignmentSource(Enum):
    GIVEN = "given"
    GREEDY = "greedy"
    RANDOM = "random"
    EXHAUSTIVE = "exhaustive"


@dataclass(frozen=True)
class Node:
    id: NodeId
    kind: NodeKind
    # success probability of an entanglement swap performed at this node
    # when it sits between two other nodes on a path
    swap_success_prob: float = 1.0


@dataclass(frozen=True)
class QuantumLink:
    id: EdgeId
    endpoints: tuple[NodeId, NodeId]
    capacity_max: int  # EPR pairs attemptable per slot
    gen_success_prob: float = 1.0
    fidelity: float = 1.0

    @property
    def effective_capacity(self) -> float:
        """Expected pairs generated per slot."""
        return self.capacity_max * self.gen_success_prob


@dataclass(frozen=True)
class Application:
    id: AppId
    host: NodeId
    weight: float
    workers_needed: int
    candidates: frozenset[NodeId]
    min_fidelity: float = WERNER_FLOOR
    arrival_rate: float = 0.0  # requests per slot, Poisson traffic only

    @property
    def flow_weight(self) -> float:
        """Each pool flow's weight: a pool's flows sum to the app's weight, whatever its size."""
        return self.weight / self.workers_needed


@dataclass(frozen=True)
class Flow:
    """A host-to-worker route plus the derived entanglement metrics: a
    graph fact, shared by every app with that host; DRR's grant cost is
    ``scheduling.flow_cost``'s. One grant to a flow consumes one EPR pair
    on every edge of its path within the same slot, then succeeds end to
    end with ``swap_prob``.
    """

    path: tuple[NodeId, ...]  # host first, worker last
    edges: tuple[EdgeId, ...]
    swap_prob: float
    e2e_fidelity: float

    @property
    def worker(self) -> NodeId:
        return self.path[-1]


class NetworkGraph:
    """Undirected topology of repeater and computation nodes.

    At most one link per node pair (validation rejects duplicates, since
    paths are plain node sequences). The constructor is permissive about
    dangling references; ``validate_scenario`` reports them.
    """

    def __init__(self, nodes: Iterable[Node], links: Iterable[QuantumLink]):
        self.nodes: tuple[Node, ...] = tuple(nodes)
        self.links: tuple[QuantumLink, ...] = tuple(links)
        # routing reads these three dicts directly on its hot paths
        self._nodes = {n.id: n for n in self.nodes}
        self._links = {l.id: l for l in self.links}
        adj: dict[NodeId, list[tuple[NodeId, EdgeId]]] = {n.id: [] for n in self.nodes}
        for link in self.links:
            u, v = link.endpoints
            adj.setdefault(u, []).append((v, link.id))
            adj.setdefault(v, []).append((u, link.id))
        self._adj = {u: tuple(sorted(nbrs)) for u, nbrs in adj.items()}
        # routing's memo: src -> dst -> Flow, None if unreachable
        self.routes: dict[NodeId, dict[NodeId, Optional[Flow]]] = {}

    def node(self, node_id: NodeId) -> Node:
        return self._nodes[node_id]

    def has_node(self, node_id: NodeId) -> bool:
        return node_id in self._nodes

    def neighbors(self, node_id: NodeId) -> tuple[tuple[NodeId, EdgeId], ...]:
        """Adjacent (node, edge) pairs in ascending neighbor-id order."""
        return self._adj.get(node_id, ())

    def effective_capacities(self) -> dict[EdgeId, float]:
        return {l.id: l.effective_capacity for l in self.links}


# per-application chosen worker pools
Assignment = dict[AppId, frozenset[NodeId]]


@dataclass(frozen=True)
class SimConfig:
    slots: int
    seed: int
    policy: Policy
    warmup_slots: int = field(default=0, metadata={"key": "warmup"})
    traffic: Traffic = Traffic.BACKLOGGED
    capacity_mode: CapacityMode = CapacityMode.STOCHASTIC
    cost_mode: CostMode = CostMode.UNIT
    quantum_base: int = 1
    assignment: AssignmentSource = AssignmentSource.GREEDY
    exhaustive_limit: int = DEFAULT_EXHAUSTIVE_LIMIT
    replications: int = 1


@dataclass(frozen=True)
class Scenario:
    """A validated scenario; all invariants hold and cross-references resolve."""

    graph: NetworkGraph
    apps: tuple[Application, ...]
    config: SimConfig
    given_assignment: Optional[Mapping[AppId, frozenset[NodeId]]] = None
