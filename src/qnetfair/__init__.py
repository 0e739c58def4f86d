"""Slot-based simulator and solvers for fair sharing of entanglement
in a quantum repeater network serving distributed quantum computing."""

from .model import (
    Application,
    Assignment,
    AssignmentSource,
    CapacityMode,
    CostMode,
    Flow,
    NetworkGraph,
    Node,
    NodeKind,
    Policy,
    QuantumLink,
    Scenario,
    SimConfig,
    Traffic,
    WERNER_FLOOR,
)
from .routing import (
    EmptyEligibleSet,
    NoPath,
    build_flows,
    edges_fidelity,
    host_flows,
    path_swap_prob,
)
from .fairshare import (
    AppRatePrediction,
    SearchSpaceTooLarge,
    assign_exhaustive,
    assign_greedy,
    assign_random,
    jain_index,
    maxmin_rates,
    predicted_app_rates,
)
from .scheduling import ConfigError, policy_problems
from .engine import (
    AggStat,
    AppMetrics,
    EdgeMetrics,
    Metrics,
    ReplicationSummary,
    SlotLedger,
    aggregate_metrics,
    poisson_sample,
    replication_runs,
    replication_seed,
    resolve_successes,
    run,
    stream_rng,
    stream_seed,
)
from .validate import MAX_ARRIVAL_RATE, ValidationError, validate_scenario
from .scenario_io import ParseError, load_scenario, parse_scenario

__version__ = "0.1.0"
