"""Deterministic seeded slot loop and replication runner.

Each run draws from four independent RNG streams (capacity, arrival,
success and, in ``resolve_assignment``, assignment), seeded by hashing the
stream label with the master seed, so one never perturbs another's draws.
Replications are independent runs whose seeds derive from the master seed
and the replication index, aggregated in index order. No grant changes a
capacity or arrival draw, so a run that draws from either stream makes
both, in the order it would, in a producer that ``fairshare.forked`` forks
ahead of the slot loop: the outputs stay byte-identical. It sends them in
chunks of the fewest whole slots to hold ``CHUNK_INTS`` ints, one count for
the run, as a slot draws one int per link and per rate. Where ``forked``
forks no child (one CPU, another thread, no ``os.fork``), and for what the
producer did not send, the run makes them itself, as it does when it
draws from neither. Success draws follow the grants, in the run's process.

Each slot's link capacities come from one sampler built per run. In
stochastic mode it makes one trial of ``rng.random() < gen_success_prob``
per unit of capacity, link by link, but draws a slot's trials as one big
integer, a 64-bit lane each, and reads every outcome in a few big-integer
operations. The tests keep the per-link random() loop as the reference it
must equal, draw for draw. In deterministic mode it hands each slot a copy
of one precomputed list.

The sampler's lists go unchecked to the scheduler's private slot kernel:
the program built them, a non-negative int for every link, and the run is
the kernel's only caller. The slot loop reads SlotGrants as the kernel
returns them: lists by dense link id and counts by flat flow index,
the scheduler's numbering of flows in (app id, worker) order; its visit
step is bound to the run's lists once and to each slot's once. Successes,
the conservation check and the metric sums run on those indices; grants
and successes add up per flow and fold into apps and edges after the last
slot. A run given ``on_slot`` hands it one SlotLedger per slot, once the
slot's conservation check has passed, and keeps none: the ledger holds the
slot's lists and its grant and success dicts by flat flow index as they
are, all fresh each slot, and the run's (app, worker) per flow index in one
tuple that every ledger of the run shares.
"""
from __future__ import annotations

import dataclasses
import math
import random
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import accumulate, chain, islice
from typing import Callable, Iterator, Mapping, Optional, Sequence

from .fairshare import assign_exhaustive, assign_greedy, assign_random, forked, weighted_jain
from .model import (
    AppId,
    Assignment,
    AssignmentSource,
    CapacityMode,
    EdgeId,
    NodeId,
    Policy,
    QuantumLink,
    Scenario,
    SimConfig,
    Traffic,
)
from .routing import build_flows
from .scheduling import (
    ConfigError,
    SchedulerState,
    SlotGrants,
    _enqueue_arrivals,
    _schedule_slot,
)

try:  # hashlib loads OpenSSL; take sha256 from CPython's lean builtin module
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

def stream_seed(master_seed: int, label: str) -> int:
    """64-bit sub-seed for a named stream: sha256 of 'label:master'."""
    digest = sha256(f"{label}:{master_seed}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def stream_rng(master_seed: int, label: str) -> random.Random:
    return random.Random(stream_seed(master_seed, label))


def replication_seed(master_seed: int, index: int) -> int:
    """Seed of replication ``index``: the stream seed labelled 'replication:index'."""
    return stream_seed(master_seed, f"replication:{index}")


def capacity_sampler(
    links: Sequence[QuantumLink], mode: CapacityMode, rng: random.Random
) -> Callable[[], list[int]]:
    """Per-slot sampler of every link's capacity, listed in the order of
    ``links``; each call returns a new list.

    Deterministic mode gives each link round(effective_capacity), which
    validation requires to be integral, and draws nothing. Stochastic mode
    gives each link the number of successes in capacity_max independent
    Bernoulli trials of ``rng.random() < gen_success_prob`` (an exact
    binomial sample), drawn as one ``getrandbits`` of a 64-bit lane per
    trial: the two words random() draws, the first least significant.
    random() is m / 2**53 with m = (w1 >> 5) * 2**26 + (w2 >> 6), so it is
    < p exactly when m <= ceil(p * 2**53) - 1 (p * 2**53 is exact). Each
    lane takes m from 2**56 plus that bound, which leaves it in (2**56 -
    2**53, 2**56 + 2**53): no borrow crosses a lane, and its top byte is 1
    on success, else 0.
    """
    if mode is CapacityMode.DETERMINISTIC:
        fixed = [round(l.effective_capacity) for l in links]
        return fixed.copy
    ends = list(accumulate(l.capacity_max for l in links))
    spans = [(end - l.capacity_max, end) for l, end in zip(links, ends)]
    nbytes = 8 * ends[-1] if links else 0

    def lanes(lane: Callable[[QuantumLink], int]) -> int:  # a link's lane per trial
        trials = (lane(l).to_bytes(8, "little") * l.capacity_max for l in links)
        return int.from_bytes(b"".join(trials), "little")

    ceiling = lanes(lambda l: (1 << 56) + math.ceil(l.gen_success_prob * 2.0**53) - 1)
    high, low = lanes(lambda l: 0xFFFF_FFE0), lanes(lambda l: 0xFFFF_FFC0 << 32)
    draw, bits = rng.getrandbits, 8 * nbytes

    def sample() -> list[int]:
        x = draw(bits)
        # w1 >> 5 moves up to bits 26..52, w2 >> 6 down to bits 0..25
        won = ceiling - ((x & high) << 21 | (x & low) >> 38)
        hits = list(accumulate(won.to_bytes(nbytes, "little")[7::8], initial=0))
        return [hits[end] - hits[start] for start, end in spans]

    return sample


def poisson_sample(lam: float, rng: random.Random) -> int:
    """Knuth multiplication method; exact for the validated range lam <= 30."""
    if lam <= 0.0:
        return 0
    limit, draw = math.exp(-lam), rng.random
    k = 0
    p = 1.0
    while True:
        p *= draw()
        if p <= limit:
            return k
        k += 1


# A producer's record of whole slots holds at least this many ints. On the mesh (9 ints
# a slot) the loop took 0.99 us a slot from a forked feed at 1024, 1.01 at 4096 and 1.16
# at 256; a record decodes to 19 KiB of lists, 81 KiB at 4096 (Python 3.11, 2 vCPUs).
CHUNK_INTS = 1024


def _slot_draws(
    sample_slot: Callable[[], list[int]], rates: Sequence[float], rng: random.Random,
    slots: int, chunk: int,
) -> Iterator[list[tuple[list[int], list[int]]]]:
    """The draws of each slot that no grant can change, the sampled
    capacities and a Poisson arrival count for each of ``rates``, in chunks
    of ``chunk`` slots; the last holds the slots left."""
    draws = ((sample_slot(), [poisson_sample(lam, rng) for lam in rates]) for _ in range(slots))
    while batch := list(islice(draws, chunk)):
        yield batch


def resolve_successes(
    grants: Mapping[int, int], rng: random.Random, rank: Sequence[int], swap_prob: Sequence[float]
) -> dict[int, int]:
    """Sample end-to-end swap success per granted attempt.

    Attempts are resolved flow by flow in (app, path) order so draws do
    not depend on the scheduler's internal grant sequence: one draw per
    attempt of a flow with swap_prob below 1, none at 1. ``rank``, each
    flow's rank in (app, path) order, ``swap_prob``, grants and successes
    are all by flat flow index; successes has exactly the keys of grants.
    """
    successes = {}
    draw = rng.random
    for f in sorted(grants, key=rank.__getitem__):
        count, p = grants[f], swap_prob[f]
        if p < 1.0 and count == 1:  # most granted flows: one draw, no loop
            count = 1 if draw() < p else 0
        elif p < 1.0:
            done = 0
            for _ in range(count):
                done += draw() < p
            count = done
        successes[f] = count
    return successes


def resolve_assignment(scenario: Scenario, config: SimConfig) -> Assignment:
    """The pools that ``config.assignment`` picks; the random solver draws
    them from the assignment stream of ``config.seed``."""
    source = config.assignment
    if source is AssignmentSource.GIVEN:
        if scenario.given_assignment is None:
            raise ConfigError("assignment source is 'given' but no workers were supplied")
        return {a: frozenset(w) for a, w in scenario.given_assignment.items()}
    if source is AssignmentSource.GREEDY:
        return assign_greedy(scenario.graph, scenario.apps)
    if source is AssignmentSource.RANDOM:
        return assign_random(scenario.graph, scenario.apps, stream_rng(config.seed, "assignment"))
    return assign_exhaustive(scenario.graph, scenario.apps, config.exhaustive_limit)


@dataclass(slots=True)
class SlotLedger:
    """One slot of one run, as ``run`` hands it to ``on_slot``, in the
    kernel's index form."""

    seed: int  # the run's seed: the config's, or its replication's
    slot: int
    sampled: list[int]  # by dense link id
    residual: list[int]  # by dense link id
    flows: tuple[tuple[AppId, NodeId], ...]  # (app, worker) by flat flow index, one per run
    flow_grants: dict[int, int]  # flat flow index -> granted attempts
    flow_successes: dict[int, int]  # flat flow index -> successful attempts


@dataclass(frozen=True)
class AppMetrics:
    grants: int
    delivered: int
    delivered_rate: float
    weighted_rate: float
    mean_latency: Optional[float]  # slots from arrival to grant; Poisson only


@dataclass(frozen=True)
class EdgeMetrics:
    grants: int
    utilization: float  # grants / (measured_slots * capacity * gen_success_prob)


@dataclass(frozen=True)
class Metrics:
    slots: int
    warmup_slots: int
    measured_slots: int
    seed: int
    policy: Policy
    per_app: dict[AppId, AppMetrics]
    per_edge: dict[EdgeId, EdgeMetrics]
    jain_weighted: Optional[float]
    total_delivered: int


def _verify_slot(
    slot: int,
    sampled: list[int],
    result: SlotGrants,
    successes: Mapping[int, int],
    state: SchedulerState,
) -> None:
    """Always-on conservation check of one slot: the grants, path by
    path, must account for every pair the residual is short of the
    sample, and no residual may be negative, so no edge is over-granted."""
    grants, residual, flow_edges = result.per_flow, result.residual, state.flow_edges
    if grants and min(grants.values()) < 0:
        raise RuntimeError(f"slot {slot}: negative grant count")
    left = sampled.copy()
    for f, count in grants.items():
        for e in flow_edges[f]:
            left[e] -= count
    if min(residual, default=0) < 0 or left != residual:
        e = next(e for e, r in enumerate(residual) if r < 0 or left[e] != r)
        raise RuntimeError(f"slot {slot}: capacity conservation violated on edge {e}")
    for f, done in successes.items():
        if done > grants.get(f, 0):
            raise RuntimeError(f"slot {slot}: successes exceed grants for app {state.flow_app[f]}")


def run(
    scenario: Scenario, *, on_slot: Optional[Callable[[SlotLedger], None]] = None
) -> Metrics:
    """Simulate one seeded run of ``scenario.config`` and return its metrics.

    The run takes every setting from the scenario, whose config
    ``validate_scenario`` checked in full; it checks none of them again.
    Pairs not consumed in their generation slot are discarded, so sampled
    capacity is a per-slot renewable resource. Slots before warmup_slots
    are excluded from every accumulated metric. An identical scenario
    always produces identical Metrics. If given, ``on_slot`` is called
    with each slot's SlotLedger, in slot order, after the slot's
    conservation check.
    """
    return _run(scenario, scenario.config, resolve_assignment(scenario, scenario.config), on_slot)


def _run(
    scenario: Scenario,
    cfg: SimConfig,
    assignment: Assignment,
    on_slot: Optional[Callable[[SlotLedger], None]],
) -> Metrics:
    """``run`` of ``cfg``, the scenario's config or a replication's, with
    the pools that ``resolve_assignment`` gave."""
    rng_capacity = stream_rng(cfg.seed, "capacity")
    rng_arrival = stream_rng(cfg.seed, "arrival")
    rng_success = stream_rng(cfg.seed, "success")
    flows_by_app = build_flows(scenario.graph, scenario.apps, assignment)
    state = SchedulerState(
        cfg.policy, scenario.apps, flows_by_app, cfg.traffic, cfg.quantum_base, cfg.cost_mode
    )
    links = sorted(scenario.graph.links, key=lambda l: l.id)  # dense ids: list index
    flows, flow_app = state.flows, state.flow_app
    # by flat flow index: rank in (app, path) order, not the scheduler's worker order
    rank = [0] * len(flows)
    for r, f in enumerate(sorted(range(len(flows)), key=lambda f: (flow_app[f], flows[f].path))):
        rank[f] = r
    swap_prob = [fl.swap_prob for fl in flows]
    workers = tuple((a, fl.worker) for a, fl in zip(flow_app, flows))  # every ledger's flows
    # by flat flow index; folded into apps and edges after the last slot
    grants_by_flow = [0] * len(flows)
    delivered_by_flow = [0] * len(flows)
    wait_by_app = [0] * len(state.apps)  # sum of slots from arrival to grant
    sample_slot = capacity_sampler(links, cfg.capacity_mode, rng_capacity)
    rates = [a.arrival_rate for a in state.apps] if cfg.traffic is Traffic.POISSON else []
    ints = max(len(links) + len(rates), 1)
    chunks = _slot_draws(sample_slot, rates, rng_arrival, cfg.slots, -(-CHUNK_INTS // ints))
    drawn = cfg.capacity_mode is CapacityMode.STOCHASTIC and links or rates
    with forked(chunks) if drawn else nullcontext(chunks) as feed:
        for slot, (sampled, counts) in enumerate(chain.from_iterable(feed)):
            _enqueue_arrivals(state, slot, counts)  # no counts under backlogged traffic
            result = _schedule_slot(state, sampled)
            grants = result.per_flow
            successes = resolve_successes(grants, rng_success, rank, swap_prob)
            _verify_slot(slot, sampled, result, successes, state)

            if slot >= cfg.warmup_slots:
                for f, count in grants.items():  # successes has the same keys
                    grants_by_flow[f] += count
                    delivered_by_flow[f] += successes[f]
                for app_id, arrival_slot in result.granted_requests:
                    wait_by_app[app_id] += slot - arrival_slot
            if on_slot is not None:
                residual = result.residual
                on_slot(SlotLedger(cfg.seed, slot, sampled, residual, workers, grants, successes))

    measured = cfg.slots - cfg.warmup_slots
    # _verify_slot has checked that each slot's grants consumed exactly
    # sampled - residual on every edge
    grants_by_edge = [0] * len(links)
    for count, edges in zip(grants_by_flow, state.flow_edges):
        for e in edges:
            grants_by_edge[e] += count
    per_app: dict[AppId, AppMetrics] = {}
    for app, first, end in zip(state.apps, state.first_flow, state.first_flow[1:]):
        grants = sum(grants_by_flow[first:end])
        delivered = sum(delivered_by_flow[first:end])
        rate = delivered / measured
        per_app[app.id] = AppMetrics(
            grants=grants,
            delivered=delivered,
            delivered_rate=rate,
            weighted_rate=rate / app.weight,
            # a Poisson grant serves one request; int / int rounds once,
            # as statistics.fmean of the waits would
            mean_latency=wait_by_app[app.id] / grants
            if cfg.traffic is Traffic.POISSON and grants
            else None,
        )
    per_edge = {
        l.id: EdgeMetrics(
            grants=grants_by_edge[l.id],
            utilization=grants_by_edge[l.id] / (measured * l.effective_capacity),
        )
        for l in links
    }
    return Metrics(
        slots=cfg.slots,
        warmup_slots=cfg.warmup_slots,
        measured_slots=measured,
        seed=cfg.seed,
        policy=cfg.policy,
        per_app=per_app,
        per_edge=per_edge,
        jain_weighted=weighted_jain([m.weighted_rate for m in per_app.values()]),
        total_delivered=sum(delivered_by_flow),
    )


@dataclass(frozen=True)
class AggStat:
    mean: float
    stddev: float  # sample standard deviation; 0.0 when n == 1
    n: int


@dataclass(frozen=True)
class ReplicationSummary:
    n: int
    stats: dict[str, AggStat]


def replication_runs(
    scenario: Scenario, *, on_slot: Optional[Callable[[SlotLedger], None]] = None
) -> list[Metrics]:
    """The ``scenario.config.replications`` independent runs, in index order.

    Their settings are the scenario's, checked by ``validate_scenario``;
    only the seed differs between runs. A single replication runs with
    the config's own seed, so it equals ``run(scenario)``; the CLI outputs
    for ``replications == 1`` depend on this. With more, replication i uses
    replication_seed(seed, i). ``on_slot`` is passed to every run, so it
    sees each run's slots in turn, each ledger carrying its run's seed.
    Only the random solver draws from the seed, so every other source is
    resolved once, for all the runs.
    """
    cfg = scenario.config
    if cfg.replications == 1:
        return [run(scenario, on_slot=on_slot)]
    configs = [
        dataclasses.replace(cfg, seed=replication_seed(cfg.seed, i))
        for i in range(cfg.replications)
    ]
    if cfg.assignment is AssignmentSource.RANDOM:  # one draw per replication seed
        return [_run(scenario, c, resolve_assignment(scenario, c), on_slot) for c in configs]
    assignment = resolve_assignment(scenario, cfg)
    return [_run(scenario, c, assignment, on_slot) for c in configs]


def aggregate_metrics(runs: Sequence[Metrics]) -> ReplicationSummary:
    """Mean and sample standard deviation of every scalar metric."""
    import statistics  # only replicated runs and sweeps aggregate
    samples: dict[str, list[float]] = {}

    def put(key: str, value: Optional[float]) -> None:
        if value is not None:
            samples.setdefault(key, []).append(float(value))

    for m in runs:
        for app_id, am in m.per_app.items():
            put(f"app_{app_id}.grants", am.grants)
            put(f"app_{app_id}.delivered", am.delivered)
            put(f"app_{app_id}.delivered_rate", am.delivered_rate)
            put(f"app_{app_id}.weighted_rate", am.weighted_rate)
            put(f"app_{app_id}.mean_latency", am.mean_latency)
        for edge_id, em in m.per_edge.items():
            put(f"edge_{edge_id}.utilization", em.utilization)
        put("jain_weighted", m.jain_weighted)
        put("total_delivered", m.total_delivered)

    stats = {}
    for key in sorted(samples):
        vals = samples[key]
        stats[key] = AggStat(
            mean=statistics.fmean(vals),
            stddev=statistics.stdev(vals) if len(vals) > 1 else 0.0,
            n=len(vals),
        )
    return ReplicationSummary(n=len(runs), stats=stats)
