"""Analytical fairness machinery and worker-pool assignment solvers.

The weighted max-min rate vector (computed by progressive filling over a
fluid model of the network) serves both as the oracle that scheduling
disciplines are compared against and as the objective for choosing which
computation nodes join each application's worker pool. One kernel,
``progressive_fill``, fills from each crossed edge's bitmask of flows;
``maxmin_rates`` is its keyed, checked form, and ``assign_exhaustive``
checks every app's candidates at once as ``maxmin_rates`` would, then
calls the kernel directly, from bitmasks kept per prefix of pools, for
greedy's assignment, its first incumbent, and for each assignment that
its bounds cannot rule out against the incumbent. A
large search is split over forked processes and merged to the pick of
one process. ``forked`` is the one way to a child, for the search and for
the run's producer of draws, and it forks only where ``fork_cpus`` allows.
"""
from __future__ import annotations

import itertools
import marshal
import math
import os
import random
import threading
from bisect import bisect_left, insort
from collections import Counter
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from typing import BinaryIO, Hashable, Iterable, Iterator, Mapping, Optional, Sequence

from .model import DEFAULT_EXHAUSTIVE_LIMIT, Application, Assignment, Flow, NetworkGraph
from .routing import build_flows, eligible_flows

FlowKey = Hashable


class SearchSpaceTooLarge(Exception):
    """Exhaustive enumeration would exceed the configured limit."""

    def __init__(self, size: int, limit: int):
        self.size = size
        self.limit = limit
        super().__init__(f"search space has {size} assignments, limit is {limit}")


def fork_cpus() -> int:
    """How many CPUs this process may spread its work over by forking: those
    that ``os.sched_getaffinity`` allows it, or 1 where ``os.fork`` does not
    exist or another thread is alive, which could hold a lock across a fork."""
    if not hasattr(os, "fork") or threading.active_count() != 1:
        return 1
    return max(1, len(getattr(os, "sched_getaffinity", lambda pid: ())(0)))


@contextmanager
def forked(job: Iterable) -> Iterator[Iterator]:
    """An iterator over the values of ``job``, an iterable not yet started,
    which a forked child makes and sends through a pipe, each as one
    ``marshal`` record behind its 4-byte length, then a length of 0. Where
    ``fork_cpus()`` is 1 it forks no child, as if the fork failed. What the
    child does not send, as there is none or it raised or died, this
    process makes from its untouched copy of ``job``, skipping the values
    received; it makes nothing before the first read. The child leaves
    through ``os._exit``, so it flushes none of this process's files;
    leaving the block, however it is left, kills the child and reaps it."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork() if fork_cpus() > 1 else None
    except OSError:  # no process to spare, such as EAGAIN: as a child that sends nothing
        pid = None
    if pid == 0:  # the child; it never returns into the caller
        try:
            os.close(read_fd)
            with open(write_fd, "wb") as out:
                for record in map(marshal.dumps, job):
                    out.write(len(record).to_bytes(4, "little") + record)
                    out.flush()  # readable before the next value is made
                out.write(bytes(4))
            os._exit(0)
        finally:  # skips the caller's open files and atexit hooks
            os._exit(1)
    try:
        os.close(write_fd)
        with open(read_fd, "rb") as feed:
            yield _received(feed, job)
    finally:
        if pid is not None:
            from _signal import SIGKILL  # loaded at start-up, unlike the signal module

            os.kill(pid, SIGKILL)
            os.waitpid(pid, 0)


def _received(feed: BinaryIO, job: Iterable) -> Iterator:
    """The values that ``forked``'s child sends through ``feed``; should it
    stop short of its end mark, then the rest of ``job``, made here."""
    received = 0
    while len(head := feed.read(4)) == 4:
        if not (size := int.from_bytes(head, "little")):
            return  # the end mark: the child sent every value
        if len(record := feed.read(size)) < size:
            break
        yield marshal.loads(record)
        received += 1
    yield from itertools.islice(job, received, None)


def maxmin_rates(
    flow_edges: Mapping[FlowKey, Iterable[int]],
    capacities: Mapping[int, float],
    flow_weights: Mapping[FlowKey, float],
) -> dict[FlowKey, float]:
    """Weighted max-min rate allocation by progressive filling.

    All unfrozen flows grow at rate weight*t for a common scalar t; when
    an edge saturates, the flows crossing it freeze at their current
    rate, and filling continues with the rest. The result satisfies the
    bottleneck property: every flow crosses a saturated edge on which its
    weighted rate is the largest. This keyed form checks its input and
    numbers the flows in iteration order; ``progressive_fill`` fills them
    from each crossed edge's bitmask of flows, with a ``groups`` of its own.
    """
    crossing = _checked_crossing(flow_edges, capacities, flow_weights)
    rates = progressive_fill([flow_weights[f] for f in flow_edges], crossing, capacities, {})
    return dict(zip(flow_edges, rates))


def _checked_crossing(
    flow_edges: Mapping[FlowKey, Iterable[int]],
    capacities: Mapping[int, float],
    flow_weights: Mapping[FlowKey, float],
) -> dict[int, int]:
    """Each crossed edge's bitmask of flows, bit i for the i-th flow of
    ``flow_edges``, once ``progressive_fill`` is known to fill them:
    ValueError unless every flow crosses an edge and has a positive, finite
    weight, and every crossed edge has a positive, finite capacity,
    a finite sum of the weights that cross it, and a finite capacity over
    the least of them. A fill limit is what is left of a capacity over a
    sum of some of those weights, so every limit is then finite, for these
    flows and for any subset of them."""
    crossing: dict[int, int] = {}
    on_edge: dict[int, list[float]] = {}  # each edge's flow weights, in flow order
    for i, (f, edges) in enumerate(flow_edges.items()):
        if not (edges := frozenset(edges)):
            raise ValueError(f"flow {f!r} crosses no edge")
        if not flow_weights[f] > 0:  # NaN too: it would never saturate an edge
            raise ValueError(f"flow {f!r} has non-positive weight")
        if flow_weights[f] == math.inf:  # its fill limit would be 0 or NaN
            raise ValueError(f"flow {f!r} has infinite weight")
        for e in edges:
            crossing[e] = crossing.get(e, 0) | 1 << i
            on_edge.setdefault(e, []).append(flow_weights[f])
    for e, weights in on_edge.items():
        if not capacities[e] > 0:
            raise ValueError(f"edge {e} has non-positive capacity")
        if capacities[e] == math.inf:
            raise ValueError(f"edge {e} has infinite capacity")
        if sum(weights) == math.inf or capacities[e] / min(weights) == math.inf:
            raise ValueError(f"edge {e} has a weight sum or fill limit beyond the float range")
    return crossing


def progressive_fill(
    weights: Sequence[float], crossing: Mapping[int, int], capacities: Mapping[int, float],
    groups: dict[int, tuple[list[int], float]],
) -> list[float]:
    """``maxmin_rates`` on flows 0..n-1, unchecked: every weight and every
    crossed edge's capacity must be positive. ``crossing`` maps an edge to
    the bitmask of its flows, bit i for flow i; ``groups``, the caller's for
    these ``weights`` alone, maps a bitmask to its flows and their weight
    sum, in flow order, and gains those it lacks. An edge's fill limit sums
    its live weights and frozen rates in flow order, so the rates are the
    same floats whatever the caller's keys."""
    # of edges crossed by the same flows, only the least capacity can bind
    tightest: dict[int, float] = {}
    for e, on in crossing.items():
        if capacities[e] < tightest.get(on, math.inf):
            tightest[on] = capacities[e]
    rates: list = [None] * len(weights)  # None while the flow is unfrozen
    # (fill limit, capacity, bitmask, flows) of each edge with an unfrozen flow
    limits = []
    for on, cap in tightest.items():
        if (group := groups.get(on)) is None:
            members, rest = [], on
            while rest:  # the lowest set bit's flow, then the rest
                members.append((rest & -rest).bit_length() - 1)
                rest &= rest - 1
            group = groups[on] = (members, sum([weights[f] for f in members]))
        limits.append((cap / group[1], cap, on, group[0]))
    while limits:
        t_star = max(min(limits)[0], 0.0)
        cut = t_star + 1e-12 * max(t_star, 1.0)
        newly_frozen = 0
        unsaturated = []
        for limit in limits:
            if limit[0] > cut:
                unsaturated.append(limit)
                continue
            for f in limit[3]:
                if rates[f] is None:
                    rates[f] = weights[f] * t_star
                    newly_frozen |= 1 << f
        limits = []
        for limit in unsaturated:
            _, cap, on, members = limit
            if not on & newly_frozen:  # the same sums, so the same limit
                limits.append(limit)
                continue
            live_weights = [weights[f] for f in members if rates[f] is None]
            if live_weights:
                frozen_load = sum([r for f in members if (r := rates[f]) is not None])
                limits.append(((cap - frozen_load) / sum(live_weights), cap, on, members))
    return rates


def jain_index(values: Sequence[float]) -> float:
    """Jain's fairness index (sum x)^2 / (n * sum x^2), in [1/n, 1].

    The index is scale invariant, so inputs are normalized by their
    maximum first; this keeps the squares away from under- and overflow.
    """
    vals = list(values)
    if not vals:
        raise ValueError("jain_index undefined for empty input")
    if any(v < 0 for v in vals):
        raise ValueError("jain_index requires non-negative values")
    peak = max(vals)
    if peak == 0.0:
        raise ValueError("jain_index undefined for all-zero input")
    scaled = [v / peak for v in vals]
    total = math.fsum(scaled)
    sq = math.fsum(v * v for v in scaled)  # >= 1: the peak maps to exactly 1
    return (total * total) / (len(vals) * sq)


def weighted_jain(weighted: Sequence[float]) -> Optional[float]:
    """``jain_index`` of the apps' weighted rates; None (NA) if none is positive."""
    return jain_index(weighted) if any(v > 0 for v in weighted) else None


@dataclass(frozen=True)
class AppRatePrediction:
    granted: float  # expected grants per slot under max-min sharing
    delivered: float  # granted discounted by swap success probability
    weighted: float  # delivered / app weight


def _delivered(pool: Sequence[Flow], rates: Iterable[float]) -> float:
    """A pool's delivered rate, the ``fsum`` of rate times swap probability; it
    reads one rate per flow and no more, so pools can share one rate iterator."""
    return math.fsum([r * f.swap_prob for f, r in zip(pool, rates)])


def predicted_app_rates(
    graph: NetworkGraph,
    apps: Sequence[Application],
    assignment: Assignment,
) -> dict[int, AppRatePrediction]:
    """Analytical per-app rates under a given worker assignment.

    One flow per (app, worker) over the shortest path, weighted by its
    app's ``flow_weight``. Grants contend in the max-min fluid model;
    deliveries discount each flow by its swap success probability.
    """
    flows = build_flows(graph, apps, assignment)
    ordered = sorted(apps, key=lambda a: a.id)
    # keyed by (app, worker): apps with the same host share their Flows
    flow_edges = {(a.id, f.worker): f.edges for a in ordered for f in flows[a.id]}
    weights = {(a.id, f.worker): a.flow_weight for a in ordered for f in flows[a.id]}
    rates = maxmin_rates(flow_edges, graph.effective_capacities(), weights)
    out: dict[int, AppRatePrediction] = {}
    for app in ordered:
        app_rates = [rates[(app.id, f.worker)] for f in flows[app.id]]
        delivered = _delivered(flows[app.id], app_rates)
        out[app.id] = AppRatePrediction(math.fsum(app_rates), delivered, delivered / app.weight)
    return out


def assign_random(
    graph: NetworkGraph, apps: Sequence[Application], rng: random.Random
) -> Assignment:
    """Uniform random worker pools, the baseline solver.

    Each app independently draws a workers_needed-subset of its eligible
    workers without replacement from the caller-seeded generator.
    """
    out: Assignment = {}
    for app in sorted(apps, key=lambda a: a.id):
        eligible = [f.worker for f in eligible_flows(graph, app)]
        out[app.id] = frozenset(rng.sample(eligible, app.workers_needed))
    return out


def assign_greedy(graph: NetworkGraph, apps: Sequence[Application]) -> Assignment:
    """Deterministic load-spreading heuristic.

    Apps are processed in descending weight (ties: ascending id); each
    worker slot picks the candidate whose tentative flow leaves the
    smallest sorted-descending vector of normalized edge loads
    (sum of flow_weight / effective_capacity per edge); ties go to the
    smallest worker id.
    """
    caps = graph.effective_capacities()
    load = dict.fromkeys(caps, 0.0)
    # the same loads, kept sorted: a candidate changes only its own edges,
    # so its vector is a copy of this list with those values replaced
    ascending = [0.0] * len(caps)
    out: Assignment = {}
    for app in sorted(apps, key=lambda a: (-a.weight, a.id)):
        cand_edges = {f.worker: f.edges for f in eligible_flows(graph, app)}
        phi = app.flow_weight
        picked: list[int] = []
        for _ in range(app.workers_needed):
            best = None
            best_vec = None
            for cand in cand_edges:
                if cand in picked:
                    continue
                vec = ascending.copy()
                for e in cand_edges[cand]:
                    del vec[bisect_left(vec, load[e])]
                    insort(vec, load[e] + phi / caps[e])
                vec.reverse()
                if best_vec is None or vec < best_vec:
                    best, best_vec = cand, vec
            assert best is not None
            picked.append(best)
            for e in cand_edges[best]:
                del ascending[bisect_left(ascending, load[e])]
                load[e] += phi / caps[e]
                insort(ascending, load[e])
        out[app.id] = frozenset(picked)
    return out


def _contention_bound(
    app: Application, share: float, pool: Sequence[Flow], load: Mapping[int, float],
    caps: Mapping[int, float], t1: float,
) -> float:
    """An upper bound on the weighted delivered rate of ``app``, with flows
    of weight ``share`` that form ``pool``, in any assignment that holds it,
    puts W_e >= ``load[e]`` on each of its edges e and fills first to a level
    of at least ``t1``, where an edge saturates and below which no flow
    freezes. No edge is overloaded, so on each edge e of its path a flow f
    gets at most cap_e - t1 * (W_e - w_f) <= cap_e - t1 * (load[e] - w_f).
    The bound is the ``fsum`` of each flow's least such term times the
    flow's swap probability, over the app's weight. At t1 = 0 it holds for
    any finite ``load`` and assignment: no flow's max-min rate exceeds its
    path's least capacity.

    This holds for ``progressive_fill``'s floats, not only in exact
    arithmetic. An edge that a freeze level leaves unsaturated has a fill
    limit above the kernel's cut, 1e-12 * max(level, 1) past the level. Its
    exact limit only rises as flows freeze, and the rounding of its sums
    moves it by far less than the cut, so no later level falls below the
    first. The rates on an edge exceed its capacity by rounding alone, of
    relative order 1e-16 per term. Lowering t1 by a factor 1 - 1e-9 and
    raising the result by 1 + 1e-9 leave each edge's term a slack of about
    5e-10 * cap_e: the first factor gives it where t1 * (W_e - w_f) exceeds
    half of cap_e, the second where it does not. The first also covers a t1
    summed in another order than the kernel's, such as ``assign_exhaustive``'s
    t_lo from W_e + m_e: that costs an ulp or so, a relative 1e-16.
    """
    t1 *= 1 - 1e-9
    peak = math.fsum(
        [min([caps[e] - t1 * (load[e] - share) for e in f.edges]) * f.swap_prob for f in pool]
    )
    return peak / app.weight * (1 + 1e-9)


def _contention_bounds(
    apps: Sequence[Application],
    shares: Sequence[float],
    pools: Sequence[Sequence[Flow]],
    order: Iterable[int],
    load: Mapping[int, float],
    caps: Mapping[int, float],
    floor: float,
) -> list[float]:
    """The ``_contention_bound`` at t1 = min_e cap_e / ``load[e]`` of each app
    that ``order`` names by index into ``apps``, their flow weights ``shares``
    and their ``pools``, under one assignment whose flows put weight
    ``load[e]`` on each edge e they cross. They end after the first below ``floor``."""
    t1 = min([caps[e] / total for e, total in load.items()])
    bounds = []
    for i in order:
        bounds.append(_contention_bound(apps[i], shares[i], pools[i], load, caps, t1))
        if bounds[-1] < floor:
            break
    return bounds


# The pipe and the fork take 1.1-1.2 ms in a process the size of
# ``assign``'s (Python 3.11, 2 vCPUs). The child starts its share about 2 ms
# after the fork began, and its first search of it runs 5-20% slower than
# a second. Split in two, a 2205-assignment cut of ``exhaustive-30`` still
# takes 0.8 of the time of one process, so a split of 2000 assignments gains.
SPLIT_MIN_SIZE = 2000


def assign_exhaustive(
    graph: NetworkGraph, apps: Sequence[Application], limit: int = DEFAULT_EXHAUSTIVE_LIMIT
) -> Assignment:
    """Exact solver: enumerate every assignment and keep the lexicographic
    maximum of the ascending-sorted weighted delivered rates (those of
    ``predicted_app_rates``); among equals, the first one enumerated.

    Greedy's assignment (``assign_greedy``) is filled first; every search
    starts from its pick vector and score as the best and does not fill it
    again. The search chooses pools app by app, in id order, from an
    explicit stack of indices, so assignments come in ``itertools.product``
    order. It drops a set of assignments once a vector that bounds each
    one's sorted rates, element by element, cannot beat the best: it is
    below the best score, or equal to it and the whole set comes after the
    best pick in product order. Every bound is a ``_contention_bound``, at
    one of three levels. At 0 it is a pool's bound in any assignment: a
    prefix bounds its completions by its pools' bounds, padded with each
    later app's greatest one; a level whose app has one pool would repeat
    its parent's test, so it makes none. At t_lo, the least of cap_e / W_e
    over the prefix's edges and of cap_e / (W_e + m_e) over those of app
    n - 1's pools, with m_e the most flow weight one of them puts on e, the
    pools of apps 0..n-2 bound all completions at once, beside app n - 1's
    greatest pool bound. At t1, the least cap_e / W_e of a whole assignment,
    its ``_contention_bounds``, in ascending order of pool bound, stop at
    the first below the best score's least rate. Each prefix keeps the flow
    weight W_e on each edge of its pools and extends a copy of it by the
    next pool's flows, so that a contention bound reads the same sums as a
    whole assignment would; it keeps each edge's bitmask of flows alike, so
    a fill ORs in only the last pool's flow bits. A filled score becomes
    the best when it is greater, or equal with a smaller pick vector.

    From ``SPLIT_MIN_SIZE`` assignments on, the search is split into S
    shares. A prefix, the pools of apps 0 and 1 (of app 0 alone if it is
    the only app), is numbered by the sum of their indices, and S is the
    least of ``fork_cpus()`` and the count of distinct numbers. Share w
    takes the prefixes numbered w modulo S and keeps every check and bound
    against its own best score, greedy's at first; S - 1 children search
    shares 1 to S - 1 through ``forked``, which searches here a share that
    its child does not send. The greatest score wins, and among equals the
    least pick vector, the first enumerated: the pick of one search.

    Raises SearchSpaceTooLarge (with the assignment count) before building
    any pool when the product of per-app subset counts exceeds ``limit``.
    """
    ordered = sorted(apps, key=lambda a: a.id)
    eligible = [eligible_flows(graph, app) for app in ordered]
    size = math.prod(math.comb(len(f), a.workers_needed) for a, f in zip(ordered, eligible))
    if size > limit:
        raise SearchSpaceTooLarge(size, limit)
    caps = graph.effective_capacities()
    phis = [a.flow_weight for a in ordered]
    # every candidate at once: no assignment's sums can then leave the float range
    flow_edges, flow_weights = {}, {}
    for app, flows, w in zip(ordered, eligible, phis):
        for f in flows:
            flow_edges[(app.id, f.worker)] = f.edges
            flow_weights[(app.id, f.worker)] = w
    _checked_crossing(flow_edges, caps, flow_weights)
    # every assignment has the same flow weights: apps in id order, pools in worker order
    weights = [w for a, w in zip(ordered, phis) for _ in range(a.workers_needed)]
    firsts = itertools.accumulate([a.workers_needed for a in ordered], initial=0)
    options = [  # each app's pools, each with its bound and its (edge, flow bit) pairs
        [
            # at level 0 the loads do not count: any finite ones will do
            (p, _contention_bound(a, w, p, caps, caps, 0.0),
             [(e, 1 << i) for i, f in enumerate(p, first) for e in f.edges])
            for p in itertools.combinations(f, a.workers_needed)
        ]
        for a, f, w, first in zip(ordered, eligible, phis, firsts)
    ]
    n = len(ordered)
    tops = [max([u for _, u, _ in opts]) for opts in options]  # each app's greatest bound
    # prefix number picks[0] + picks[1], or picks[0] for one app; unlike the
    # product order's number, it aliases with no pool count modulo the shares
    split = 1 if n > 1 else 0
    reach: dict[int, float] = {}  # m_e: the most flow weight one pool of the last app puts on e
    for p, _, _ in options[-1] if n else ():
        for e, count in Counter([e for f in p for e in f.edges]).items():
            reach[e] = max(reach.get(e, 0.0), count * phis[-1])

    groups: dict[int, tuple[list[int], float]] = {}  # every fill's, as they share ``weights``

    def crossed(masks: dict[int, int], bits: Iterable[tuple[int, int]]) -> dict[int, int]:
        masks = masks.copy()
        for e, bit in bits:
            masks[e] = masks.get(e, 0) | bit
        return masks

    def scored(combo: Sequence[Sequence[Flow]], crossing: dict[int, int]) -> tuple[float, ...]:
        rates = iter(progressive_fill(weights, crossing, caps, groups))
        return tuple(sorted(_delivered(p, rates) / a.weight for a, p in zip(ordered, combo)))

    greedy = assign_greedy(graph, ordered)  # filled once, the best that every share starts from
    workers = [[{f.worker for f in p} for p, _, _ in opts] for opts in options]
    start = [sets.index(greedy[a.id]) for a, sets in zip(ordered, workers)]
    chosen = [opts[i] for opts, i in zip(options, start)]
    crossing = crossed({}, [pair for *_, bits in chosen for pair in bits])
    start_score = scored([p for p, _, _ in chosen], crossing)

    def search(share: int) -> tuple[tuple[int, ...], tuple[float, ...]]:
        """The first best pick vector, and its score, among greedy's and the
        prefixes whose number is ``share`` modulo ``shares``."""
        # the prefix of apps 0..k-1: the option picked for each, their pool bounds
        # padded with the later apps' tops, loads[j], the W_e of apps before j, and
        # masks[j], for j < n, the bitmask of their flows on each edge
        picks = [-1] * n
        bounds = tops.copy()
        loads: list[dict[int, float]] = [{} for _ in range(n + 1)]
        masks: list[dict[int, int]] = [{} for _ in range(n)]
        best, best_score = start, start_score

        def may_win(vec: tuple[float, ...], depth: int) -> bool:
            # whether assignments under picks[:depth], bounded by vec, can beat the best
            return vec > best_score or vec == best_score and picks[:depth] <= best[:depth]

        k = 0
        while k >= 0:
            if k == n:  # a whole assignment; then on to the last app's next pool
                k -= 1
                if picks == start:  # filled before the search
                    continue
                combo = [opts[i][0] for opts, i in zip(options, picks)]
                rank = sorted(range(n), key=bounds.__getitem__)
                most = _contention_bounds(ordered, phis, combo, rank, loads[n], caps, best_score[0])
                # a list cut short at a bound below best_score[0] sorts below it too
                if not may_win(tuple(sorted(most)), n):
                    continue
                score = scored(combo, crossed(masks[k], options[k][picks[k]][2]))
                if may_win(score, n):
                    best, best_score = picks.copy(), score
                continue
            picks[k] += 1
            if picks[k] == len(options[k]):  # back to app k - 1's next pool
                picks[k] = -1
                bounds[k] = tops[k]
                k -= 1
                continue
            if k == n - 1 and picks[k] == 0 and len(options[k]) > 1:
                load = loads[k]  # W_e of the prefix; a missing value is 0
                t_lo = min([caps[e] / (load.get(e, 0.0) + reach.get(e, 0.0)) for e in load | reach])
                prefix = zip(ordered, phis, [opts[i][0] for opts, i in zip(options, picks[:k])])
                level = [_contention_bound(*args, load, caps, t_lo) for args in prefix] + [tops[k]]
                if not may_win(tuple(sorted(level)), k):
                    picks[k] = -1
                    k -= 1
                    continue
            if k == split and sum(picks[: k + 1]) % shares != share:
                continue
            _, bounds[k], bits = options[k][picks[k]]
            # with one pool, app k would repeat the test that app k - 1 just passed
            if len(options[k]) > 1 and not may_win(tuple(sorted(bounds)), k + 1):
                continue
            load, w = loads[k].copy(), phis[k]
            for e, _ in bits:
                load[e] = load.get(e, 0.0) + w
            loads[k + 1] = load
            if k + 1 < n:
                masks[k + 1] = crossed(masks[k], bits)
            k += 1
        return tuple(best), best_score

    numbers = sum([len(opts) - 1 for opts in options[:2]]) + 1
    shares = min(fork_cpus(), numbers) if size >= SPLIT_MIN_SIZE else 1
    with ExitStack() as children:
        feeds = [children.enter_context(forked(map(search, [w]))) for w in range(1, shares)]
        found = [search(0)] + [next(feed) for feed in feeds]
    # the greatest score; among equals, the first in product order, as one search keeps
    best = max(sorted(found), key=lambda pair: pair[1])[0]
    pools = [opts[i][0] for opts, i in zip(options, best)]
    return {app.id: frozenset(f.worker for f in pool) for app, pool in zip(ordered, pools)}
