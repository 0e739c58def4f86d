import contextlib
import dataclasses
import math
import os
import random
import re
import signal
import statistics
import threading
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest

from conftest import line_graph, reaped, recorded_forks, shared_link_apps, shared_link_graph
from gen import network_doc
from qnetfair import (
    Application,
    AssignmentSource,
    CapacityMode,
    ConfigError,
    CostMode,
    NetworkGraph,
    Node,
    NodeKind,
    Policy,
    QuantumLink,
    SearchSpaceTooLarge,
    SimConfig,
    Traffic,
    ValidationError,
    load_scenario,
    poisson_sample,
    replication_runs,
    replication_seed,
    resolve_successes,
    run,
    stream_seed,
    validate_scenario,
)
from qnetfair import engine, fairshare, validate
from qnetfair.engine import aggregate_metrics, capacity_sampler
from qnetfair.routing import build_flows
from qnetfair.scenario_io import parse_scenario
from qnetfair.scheduling import SchedulerState


def make_scenario(graph, apps, **config_overrides):
    base = dict(
        slots=100,
        seed=5,
        policy=Policy.RR,
        capacity_mode=CapacityMode.DETERMINISTIC,
        assignment=AssignmentSource.GREEDY,
    )
    base.update(config_overrides)
    return validate_scenario(graph, apps, SimConfig(**base))


def unit_pipe_scenario(**overrides):
    return make_scenario(shared_link_graph(1), shared_link_apps([1.0]), **overrides)


class TestStreams:
    def test_labels_give_distinct_seeds(self):
        seeds = {stream_seed(42, label) for label in ("capacity", "arrival", "success", "assignment")}
        assert len(seeds) == 4

    def test_stream_seed_deterministic(self):
        assert stream_seed(42, "capacity") == stream_seed(42, "capacity")
        assert stream_seed(42, "capacity") != stream_seed(43, "capacity")

    def test_replication_seeds_distinct(self):
        seeds = {replication_seed(7, i) for i in range(10)}
        assert len(seeds) == 10


def sample_capacity(link: QuantumLink, mode: CapacityMode, rng: random.Random) -> int:
    """Pairs available on a link this slot: the per-link reference that
    ``capacity_sampler`` must equal, draw for draw.

    Deterministic mode returns round(capacity * gen_success_prob), which
    validation requires to be integral; stochastic mode draws capacity
    independent Bernoulli trials (an exact binomial sample).
    """
    if mode is CapacityMode.DETERMINISTIC:
        return round(link.capacity_max * link.gen_success_prob)
    return sum(
        1 for _ in range(link.capacity_max) if rng.random() < link.gen_success_prob
    )


class TestSampleCapacity:
    def test_certain_generation(self):
        link = QuantumLink(0, (0, 1), 4, 1.0, 1.0)
        rng = random.Random(0)
        assert sample_capacity(link, CapacityMode.DETERMINISTIC, rng) == 4
        assert sample_capacity(link, CapacityMode.STOCHASTIC, rng) == 4

    def test_deterministic_rounds_integral_product(self):
        link = QuantumLink(0, (0, 1), 4, 0.5, 1.0)
        assert sample_capacity(link, CapacityMode.DETERMINISTIC, random.Random(0)) == 2

    def test_stochastic_binomial_moments(self):
        link = QuantumLink(0, (0, 1), 4, 0.5, 1.0)
        rng = random.Random(123)
        n = 100_000
        draws = [sample_capacity(link, CapacityMode.STOCHASTIC, rng) for _ in range(n)]
        assert set(draws) <= {0, 1, 2, 3, 4}
        mean = sum(draws) / n
        sigma = math.sqrt(4 * 0.5 * 0.5 / n)
        assert abs(mean - 2.0) <= 3 * sigma


class TestCapacitySampler:
    """The per-run flat sampler is sample_capacity link by link, draw for draw."""

    @pytest.mark.parametrize("mode", list(CapacityMode))
    def test_matches_sample_capacity_per_link(self, mode):
        for seed in range(20):
            rng = random.Random(seed)
            ids = rng.sample(range(100), rng.randint(1, 8))
            links = [
                QuantumLink(
                    e,
                    (i, i + 1),
                    rng.choice([1, 2, 3, 7, rng.randint(1, validate.MAX_CAPACITY)]),
                    rng.choice([1.0, 0.5, rng.uniform(0.01, 1.0)]),
                    1.0,
                )
                for i, e in enumerate(ids)
            ]
            fast, ref = random.Random(seed), random.Random(seed)
            sample = capacity_sampler(links, mode, fast)
            for slot in range(200):
                expected = [sample_capacity(l, mode, ref) for l in links]
                assert sample() == expected, (seed, slot)
            assert fast.getstate() == ref.getstate(), seed

    def test_capacity_max_bound_drawn_in_full(self):
        link = QuantumLink(0, (0, 1), validate.MAX_CAPACITY, 1.0, 1.0)
        sample = capacity_sampler([link], CapacityMode.STOCHASTIC, random.Random(0))
        assert sample() == [validate.MAX_CAPACITY]

    def test_each_slot_gets_its_own_list(self):
        link = QuantumLink(0, (0, 1), 4, 0.5, 1.0)
        for mode in CapacityMode:
            sample = capacity_sampler([link], mode, random.Random(0))
            first = sample()
            first[0] = -1
            assert sample() is not first and sample()[0] >= 0


class TestPoissonSample:
    def test_zero_rate(self):
        assert poisson_sample(0.0, random.Random(1)) == 0

    def test_zero_rate_draws_nothing(self):
        # a zero-rate app draws nothing, so the arrivals after it do not shift
        rng = random.Random(1)
        before = rng.getstate()
        poisson_sample(0.0, rng)
        assert rng.getstate() == before

    def test_moments(self):
        rng = random.Random(9)
        n = 50_000
        lam = 2.5
        draws = [poisson_sample(lam, rng) for _ in range(n)]
        mean = sum(draws) / n
        assert abs(mean - lam) <= 3 * math.sqrt(lam / n)
        var = sum((d - mean) ** 2 for d in draws) / (n - 1)
        assert var == pytest.approx(lam, rel=0.05)


class TestResolveSuccesses:
    KEY = 0  # flat flow index

    def _order(self, swap_prob):
        return [0], [swap_prob]  # by flow: rank in (app, path) order, swap_prob

    def test_certain_swap(self):
        assert resolve_successes({self.KEY: 17}, random.Random(0), *self._order(1.0)) == {
            self.KEY: 17
        }

    def test_zero_grants(self):
        assert resolve_successes({self.KEY: 0}, random.Random(0), *self._order(0.5)) == {
            self.KEY: 0
        }

    def test_bernoulli_rate(self):
        n = 10_000
        done = resolve_successes({self.KEY: n}, random.Random(77), *self._order(0.81))[self.KEY]
        sigma = math.sqrt(0.81 * 0.19 / n)
        assert abs(done / n - 0.81) <= 3 * sigma

    def test_never_exceeds_grants(self):
        for seed in range(20):
            done = resolve_successes({self.KEY: 50}, random.Random(seed), *self._order(0.3))
            assert done[self.KEY] <= 50

    @staticmethod
    def _per_attempt(grants, rng, rank, swap_prob):
        """Reference: flow by flow in rank order, one draw per granted
        attempt of a flow whose swap_prob is below 1, none at 1."""
        successes = {}
        for f in sorted(grants, key=lambda f: rank[f]):
            count, p = grants[f], swap_prob[f]
            if p < 1.0:
                count = sum(1 for _ in range(count) if rng.random() < p)
            successes[f] = count
        return successes

    def test_equals_the_per_attempt_reference_draw_for_draw(self):
        counts = Counter()
        for seed in range(300):
            rng = random.Random(seed)
            n = rng.randint(1, 8)
            rank = rng.sample(range(n), n)
            swap_prob = [rng.choice([0.3, 0.81, 0.99, 1.0]) for _ in range(n)]
            granted = rng.sample(range(n), rng.randint(1, n))
            grants = {f: rng.choice([1, 1, 1, 2, 3, 7]) for f in granted}
            for f, count in grants.items():
                counts[count == 1, swap_prob[f] < 1.0] += 1
            fast, ref = random.Random(seed + 1000), random.Random(seed + 1000)
            done = resolve_successes(grants, fast, rank, swap_prob)
            expected = self._per_attempt(grants, ref, rank, swap_prob)
            assert list(done.items()) == list(expected.items())
            assert all(type(v) is int for v in done.values()), done  # True would pass for 1
            assert fast.getstate() == ref.getstate(), seed
        # counts of 1 and above 1, each with swap_prob below 1 and equal to 1
        assert min(counts.values()) >= 50 and len(counts) == 4, counts

    def test_successes_have_exactly_the_keys_of_the_grants(self):
        # the run adds grants and successes up in one loop over the grants'
        # keys: a flow whose every attempt fails keeps its key, with 0
        cases = Counter()
        for seed in range(200):
            rng = random.Random(seed)
            n = rng.randint(1, 8)
            swap_prob = [rng.choice([0.05, 0.5, 1.0]) for _ in range(n)]
            grants = {f: rng.choice([1, 2, 5]) for f in rng.sample(range(n), rng.randint(1, n))}
            done = resolve_successes(grants, random.Random(-seed), list(range(n)), swap_prob)
            assert list(done) == sorted(grants) and done.keys() == grants.keys(), seed
            for f, count in grants.items():
                cases[count == 1, swap_prob[f] < 1.0, done[f] == 0] += 1
        # counts of 1 and above, each with swap_prob below 1 and equal to 1,
        # and below 1 with and without 0 successes
        assert len(cases) == 6 and min(cases.values()) >= 20, cases


class TestVerifySlot:
    """engine.run checks every slot's grants against its sampled capacities."""

    @staticmethod
    def _run_tampered(slot_hook=None, success_hook=None):
        # two unit-capacity links in a line: the app's 2-hop flow takes one
        # pair of each every slot, with certain swaps
        scenario = make_scenario(
            line_graph([1.0, 1.0]), [Application(0, 0, 1.0, 1, frozenset({2}))]
        )
        schedule_slot, resolve_successes = engine._schedule_slot, engine.resolve_successes

        def kernel(state, sampled):
            result = schedule_slot(state, sampled)
            if slot_hook is not None:
                slot_hook(result)
            return result

        def successes(grants, rng, rank, swap_prob):
            done = resolve_successes(grants, rng, rank, swap_prob)
            if success_hook is not None:
                success_hook(done)
            return done

        with mock.patch.object(engine, "_schedule_slot", kernel), \
                mock.patch.object(engine, "resolve_successes", successes):
            return run(scenario)

    def test_untampered_run_passes(self):
        assert self._run_tampered().per_app[0].delivered == 100

    def test_extra_grant_breaks_conservation(self):
        def extra_grant(result):
            result.per_flow[0] += 1  # the app's one flow

        with pytest.raises(RuntimeError, match="slot 0: capacity conservation violated on edge 0"):
            self._run_tampered(slot_hook=extra_grant)

    def test_residual_off_by_one_breaks_conservation(self):
        def off_by_one(result):
            result.residual[1] += 1

        with pytest.raises(RuntimeError, match="slot 0: capacity conservation violated on edge 1"):
            self._run_tampered(slot_hook=off_by_one)

    def test_negative_grant_count(self):
        def negative(result):
            result.per_flow[0] = -1

        with pytest.raises(RuntimeError, match="slot 0: negative grant count"):
            self._run_tampered(slot_hook=negative)

    def test_successes_exceed_grants(self):
        def extra_success(done):
            done[0] += 1

        with pytest.raises(RuntimeError, match="slot 0: successes exceed grants for app 0"):
            self._run_tampered(success_hook=extra_success)


class TestKernelInputs:
    """The slot kernels check nothing they are handed, so the run, their
    one caller, must hand them capacities by link id and arrival counts by
    app id, each a non-negative int."""

    @staticmethod
    def _scenario(gen_prob=1.0, **config_overrides):
        # line 0-1-2-3 with links listed out of id order and unequal
        # capacities; the apps' arrival rates differ, so a count list out
        # of id order would queue arrivals for the wrong app
        links = [
            QuantumLink(2, (2, 3), 2, gen_prob, 1.0),
            QuantumLink(0, (0, 1), 3, gen_prob, 1.0),
            QuantumLink(1, (1, 2), 1, gen_prob, 1.0),
        ]
        nodes = [Node(i, NodeKind.COMPUTATION) for i in range(4)]
        apps = [
            Application(0, 0, 1.0, 1, frozenset({3})),
            Application(1, 1, 1.0, 1, frozenset({2}), arrival_rate=2.0),
            Application(2, 2, 1.0, 1, frozenset({3}), arrival_rate=0.5),
        ]
        return make_scenario(NetworkGraph(nodes, links), apps, slots=60, **config_overrides)

    @staticmethod
    def _kernel_calls(scenario):
        """Each slot's (capacities, counts) as the kernels received them."""
        calls = []
        enqueue, schedule = engine._enqueue_arrivals, engine._schedule_slot

        def queued(state, slot, counts):
            calls.append([None, list(counts)])
            return enqueue(state, slot, counts)

        def scheduled(state, capacities):
            calls[-1][0] = capacities.copy()
            return schedule(state, capacities)

        with mock.patch.object(engine, "_enqueue_arrivals", queued), \
                mock.patch.object(engine, "_schedule_slot", scheduled):
            run(scenario)
        assert len(calls) == scenario.config.slots
        return calls

    @pytest.mark.parametrize("mode", list(CapacityMode))
    def test_capacities_are_non_negative_ints_by_link_id(self, mode):
        gen_prob = 0.5 if mode is CapacityMode.STOCHASTIC else 1.0
        scenario = self._scenario(gen_prob, capacity_mode=mode)
        caps = [3, 1, 2]  # capacity_max by link id
        seen = set()
        for capacities, _ in self._kernel_calls(scenario):
            assert type(capacities) is list and len(capacities) == len(caps)
            assert all(type(c) is int and 0 <= c <= m for c, m in zip(capacities, caps))
            seen.add(tuple(capacities))
        if mode is CapacityMode.DETERMINISTIC:
            assert seen == {tuple(caps)}
        else:
            assert len(seen) > 1  # drawn slot by slot

    @pytest.mark.parametrize("traffic", list(Traffic))
    def test_arrival_counts_are_one_per_app_in_id_order(self, traffic):
        calls = self._kernel_calls(self._scenario(traffic=traffic))
        counts = [c for _, c in calls]
        if traffic is Traffic.BACKLOGGED:
            assert counts == [[]] * len(calls)  # a backlogged run queues nothing
            return
        assert all(len(c) == 3 and all(type(n) is int and n >= 0 for n in c) for c in counts)
        totals = [sum(column) for column in zip(*counts)]
        assert totals[0] == 0 < totals[2] < totals[1]


class TestRun:
    def test_uncontended_unit_pipe_delivers_every_slot(self):
        metrics = run(unit_pipe_scenario())
        assert metrics.per_app[0].delivered == 100
        assert metrics.per_app[0].delivered_rate == 1.0
        assert metrics.per_edge[0].utilization == 1.0

    def test_warmup_excluded_but_rate_unchanged_in_steady_state(self):
        metrics = run(unit_pipe_scenario(warmup_slots=50))
        assert metrics.measured_slots == 50
        assert metrics.per_app[0].delivered == 50
        assert metrics.per_app[0].delivered_rate == 1.0

    def test_zero_warmup_reproduces_whole_run_average(self):
        m0 = run(unit_pipe_scenario(warmup_slots=0))
        assert m0.per_app[0].delivered == m0.slots * m0.per_app[0].delivered_rate

    def test_trace_ledgers_hold_lists_by_link_id(self):
        # links listed as ids 2, 0, 1 with capacities 1, 4, 2; the one app
        # crosses all three, so each slot grants one pair on each
        nodes = [Node(i, NodeKind.COMPUTATION) for i in range(4)]
        links = [QuantumLink(i, (i, i + 1), c, 1.0, 1.0) for i, c in [(2, 1), (0, 4), (1, 2)]]
        apps = [Application(0, 0, 1.0, 1, frozenset({3}))]
        ledgers = []
        run(make_scenario(NetworkGraph(nodes, links), apps, slots=5), on_slot=ledgers.append)
        for slot, ledger in enumerate(ledgers):
            assert ledger.slot == slot
            assert ledger.sampled == [4, 2, 1] and ledger.residual == [3, 1, 0]
            assert ledger.grants == ledger.successes == {(0, 3): 1}
        # every slot holds lists of its own
        assert len({id(l.sampled) for l in ledgers}) == len(ledgers)
        assert len({id(l.residual) for l in ledgers}) == len(ledgers)

    def test_on_slot_sees_every_slot_in_order_with_the_run_seed(self):
        scenario = make_scenario(
            shared_link_graph(3), shared_link_apps([1.0, 2.0]), slots=40, warmup_slots=10
        )
        ledgers = []
        metrics = run(scenario, on_slot=ledgers.append)
        assert [l.slot for l in ledgers] == list(range(40))
        assert {l.seed for l in ledgers} == {scenario.config.seed}
        assert metrics == run(scenario)  # watching a run does not change it

    def test_on_slot_ledgers_carry_each_replication_seed(self):
        scenario = make_scenario(shared_link_graph(3), shared_link_apps([1.0]), slots=7)
        ledgers = []
        runs = replication_runs(scenario, n_replications=3, on_slot=ledgers.append)
        # each run's slots in order, runs in index order, each with its own seed
        assert [(l.seed, l.slot) for l in ledgers] == [
            (m.seed, t) for m in runs for t in range(7)
        ]
        assert len({m.seed for m in runs}) == 3

    @pytest.mark.parametrize("warmup", [100, 150])
    def test_replaced_config_with_empty_window_rejected(self, warmup):
        # the warmup of a dataclasses.replace'd config is checked by run
        # itself, with validation's wording, not met as a zero division
        scenario = unit_pipe_scenario(warmup_slots=50)
        cfg = dataclasses.replace(scenario.config, warmup_slots=warmup)
        want = f"sim.warmup: must satisfy 0 <= warmup < slots, got {warmup}"
        with pytest.raises(ConfigError, match=re.escape(want)):
            run(scenario, cfg)
        with pytest.raises(ConfigError, match=re.escape(want)):
            replication_runs(scenario, cfg, 3)
        with pytest.raises(ValidationError) as err:
            validate_scenario(scenario.graph, list(scenario.apps), cfg)
        assert want in err.value.diagnostics

    def test_one_slot_of_warmup_leaves_no_window(self):
        # 1 slot, all of it warmup: no measured slot, so no rate to divide
        scenario = unit_pipe_scenario()
        cfg = dataclasses.replace(scenario.config, slots=1, warmup_slots=1)
        want = "sim.warmup: must satisfy 0 <= warmup < slots, got 1"
        with pytest.raises(ValidationError) as err:
            validate_scenario(scenario.graph, list(scenario.apps), cfg)
        assert want in err.value.diagnostics
        with pytest.raises(ConfigError, match=re.escape(want)):
            run(scenario, cfg)

    def test_drr_converges_to_weighted_maxmin(self):
        scenario = make_scenario(
            shared_link_graph(6),
            shared_link_apps([1.0, 2.0, 3.0]),
            policy=Policy.DRR,
            slots=10_000,
        )
        metrics = run(scenario)
        for app_id, expected in ((0, 1.0), (1, 2.0), (2, 3.0)):
            assert metrics.per_app[app_id].delivered_rate == pytest.approx(
                expected, rel=0.02
            )

    def test_identical_seed_identical_metrics(self):
        scenario = make_scenario(
            shared_link_graph(3),
            shared_link_apps([1.0, 2.0]),
            capacity_mode=CapacityMode.STOCHASTIC,
            policy=Policy.DRR,
            seed=99,
        )
        la, lb = [], []
        a = run(scenario, on_slot=la.append)
        b = run(scenario, on_slot=lb.append)
        assert a == b
        assert la == lb

    def test_different_seed_differs_stochastically(self):
        graph = shared_link_graph(3, gen_prob=0.5)
        scenario = make_scenario(
            graph,
            shared_link_apps([1.0]),
            capacity_mode=CapacityMode.STOCHASTIC,
            slots=50,
        )
        la, lb = [], []
        run(scenario, on_slot=la.append)
        run(scenario, dataclasses.replace(scenario.config, seed=6), on_slot=lb.append)
        assert [l.sampled for l in la] != [l.sampled for l in lb]

    def test_capacity_stream_isolated_from_traffic_mode(self):
        graph = shared_link_graph(4, gen_prob=0.5)
        apps = shared_link_apps([1.0], arrival_rate=1.0)
        backlogged = make_scenario(
            graph, apps, capacity_mode=CapacityMode.STOCHASTIC, slots=60
        )
        poisson = make_scenario(
            graph,
            apps,
            capacity_mode=CapacityMode.STOCHASTIC,
            slots=60,
            traffic=Traffic.POISSON,
        )
        lb, lp = [], []
        run(backlogged, on_slot=lb.append)
        run(poisson, on_slot=lp.append)
        assert [l.sampled for l in lb] == [l.sampled for l in lp]

    def test_poisson_latency_recorded(self):
        graph = shared_link_graph(1)
        apps = shared_link_apps([1.0], arrival_rate=0.5)
        scenario = make_scenario(
            graph, apps, traffic=Traffic.POISSON, policy=Policy.FCFS, slots=500
        )
        metrics = run(scenario)
        assert metrics.per_app[0].mean_latency is not None
        assert metrics.per_app[0].mean_latency >= 0.0

    def test_backlogged_latency_is_none(self):
        metrics = run(unit_pipe_scenario())
        assert metrics.per_app[0].mean_latency is None

    def test_given_assignment_used(self):
        graph = NetworkGraph(
            [Node(i, NodeKind.COMPUTATION) for i in range(3)],
            [QuantumLink(0, (0, 1), 1), QuantumLink(1, (0, 2), 1)],
        )
        apps = [Application(0, 0, 1.0, 1, frozenset({1, 2}))]
        scenario = validate_scenario(
            graph,
            apps,
            SimConfig(
                slots=10,
                seed=1,
                policy=Policy.RR,
                capacity_mode=CapacityMode.DETERMINISTIC,
                assignment=AssignmentSource.GIVEN,
            ),
            {0: frozenset({2})},
        )
        ledgers = []
        run(scenario, on_slot=ledgers.append)
        assert (0, 2) in ledgers[0].grants

    def test_delivered_never_exceeds_grants(self):
        graph = line_graph([1.0, 1.0], capacity=2, swap_q=0.7)
        apps = [Application(0, 0, 1.0, 1, frozenset({2}))]
        scenario = make_scenario(graph, apps, slots=2_000)
        metrics = run(scenario)
        am = metrics.per_app[0]
        assert am.delivered <= am.grants

    @pytest.mark.parametrize(
        "policy, traffic",
        [(p, Traffic.BACKLOGGED) for p in (Policy.RR, Policy.WRR)]
        + [(p, Traffic.POISSON) for p in (Policy.RR, Policy.WRR, Policy.FCFS, Policy.DRR)],
    )
    def test_only_drr_reads_the_cost_mode(self, policy, traffic):
        # app 0 crosses both unit links of the parking lot, so its hop cost
        # is 2; under DRR with Poisson arrivals that changes the grants
        path = Path(__file__).resolve().parent.parent / "scenarios" / "parking_lot.json"
        scenario = load_scenario(str(path))
        apps = tuple(dataclasses.replace(a, arrival_rate=0.8) for a in scenario.apps)
        unit, hops = (
            run(
                dataclasses.replace(scenario, apps=apps),
                dataclasses.replace(
                    scenario.config, policy=policy, traffic=traffic, slots=500, cost_mode=mode
                ),
            )
            for mode in (CostMode.UNIT, CostMode.HOPS)
        )
        assert (unit == hops) is (policy is not Policy.DRR)


GENERATED_DIR = Path(__file__).resolve().parent / "scenarios"


class TestSlotLedger:
    """A ledger holds the slot in the kernel's index form; its ``grants``
    and ``successes`` are (app, worker) views of the flow-index dicts."""

    @staticmethod
    def _watched_run(scenario, n_replications=1):
        # each slot's kernel state, per_flow and success dicts, as run sees them
        seen = []
        schedule_slot, resolve = engine._schedule_slot, engine.resolve_successes

        def kernel(state, sampled):
            result = schedule_slot(state, sampled)
            seen.append((state, result.per_flow))
            return result

        def successes(grants, rng, rank, swap_prob):
            done = resolve(grants, rng, rank, swap_prob)
            seen[-1] += (done,)
            return done

        ledgers = []
        with mock.patch.object(engine, "_schedule_slot", kernel), \
                mock.patch.object(engine, "resolve_successes", successes):
            runs = replication_runs(scenario, n_replications=n_replications, on_slot=ledgers.append)
        return runs, ledgers, seen

    @staticmethod
    def _scenario(stem, slots=40):
        scenario = load_scenario(str(GENERATED_DIR / f"{stem}.json"))
        cfg = dataclasses.replace(scenario.config, slots=slots, warmup_slots=0)
        return dataclasses.replace(scenario, config=cfg)

    @pytest.mark.parametrize("stem", ["net60_random", "net60_poisson"])
    def test_views_equal_the_worker_keyed_dicts(self, stem):
        _, ledgers, seen = self._watched_run(self._scenario(stem), n_replications=2)
        assert len(ledgers) == len(seen) == 80
        for ledger, (state, per_flow, done) in zip(ledgers, seen):
            # each flat flow index's (app, worker), read from the kernel's state
            key = [(a, fl.worker) for a, fl in zip(state.flow_app, state.flows)]
            assert ledger.flow_grants is per_flow and ledger.flow_successes is done
            assert list(ledger.grants.items()) == [(key[f], c) for f, c in per_flow.items()]
            assert list(ledger.successes.items()) == [(key[f], c) for f, c in done.items()]
        assert any(l.successes != l.grants for l in ledgers)  # a swap failed

    def test_consecutive_ledgers_hold_dicts_of_their_own(self):
        _, ledgers, _ = self._watched_run(self._scenario("net60"))
        assert len({id(l.flow_grants) for l in ledgers}) == len(ledgers)
        assert len({id(l.flow_successes) for l in ledgers}) == len(ledgers)

    def test_every_ledger_of_a_run_shares_one_flows(self):
        runs, ledgers, seen = self._watched_run(self._scenario("net60_random", 10), 3)
        for i, m in enumerate(runs):
            run_ledgers = ledgers[10 * i : 10 * (i + 1)]
            assert {l.seed for l in run_ledgers} == {m.seed}
            assert len({id(l.flows) for l in run_ledgers}) == 1
            state = seen[10 * i][0]
            assert run_ledgers[0].flows == tuple(
                (a, fl.worker) for a, fl in zip(state.flow_app, state.flows)
            )
        # random pools: each replication has a flow table of its own
        assert len({l.flows for l in ledgers}) == 3


class TestFlowNumbering:
    @pytest.mark.parametrize("seed", range(8))
    def test_flows_are_numbered_in_app_worker_order(self, seed):
        # the trace writer's flow rows rely on this: sorted flow indices are
        # sorted (app, worker) keys, whatever order the flows come in
        scenario = validate_scenario(*parse_scenario(network_doc(seed, assignment="random")))
        cfg = scenario.config
        rng = random.Random(seed)
        assignment = engine.resolve_assignment(scenario, cfg)
        flows_by_app = {
            a: rng.sample(flows, len(flows))
            for a, flows in build_flows(scenario.graph, scenario.apps, assignment).items()
        }
        state = SchedulerState(cfg.policy, scenario.apps, flows_by_app, cfg.traffic)
        keys = [(state.flow_app[f], state.flows[f].worker) for f in range(len(state.flows))]
        assert len(keys) == sum(a.workers_needed for a in scenario.apps)
        assert all(k < k2 for k, k2 in zip(keys, keys[1:]))


def replicate(scenario, n_replications):
    return aggregate_metrics(replication_runs(scenario, n_replications=n_replications))


class TestReplicate:
    def test_single_replication_equals_its_run(self):
        scenario = unit_pipe_scenario()
        summary = replicate(scenario, n_replications=1)
        runs = replication_runs(scenario, n_replications=1)
        assert summary.n == 1
        assert summary.stats["app_0.delivered"].mean == runs[0].per_app[0].delivered
        assert summary.stats["app_0.delivered"].stddev == 0.0

    def test_one_replication_by_default(self):
        scenario = make_scenario(
            shared_link_graph(2, gen_prob=0.5),
            shared_link_apps([1.0]),
            capacity_mode=CapacityMode.STOCHASTIC,
            slots=30,
        )
        assert replication_runs(scenario) == [run(scenario)]

    def test_two_replications_have_the_sample_stddev_of_two(self):
        scenario = make_scenario(
            shared_link_graph(3, gen_prob=0.5),
            shared_link_apps([1.0]),
            capacity_mode=CapacityMode.STOCHASTIC,
            slots=80,
        )
        runs = replication_runs(scenario, n_replications=2)
        delivered = [float(m.total_delivered) for m in runs]
        assert delivered[0] != delivered[1]
        stat = aggregate_metrics(runs).stats["total_delivered"]
        assert (stat.n, stat.stddev) == (2, statistics.stdev(delivered))

    def test_deterministic_scenario_zero_stddev(self):
        summary = replicate(unit_pipe_scenario(), n_replications=5)
        for stat in summary.stats.values():
            assert stat.stddev == 0.0

    def test_clt_sanity_against_fluid_oracle(self):
        # stochastic single pipe: effective capacity 2.0/slot, swap 1.0,
        # so the long-run delivered rate oracle is 2.0
        graph = shared_link_graph(4, gen_prob=0.5)
        scenario = make_scenario(
            graph,
            shared_link_apps([1.0]),
            capacity_mode=CapacityMode.STOCHASTIC,
            slots=400,
            seed=21,
        )
        summary = replicate(scenario, n_replications=30)
        stat = summary.stats["app_0.delivered_rate"]
        assert stat.n == 30
        assert abs(stat.mean - 2.0) <= 3 * stat.stddev / math.sqrt(30) + 1e-9

    def test_three_replications_match_statistics(self):
        # aggregate_metrics imports statistics when called; its figures stay those of
        # statistics.fmean and statistics.stdev over each metric's non-None values
        scenario = make_scenario(
            shared_link_graph(3, gen_prob=0.5),
            shared_link_apps([1.0, 2.0], arrival_rate=0.8),
            capacity_mode=CapacityMode.STOCHASTIC,
            traffic=Traffic.POISSON,
            slots=80,
        )
        runs = replication_runs(scenario, n_replications=3)

        def values(key):
            head, _, attr = key.partition(".")
            if not attr:
                got = [getattr(m, head) for m in runs]
            else:
                kind, _, ident = head.partition("_")
                tables = [m.per_app if kind == "app" else m.per_edge for m in runs]
                got = [getattr(table[int(ident)], attr) for table in tables]
            return [float(v) for v in got if v is not None]

        summary = aggregate_metrics(runs)
        assert summary.n == 3
        assert {"app_1.mean_latency", "edge_0.utilization", "jain_weighted"} <= set(summary.stats)
        assert summary.stats["total_delivered"].stddev > 0
        for key, stat in summary.stats.items():
            vals = values(key)
            expected = (statistics.fmean(vals), statistics.stdev(vals), len(vals))
            assert (stat.mean, stat.stddev, stat.n) == expected, key

    def test_order_of_merge_is_by_index(self):
        scenario = make_scenario(
            shared_link_graph(2, gen_prob=0.5),
            shared_link_apps([1.0]),
            capacity_mode=CapacityMode.STOCHASTIC,
            slots=30,
        )
        runs = replication_runs(scenario, n_replications=4)
        seeds = [m.seed for m in runs]
        assert seeds == [replication_seed(scenario.config.seed, i) for i in range(4)]


class TestAssignmentSources:
    def test_random_source_is_seed_deterministic(self):
        graph = NetworkGraph(
            [Node(i, NodeKind.COMPUTATION) for i in range(3)],
            [QuantumLink(0, (0, 1), 1), QuantumLink(1, (0, 2), 1)],
        )
        apps = [Application(0, 0, 1.0, 1, frozenset({1, 2}))]
        scenario = make_scenario(
            graph, apps, assignment=AssignmentSource.RANDOM, slots=5, seed=13
        )
        la, lb = [], []
        run(scenario, on_slot=la.append)
        run(scenario, on_slot=lb.append)
        assert la[0].grants.keys() == lb[0].grants.keys()

    def test_exhaustive_source_honors_limit(self):
        from qnetfair import SearchSpaceTooLarge

        graph = NetworkGraph(
            [Node(i, NodeKind.COMPUTATION) for i in range(3)],
            [QuantumLink(0, (0, 1), 1), QuantumLink(1, (0, 2), 1)],
        )
        apps = [Application(0, 0, 1.0, 1, frozenset({1, 2}))]
        scenario = make_scenario(
            graph, apps, assignment=AssignmentSource.EXHAUSTIVE, exhaustive_limit=1, slots=5
        )
        with pytest.raises(SearchSpaceTooLarge):
            run(scenario)

    @pytest.mark.parametrize(
        "source, searches",
        [("given", 1), ("greedy", 1), ("exhaustive", 1), ("random", 3)],
    )
    def test_only_the_random_source_is_resolved_per_replication(self, source, searches):
        # the other sources draw nothing, so three replications share one search
        graph = NetworkGraph(
            [Node(i, NodeKind.COMPUTATION) for i in range(4)],
            [QuantumLink(0, (0, 1), 2), QuantumLink(1, (0, 2), 1), QuantumLink(2, (0, 3), 1)],
        )
        apps = [Application(0, 0, 1.0, 1, frozenset({1, 2, 3}))]
        scenario = make_scenario(graph, apps, slots=5)
        scenario = dataclasses.replace(scenario, given_assignment={0: frozenset({3})})
        cfg = dataclasses.replace(scenario.config, assignment=AssignmentSource(source))
        separate = [
            run(scenario, dataclasses.replace(cfg, seed=replication_seed(cfg.seed, i)))
            for i in range(3)
        ]
        resolve = mock.patch.object(engine, "resolve_assignment", wraps=engine.resolve_assignment)
        solver = f"assign_{source}" if source != "given" else "resolve_assignment"
        with resolve as resolved, mock.patch.object(
            engine, solver, wraps=getattr(engine, solver)
        ) as solved:
            assert replication_runs(scenario, cfg, 3) == separate
        assert resolved.call_count == solved.call_count == searches

    @pytest.mark.parametrize("source", ["given", "exhaustive"])
    def test_a_failing_assignment_of_replications_fails_before_any_slot(self, source):
        graph = NetworkGraph(
            [Node(i, NodeKind.COMPUTATION) for i in range(3)],
            [QuantumLink(0, (0, 1), 1), QuantumLink(1, (0, 2), 1)],
        )
        apps = [Application(0, 0, 1.0, 1, frozenset({1, 2}))]
        scenario = make_scenario(graph, apps, exhaustive_limit=1, slots=5)
        cfg = dataclasses.replace(scenario.config, assignment=AssignmentSource(source))
        error = ConfigError if source == "given" else SearchSpaceTooLarge
        ledgers = []
        with pytest.raises(error):
            replication_runs(scenario, cfg, 3, on_slot=ledgers.append)
        assert ledgers == []


def two_cpus():
    """A CPU affinity of two CPUs, so a run that draws forks its producer on any host."""
    return mock.patch.object(os, "sched_getaffinity", lambda pid: {0, 1}, create=True)


def cut_at_chunk_ints(draws):
    """Slots' draws cut into chunks of whole slots that close at the first
    slot to bring one to CHUNK_INTS ints; the last holds the slots left."""
    chunks, chunk, ints = [], [], 0
    for sampled, counts in draws:
        chunk.append((sampled, counts))
        ints += len(sampled) + len(counts)
        if ints >= engine.CHUNK_INTS:
            chunks.append(chunk)
            chunk, ints = [], 0
    return chunks + [chunk] * bool(chunk)


def reference_chunks(sample_slot, rates, rng, slots):
    """Each slot's draws made on their own, cut as ``cut_at_chunk_ints`` cuts them."""
    draws = [(sample_slot(), [poisson_sample(lam, rng) for lam in rates]) for _ in range(slots)]
    return cut_at_chunk_ints(draws)


class TestDrawProducer:
    """A run that draws capacity or arrivals reads both from a forked
    producer when it can, and they are the draws it makes in-process."""

    @staticmethod
    def _chunks(seed, links, rates, mode, slots, make):
        """The chunks of ``make``, called as ``_slot_draws`` is, on seeded streams."""
        sample = capacity_sampler(links, mode, random.Random(seed))
        return list(make(sample, rates, random.Random(-seed), slots))

    @staticmethod
    def _links(rng, n):
        return [
            QuantumLink(e, (e, e + 1), rng.randint(1, 6), rng.choice([0.5, 1.0, rng.random()]), 1.0)
            for e in range(n)
        ]

    @classmethod
    def _cases(cls):
        # 10 networks, each at 1, chunk - 1, chunk and chunk + 1 slots, a chunk
        # being the slots that first hold CHUNK_INTS ints; each pair of capacity
        # mode and traffic in turn; no links; one slot a chunk
        for seed in range(10):
            rng = random.Random(seed)
            mode = list(CapacityMode)[seed % 2]
            rates = [rng.uniform(0.0, 30.0) for _ in range(rng.randint(1, 40))]
            rates = rates if seed // 2 % 2 else []
            links = cls._links(rng, rng.randint(1, 600))
            chunk = math.ceil(engine.CHUNK_INTS / (len(links) + len(rates)))
            for slots in (1, chunk - 1, chunk, chunk + 1):
                yield seed, links, rates, mode, slots
        rates = [0.5, 3.0, 12.0]
        yield 10, [], rates, CapacityMode.STOCHASTIC, math.ceil(engine.CHUNK_INTS / len(rates)) + 1
        wide = cls._links(random.Random(11), engine.CHUNK_INTS + 1)
        yield 11, wide, [], CapacityMode.STOCHASTIC, 3

    def test_forked_and_in_process_draws_are_equal(self):
        cases = list(self._cases())
        assert len(cases) == 42 and min(slots for *_, slots in cases) == 1

        for seed, links, rates, mode, slots in cases:
            chunk = math.ceil(engine.CHUNK_INTS / (len(links) + len(rates)))

            def slot_draws(*args):  # as the run makes them, one count of slots a chunk
                return engine._slot_draws(*args, chunk)

            def sent(*args):  # the chunks that a forked producer sends
                with two_cpus(), recorded_forks() as pids:
                    with fairshare.forked(slot_draws(*args)) as feed:
                        chunks = list(feed)
                assert len(pids) == 1 and reaped(pids[0])
                return chunks

            alone = self._chunks(seed, links, rates, mode, slots, slot_draws)
            forked = self._chunks(seed, links, rates, mode, slots, sent)
            reference = self._chunks(seed, links, rates, mode, slots, reference_chunks)
            assert forked == alone == reference, (seed, slots)
            draws = [slot for chunk in forked for slot in chunk]
            assert len(draws) == slots
            assert all(len(s) == len(links) and len(c) == len(rates) for s, c in draws)

    def test_a_runs_chunks_close_at_the_first_slot_to_reach_chunk_ints(self):
        # each slot of a run draws one int per link and, under Poisson
        # traffic, one per app, so one count of slots a chunk keeps the rule
        # on ints: 114 slots on the mesh (6 links, 3 apps), CHUNK_INTS on one
        # deterministic backlogged link. A run that draws no int at all
        # sends CHUNK_INTS slots a chunk too. One CPU: the run makes its
        # draws in this process, where ``recorded`` sees them
        slot_draws, sent = engine._slot_draws, []

        def recorded(*args):
            for chunk in slot_draws(*args):
                sent.append(chunk)
                yield chunk

        mesh = load_scenario(str(GENERATED_DIR.parent.parent / "scenarios" / "mesh_poisson.json"))
        cases = [
            (dataclasses.replace(mesh, config=dataclasses.replace(mesh.config, slots=300)), 114),
            (self._scenario(slots=301), None),
            (unit_pipe_scenario(slots=2049), engine.CHUNK_INTS),
        ]
        empty = NetworkGraph([Node(0, NodeKind.COMPUTATION)], [])
        nothing = validate_scenario(empty, [], SimConfig(slots=2049, seed=1, policy=Policy.RR))
        one_cpu = mock.patch.object(os, "sched_getaffinity", lambda pid: {0}, create=True)
        with one_cpu, mock.patch.object(engine, "_slot_draws", recorded):
            for scenario, slots in cases:
                sent.clear()
                run(scenario)
                draws = [slot for chunk in sent for slot in chunk]
                assert len(draws) == scenario.config.slots
                assert sent == cut_at_chunk_ints(draws)
                assert slots is None or len(sent[0]) == slots
            sent.clear()
            run(nothing)
        assert [len(chunk) for chunk in sent] == [engine.CHUNK_INTS] * 2 + [1]
        assert all(slot == ([], []) for chunk in sent for slot in chunk)

    @staticmethod
    def _scenario(stem="net60_poisson", slots=100):
        scenario = load_scenario(str(GENERATED_DIR / f"{stem}.json"))
        cfg = dataclasses.replace(scenario.config, slots=slots, warmup_slots=0)
        return dataclasses.replace(scenario, config=cfg)

    def test_forks_only_when_it_draws(self):
        drawn = {
            (mode, traffic): unit_pipe_scenario(
                capacity_mode=mode, traffic=traffic, policy=Policy.RR
            )
            for mode in CapacityMode
            for traffic in Traffic
        }
        for (mode, traffic), scenario in drawn.items():
            with two_cpus(), recorded_forks() as pids:
                run(scenario)
            draws = mode is CapacityMode.STOCHASTIC or traffic is Traffic.POISSON
            assert len(pids) == draws and all(map(reaped, pids)), (mode, traffic)

    @pytest.mark.parametrize(
        "ending", ["return", "on_slot raises", "interrupt", "conservation"]
    )
    def test_no_producer_outlives_the_run(self, ending):
        stop = {"on_slot raises": ValueError, "interrupt": KeyboardInterrupt}.get(ending)
        kernel = engine._schedule_slot

        def on_slot(ledger):
            if stop is not None and ledger.slot == 3:
                raise stop("stop")

        def tampered(state, sampled):
            result = kernel(state, sampled)
            result.residual[0] += 1
            return result

        with two_cpus(), recorded_forks() as pids, contextlib.ExitStack() as stack:
            if ending == "conservation":
                stack.enter_context(mock.patch.object(engine, "_schedule_slot", tampered))
                stop = RuntimeError
            if stop is None:
                assert run(self._scenario(), on_slot=on_slot).measured_slots == 100
            else:
                with pytest.raises(stop):
                    run(self._scenario(), on_slot=on_slot)
        assert len(pids) == 1 and reaped(pids[0])

    def test_a_producer_still_drawing_is_killed(self):
        # on_slot stops the run at slot 0, long before the producer could
        # draw its 20,000 slots through the pipe
        statuses, waitpid = [], os.waitpid

        def recording(pid, options):
            statuses.append(waitpid(pid, options)[1])
            return pid, statuses[-1]

        def stop(ledger):
            raise ValueError("stop")

        with two_cpus(), recorded_forks() as pids, mock.patch.object(os, "waitpid", recording):
            with pytest.raises(ValueError, match="stop"):
                run(self._scenario(slots=20_000), on_slot=stop)
        assert os.WIFSIGNALED(statuses[0]) and os.WTERMSIG(statuses[0]) == signal.SIGKILL
        assert reaped(pids[0])

    def test_a_killed_producer_leaves_its_draws_to_the_run(self):
        # the producer runs at most a pipe's worth of slots ahead, far fewer
        # than the run has, so it is killed while it still draws; the run
        # then makes the draws that it did not send
        scenario, slots = self._scenario(slots=5_000), []

        def kill(ledger):
            slots.append(ledger.slot)
            if ledger.slot == 0:
                os.kill(pids[0], signal.SIGKILL)

        with two_cpus(), recorded_forks() as pids:
            killed = run(scenario, on_slot=kill)
        assert len(pids) == 1 and reaped(pids[0])
        assert slots == list(range(5_000))
        with mock.patch.object(os, "sched_getaffinity", lambda pid: {0}, create=True):
            assert killed == run(scenario)

    def test_an_error_in_the_producer_is_the_runs_own(self):
        # the 300th arrival draw fails wherever it is made: in the producer,
        # and then in the run, which makes what the producer did not send
        calls, poisson = [], engine.poisson_sample

        def failing(lam, rng):
            calls.append(None)
            if len(calls) == 300:
                raise ArithmeticError("no draw")
            return poisson(lam, rng)

        with two_cpus(), recorded_forks() as pids, \
                mock.patch.object(engine, "poisson_sample", failing):
            with pytest.raises(ArithmeticError, match="no draw"):
                run(self._scenario())
        assert len(pids) == 1 and reaped(pids[0])

    @pytest.mark.parametrize("why", ["one CPU", "another thread", "fork fails"])
    def test_runs_in_process_on_one_cpu_beside_a_thread_or_without_fork(self, why):
        scenario = self._scenario()
        with two_cpus(), recorded_forks() as pids:
            forked = run(scenario)
        assert len(pids) == 1
        with recorded_forks() as pids, contextlib.ExitStack() as stack:
            if why == "one CPU":
                stack.enter_context(
                    mock.patch.object(os, "sched_getaffinity", lambda pid: {0}, create=True)
                )
            elif why == "fork fails":
                stack.enter_context(two_cpus())
                no_process = OSError(11, "EAGAIN")
                failing = stack.enter_context(mock.patch.object(os, "fork", side_effect=no_process))
            else:
                stack.enter_context(two_cpus())
                done = threading.Event()
                thread = threading.Thread(target=done.wait)
                thread.start()
                stack.callback(thread.join)
                stack.callback(done.set)
            alone = run(scenario)
        assert pids == [] and alone == forked
        assert why != "fork fails" or failing.call_count == 1
