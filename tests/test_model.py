import copy
import dataclasses
import math
import random

import pytest

from conftest import eligible_workers, line_graph
from qnetfair import (
    Application,
    AssignmentSource,
    CapacityMode,
    CostMode,
    NetworkGraph,
    Node,
    NodeKind,
    Policy,
    QuantumLink,
    SimConfig,
    Traffic,
    ValidationError,
    validate_scenario,
)
from qnetfair.model import shown
from qnetfair.validate import MAX_CAPACITY, MAX_WEIGHT, MIN_WEIGHT


def minimal_graph():
    return NetworkGraph(
        [Node(0, NodeKind.COMPUTATION), Node(1, NodeKind.COMPUTATION)],
        [QuantumLink(0, (0, 1), 1, 1.0, 1.0)],
    )


def minimal_apps():
    return [Application(0, 0, 1.0, 1, frozenset({1}))]


def minimal_config(**overrides):
    base = dict(slots=10, seed=1, policy=Policy.RR, capacity_mode=CapacityMode.DETERMINISTIC)
    base.update(overrides)
    return SimConfig(**base)


def diags_of(graph, apps, config, given=None):
    with pytest.raises(ValidationError) as exc:
        validate_scenario(graph, apps, config, given)
    return exc.value.diagnostics


@pytest.mark.parametrize(
    "value, text",
    [
        (10**20 - 1, "99999999999999999999"),
        (10**20, "an integer of 21 digits"),
        (-(10**400), "a negative integer of 401 digits"),
        (10**5000, "an integer of 5001 digits"),
        ("x" * 38, "'" + "x" * 38 + "'"),
        ("x" * 39, "a value of 41 characters"),
        ([10**20, 1], "[100000000000000000000, 1]"),
        ([10**5000], "a value too long to show"),
        (None, "None"),
    ],
    ids=["20_digits", "21_digits", "negative_401_digits", "5001_digits", "40_characters",
         "41_characters", "short_list", "list_past_str_limit", "none"],
)
def test_shown_echoes_at_most_40_characters(value, text):
    assert shown(value) == text


class TestValidScenarios:
    def test_minimal_scenario_validates(self):
        scenario = validate_scenario(minimal_graph(), minimal_apps(), minimal_config())
        assert eligible_workers(scenario.graph, scenario.apps[0]) == frozenset({1})

    def test_validation_is_pure(self):
        graph, apps, config = minimal_graph(), minimal_apps(), minimal_config()
        snapshot = copy.deepcopy(apps)
        validate_scenario(graph, apps, config)
        validate_scenario(graph, apps, config)
        assert apps == snapshot

    def test_same_input_same_diagnostics(self):
        apps = [Application(0, 0, 1.0, 3, frozenset({1}))]
        d1 = diags_of(minimal_graph(), apps, minimal_config())
        d2 = diags_of(minimal_graph(), apps, minimal_config())
        assert d1 == d2


class TestStructuralDiagnostics:
    def test_workers_needed_exceeds_candidates(self):
        apps = [Application(0, 0, 1.0, 3, frozenset({1}))]
        diags = diags_of(minimal_graph(), apps, minimal_config())
        assert any("workers_needed exceeds candidates" in d for d in diags)

    def test_fidelity_below_werner_floor(self):
        graph = NetworkGraph(
            [Node(0, NodeKind.COMPUTATION), Node(1, NodeKind.COMPUTATION)],
            [QuantumLink(0, (0, 1), 1, 1.0, 0.1)],
        )
        diags = diags_of(graph, minimal_apps(), minimal_config())
        assert any("below Werner floor 0.25" in d and d.startswith("links[0]") for d in diags)

    def test_capacity_max_bounded(self):
        def graph(capacity):
            return NetworkGraph(
                [Node(0, NodeKind.COMPUTATION), Node(1, NodeKind.COMPUTATION)],
                [QuantumLink(0, (0, 1), capacity, 0.5, 1.0)],
            )

        config = minimal_config(capacity_mode=CapacityMode.STOCHASTIC)
        validate_scenario(graph(MAX_CAPACITY), minimal_apps(), config)
        diags = diags_of(graph(MAX_CAPACITY + 1), minimal_apps(), config)
        assert diags == [f"links[0].capacity_max: must be <= 1000, got {MAX_CAPACITY + 1}"]

    def test_repeater_candidate_flagged_with_locator(self):
        graph = NetworkGraph(
            [
                Node(0, NodeKind.COMPUTATION),
                Node(1, NodeKind.COMPUTATION),
                Node(2, NodeKind.REPEATER),
            ],
            [QuantumLink(0, (0, 1), 1), QuantumLink(1, (1, 2), 1)],
        )
        apps = [
            Application(0, 0, 1.0, 1, frozenset({1})),
            Application(1, 0, 1.0, 1, frozenset({2})),
        ]
        diags = diags_of(graph, apps, minimal_config())
        assert "apps[1].candidates: node 2 is a repeater" in diags

    def test_repeater_host_rejected(self):
        graph = NetworkGraph(
            [Node(0, NodeKind.REPEATER), Node(1, NodeKind.COMPUTATION)],
            [QuantumLink(0, (0, 1), 1)],
        )
        diags = diags_of(graph, minimal_apps(), minimal_config())
        assert any("host" in d and "repeater" in d for d in diags)

    def test_host_among_candidates_rejected(self):
        apps = [Application(0, 0, 1.0, 1, frozenset({0, 1}))]
        diags = diags_of(minimal_graph(), apps, minimal_config())
        assert any("cannot be its own worker" in d for d in diags)

    def test_ids_must_be_dense(self):
        graph = NetworkGraph(
            [Node(0, NodeKind.COMPUTATION), Node(2, NodeKind.COMPUTATION)],
            [QuantumLink(0, (0, 2), 1)],
        )
        apps = [Application(0, 0, 1.0, 1, frozenset({2}))]
        diags = diags_of(graph, apps, minimal_config())
        assert any(d.startswith("nodes:") for d in diags)

    @pytest.mark.parametrize(
        "ids, line",
        [
            ([1, 2], "0 is missing, 2 is out of range"),
            ([0, 2], "1 is missing, 2 is out of range"),
            ([0, 0], "1 is missing, 0 is repeated"),
            ([10**5000], "0 is missing, an integer of 5001 digits is out of range"),
        ],
        ids=["shifted", "gap", "repeated", "long"],
    )
    def test_app_ids_must_be_dense(self, ids, line):
        apps = [Application(i, 0, 1.0, 1, frozenset({1})) for i in ids]
        top = len(ids) - 1
        assert diags_of(minimal_graph(), apps, minimal_config()) == [
            f"apps: ids must be dense integers from 0 to {top}; {line}"
        ]

    def test_link_ids_must_be_dense(self):
        graph = NetworkGraph(
            [Node(i, NodeKind.COMPUTATION) for i in range(3)],
            [QuantumLink(1, (0, 1), 1), QuantumLink(2, (1, 2), 1)],
        )
        assert diags_of(graph, minimal_apps(), minimal_config()) == [
            "links: ids must be dense integers from 0 to 1; 0 is missing, 2 is out of range"
        ]

    def test_duplicate_link_rejected(self):
        graph = NetworkGraph(
            [Node(0, NodeKind.COMPUTATION), Node(1, NodeKind.COMPUTATION)],
            [QuantumLink(0, (0, 1), 1), QuantumLink(1, (1, 0), 1)],
        )
        diags = diags_of(graph, minimal_apps(), minimal_config())
        assert any("duplicate link" in d for d in diags)

    def test_self_loop_rejected(self):
        graph = NetworkGraph(
            [Node(0, NodeKind.COMPUTATION), Node(1, NodeKind.COMPUTATION)],
            [QuantumLink(0, (1, 1), 1)],
        )
        diags = diags_of(graph, minimal_apps(), minimal_config())
        assert any("endpoints must differ" in d for d in diags)

    def test_dangling_endpoint_rejected(self):
        graph = NetworkGraph(
            [Node(0, NodeKind.COMPUTATION), Node(1, NodeKind.COMPUTATION)],
            [QuantumLink(0, (0, 7), 1)],
        )
        diags = diags_of(graph, minimal_apps(), minimal_config())
        assert any("node 7 does not exist" in d for d in diags)

    def test_swap_prob_out_of_range(self):
        graph = NetworkGraph(
            [Node(0, NodeKind.COMPUTATION, 0.0), Node(1, NodeKind.COMPUTATION)],
            [QuantumLink(0, (0, 1), 1)],
        )
        diags = diags_of(graph, minimal_apps(), minimal_config())
        assert any("swap_success_prob" in d for d in diags)


class TestConfigDiagnostics:
    # validation alone checks the scheduler's rules: a run builds its
    # SchedulerState from the validated config and does not check them again
    def test_fcfs_backlogged_rejected(self):
        diags = diags_of(
            minimal_graph(), minimal_apps(), minimal_config(policy=Policy.FCFS)
        )
        assert diags == [
            "sim.policy: FCFS is rejected with backlogged traffic "
            "(always-full queues have no arrival order)"
        ]

    def test_fcfs_poisson_accepted(self):
        validate_scenario(
            minimal_graph(),
            minimal_apps(),
            minimal_config(policy=Policy.FCFS, traffic=Traffic.POISSON),
        )

    def test_wrr_requires_integer_weights(self):
        apps = [
            Application(0, 0, 1.5, 1, frozenset({1})),
            Application(1, 0, 1.0, 1, frozenset({1})),
        ]
        diags = diags_of(minimal_graph(), apps, minimal_config(policy=Policy.WRR))
        assert diags == ["apps[0].weight: WRR needs integer weights, got 1.5"]

    @pytest.mark.parametrize("policy", [Policy.RR, Policy.DRR])
    @pytest.mark.parametrize("quantum_base", [0, -1])
    def test_quantum_base_must_be_positive(self, policy, quantum_base):
        config = minimal_config(policy=policy, quantum_base=quantum_base)
        assert diags_of(minimal_graph(), minimal_apps(), config) == [
            f"sim.quantum_base: must be >= 1, got {quantum_base}"
        ]

    def test_deterministic_capacity_must_be_integral(self):
        graph = NetworkGraph(
            [Node(0, NodeKind.COMPUTATION), Node(1, NodeKind.COMPUTATION)],
            [QuantumLink(0, (0, 1), 4, 0.3, 1.0)],
        )
        diags = diags_of(graph, minimal_apps(), minimal_config())
        assert any("integral" in d for d in diags)
        # the same link is fine under stochastic sampling
        validate_scenario(
            graph, minimal_apps(), minimal_config(capacity_mode=CapacityMode.STOCHASTIC)
        )

    @pytest.mark.parametrize(
        "capacity, prob, diag",
        [
            (4, math.nan, "links[0].gen_success_prob: must be in (0, 1], got nan"),
            (4, math.inf, "links[0].gen_success_prob: must be in (0, 1], got inf"),
            # an over-long integer is echoed as its digit count
            (
                10**400,
                0.5,
                f"links[0].capacity_max: must be <= {MAX_CAPACITY}, got an integer of 401 digits",
            ),
        ],
        ids=["nan_prob", "inf_prob", "huge_capacity"],
    )
    def test_deterministic_capacity_out_of_range_is_reported_once(self, capacity, prob, diag):
        # their product has no round(); the range diagnostic is the only one
        graph = NetworkGraph(
            [Node(0, NodeKind.COMPUTATION), Node(1, NodeKind.COMPUTATION)],
            [QuantumLink(0, (0, 1), capacity, prob, 1.0)],
        )
        assert diags_of(graph, minimal_apps(), minimal_config()) == [diag]

    def test_poisson_rate_bound(self):
        apps = [Application(0, 0, 1.0, 1, frozenset({1}), arrival_rate=31.0)]
        diags = diags_of(
            minimal_graph(), apps, minimal_config(traffic=Traffic.POISSON)
        )
        assert any("arrival_rate" in d for d in diags)

    @pytest.mark.parametrize(
        "field, value, text",
        [
            ("weight", math.nan, "apps[0].weight: must be > 0, got nan"),
            ("weight", math.inf, "apps[0].weight: must be finite, got inf"),
            ("weight", -math.inf, "apps[0].weight: must be > 0, got -inf"),
            # finite, but a flow's share underflows or the weighted rates leave the normal floats
            ("weight", 5e-324, "apps[0].weight: must be in [1e-15, 1e+15], got 5e-324"),
            ("weight", 1e-320, "apps[0].weight: must be in [1e-15, 1e+15], got 1e-320"),
            ("weight", 9.99e-16, "apps[0].weight: must be in [1e-15, 1e+15], got 9.99e-16"),
            ("weight", 1.01e15, "apps[0].weight: must be in [1e-15, 1e+15], got 1010000000000000.0"),
            ("weight", 1e308, "apps[0].weight: must be in [1e-15, 1e+15], got 1e+308"),
            ("arrival_rate", math.nan, "apps[0].arrival_rate: must be >= 0, got nan"),
            ("arrival_rate", math.inf, "apps[0].arrival_rate: must be finite, got inf"),
            ("arrival_rate", -math.inf, "apps[0].arrival_rate: must be >= 0, got -inf"),
        ],
    )
    @pytest.mark.parametrize("traffic", [Traffic.BACKLOGGED, Traffic.POISSON])
    def test_non_finite_weight_and_rate_rejected(self, field, value, text, traffic):
        apps = [dataclasses.replace(minimal_apps()[0], **{field: value})]
        diags = diags_of(minimal_graph(), apps, minimal_config(traffic=traffic))
        assert diags == [text]  # one diagnostic, not also the Poisson rate bound

    @pytest.mark.parametrize("weight", [MIN_WEIGHT, MAX_WEIGHT])
    def test_weight_bounds_are_inclusive(self, weight):
        apps = [dataclasses.replace(minimal_apps()[0], weight=weight)]
        validate_scenario(minimal_graph(), apps, minimal_config())

    def test_finite_weight_and_rate_texts_unchanged(self):
        apps = [Application(0, 0, -1.0, 1, frozenset({1}), arrival_rate=-0.5)]
        assert diags_of(minimal_graph(), apps, minimal_config()) == [
            "apps[0].weight: must be > 0, got -1.0",
            "apps[0].arrival_rate: must be >= 0, got -0.5",
        ]
        apps = [Application(0, 0, 1.0, 1, frozenset({1}), arrival_rate=31.0)]
        assert diags_of(minimal_graph(), apps, minimal_config(traffic=Traffic.POISSON)) == [
            "apps[0].arrival_rate: exact Poisson sampling requires rate <= 30.0, got 31.0"
        ]

    def test_warmup_must_be_below_slots(self):
        diags = diags_of(
            minimal_graph(), minimal_apps(), minimal_config(slots=10, warmup_slots=10)
        )
        assert any("warmup" in d for d in diags)


class TestDRRQuantumDiagnostics:
    """Under DRR a grant of an app's dearest flow may wait at most
    MAX_DRR_PASSES fruitless passes, and every quantum is a finite float."""

    def test_pass_bound_is_inclusive_and_drr_only(self):
        drr = minimal_config(policy=Policy.DRR)
        validate_scenario(minimal_graph(), [Application(0, 0, 1e-3, 1, frozenset({1}))], drr)
        apps = [
            Application(0, 0, 1.0, 1, frozenset({1})),
            Application(1, 0, 9e-4, 1, frozenset({1})),
        ]
        assert diags_of(minimal_graph(), apps, drr) == [
            "apps[1].weight: DRR quantum sim.quantum_base * weight must be finite and >= 0.001 "
            "(flow cost 1 / 1000 passes), got 0.0009"
        ]
        validate_scenario(minimal_graph(), apps, minimal_config())  # RR has no quanta
        validate_scenario(minimal_graph(), apps, dataclasses.replace(drr, quantum_base=2))

    def test_hops_mode_bounds_the_longest_eligible_flow(self):
        # worker 1 is one hop from host 0 and worker 3 three; both are eligible
        graph = line_graph([1.0, 1.0, 1.0])
        apps = [Application(0, 0, 0.002, 1, frozenset({1, 3}))]
        validate_scenario(graph, apps, minimal_config(policy=Policy.DRR))
        hops = minimal_config(policy=Policy.DRR, cost_mode=CostMode.HOPS)
        assert diags_of(graph, apps, hops) == [
            "apps[0].weight: DRR quantum sim.quantum_base * weight must be finite and >= 0.003 "
            "(flow cost 3 / 1000 passes), got 0.002"
        ]

    def test_quantum_must_be_a_finite_float(self):
        apps = [
            Application(0, 0, 1.0, 1, frozenset({1})),
            Application(1, 0, MAX_WEIGHT, 1, frozenset({1})),
        ]
        text = (
            "DRR quantum sim.quantum_base * weight must be finite and >= 0.001 "
            "(flow cost 1 / 1000 passes), got inf"
        )
        config = minimal_config(policy=Policy.DRR, quantum_base=10**294)
        assert diags_of(minimal_graph(), apps, config) == [f"apps[1].weight: {text}"]
        config = minimal_config(policy=Policy.DRR, quantum_base=10**400)  # int * float overflows
        assert diags_of(minimal_graph(), apps, config) == [
            f"apps[0].weight: {text}", f"apps[1].weight: {text}"
        ]


class TestEligibilityDiagnostics:
    def test_insufficient_eligible_workers(self):
        # candidate 2 is unreachable, so a two-worker pool cannot form
        graph = NetworkGraph(
            [
                Node(0, NodeKind.COMPUTATION),
                Node(1, NodeKind.COMPUTATION),
                Node(2, NodeKind.COMPUTATION),
            ],
            [QuantumLink(0, (0, 1), 1)],
        )
        apps = [Application(0, 0, 1.0, 2, frozenset({1, 2}))]
        diags = diags_of(graph, apps, minimal_config())
        assert any("eligible workers" in d for d in diags)

    def test_locators_use_file_position_not_app_id(self):
        # apps listed as [id 1, id 0]; node 2 is unreachable from host 0
        graph = NetworkGraph(
            [Node(i, NodeKind.COMPUTATION) for i in range(3)],
            [QuantumLink(0, (0, 1), 1)],
        )
        reachable = Application(1, 0, 1.0, 1, frozenset({1}))
        stranded = Application(0, 0, 1.0, 1, frozenset({2}))
        diags = diags_of(graph, [reachable, stranded], minimal_config())
        assert diags == [
            "apps[1]: only 0 eligible workers (reachable with fidelity >= 0.25), needs 1"
        ]

        config = minimal_config(assignment=AssignmentSource.GIVEN)
        apps = [reachable, Application(0, 0, 1.0, 1, frozenset({1}))]
        diags = diags_of(graph, apps, config, {1: frozenset({1})})
        assert diags == ["apps[1].workers: required when sim.assignment is 'given'"]
        scenario = validate_scenario(graph, apps, minimal_config())
        assert {a.id: eligible_workers(graph, a) for a in scenario.apps} == {
            0: frozenset({1}),
            1: frozenset({1}),
        }

    def test_given_assignment_checked(self):
        config = minimal_config(assignment=AssignmentSource.GIVEN)
        diags = diags_of(minimal_graph(), minimal_apps(), config, given=None)
        assert any("given" in d for d in diags)
        scenario = validate_scenario(
            minimal_graph(), minimal_apps(), config, {0: frozenset({1})}
        )
        assert scenario.given_assignment == {0: frozenset({1})}

    def test_given_assignment_wrong_size(self):
        config = minimal_config(assignment=AssignmentSource.GIVEN)
        diags = diags_of(
            minimal_graph(), minimal_apps(), config, {0: frozenset()}
        )
        assert any("expected 1 workers" in d for d in diags)

    def test_given_assignment_outside_candidates(self):
        config = minimal_config(assignment=AssignmentSource.GIVEN)
        diags = diags_of(
            minimal_graph(), minimal_apps(), config, {0: frozenset({0})}
        )
        assert any("not among candidates" in d for d in diags)


class TestFuzzedScenarios:
    """Random corruption never slips through: either validation raises or
    every invariant holds on the returned scenario."""

    def _valid_parts(self, rng):
        n_comp = rng.randint(2, 4)
        nodes = [Node(i, NodeKind.COMPUTATION, rng.uniform(0.5, 1.0)) for i in range(n_comp)]
        links = [
            QuantumLink(i, (i, i + 1), rng.randint(1, 3), 1.0, rng.uniform(0.3, 1.0))
            for i in range(n_comp - 1)
        ]
        apps = [
            Application(0, 0, rng.choice([1.0, 2.0]), 1, frozenset({n_comp - 1}))
        ]
        return NetworkGraph(nodes, links), apps, minimal_config()

    def _corrupt(self, rng, graph, apps, config):
        choice = rng.randrange(8)
        nodes, links = list(graph.nodes), list(graph.links)
        if choice == 0:
            links[0] = QuantumLink(0, links[0].endpoints, links[0].capacity_max, 1.0, 0.1)
        elif choice == 1:
            links[0] = QuantumLink(0, (0, 99), links[0].capacity_max)
        elif choice == 2:
            apps = [Application(0, 0, -1.0, 1, apps[0].candidates)]
        elif choice == 3:
            apps = [Application(0, 0, 1.0, 9, apps[0].candidates)]
        elif choice == 4:
            config = SimConfig(slots=10, seed=1, policy=Policy.FCFS)
        elif choice == 5:
            nodes[0] = Node(0, NodeKind.REPEATER)
        elif choice == 6:
            apps = [Application(0, 0, 1.0, 1, apps[0].candidates, min_fidelity=2.0)]
        else:
            links[0] = QuantumLink(0, links[0].endpoints, 0)
        return NetworkGraph(nodes, links), apps, config

    def test_corrupted_scenarios_never_validate(self):
        rng = random.Random(777)
        for _ in range(200):
            graph, apps, config = self._valid_parts(rng)
            graph, apps, config = self._corrupt(rng, graph, apps, config)
            with pytest.raises(ValidationError):
                validate_scenario(graph, apps, config)

    def test_validated_scenarios_satisfy_invariants(self):
        rng = random.Random(778)
        for _ in range(100):
            graph, apps, config = self._valid_parts(rng)
            scenario = validate_scenario(graph, apps, config)
            for node in scenario.graph.nodes:
                assert 0.0 < node.swap_success_prob <= 1.0
            for link in scenario.graph.links:
                assert link.capacity_max >= 1
                assert 0.0 < link.gen_success_prob <= 1.0
                assert 0.25 <= link.fidelity <= 1.0
            for app in scenario.apps:
                assert app.weight > 0
                assert app.workers_needed <= len(app.candidates)
                assert app.host not in app.candidates
                assert len(eligible_workers(scenario.graph, app)) >= app.workers_needed
