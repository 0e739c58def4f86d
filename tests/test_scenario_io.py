import dataclasses

import pytest

from conftest import scenario_dict
from qnetfair import (
    Application,
    AssignmentSource,
    CapacityMode,
    Node,
    ParseError,
    Policy,
    QuantumLink,
    SimConfig,
    Traffic,
    ValidationError,
    load_scenario,
    parse_scenario,
)
from qnetfair import scenario_io
from qnetfair.scenario_io import read_json


class TestParseScenario:
    def test_valid_document_round_trips(self):
        graph, apps, config, given = parse_scenario(scenario_dict())
        assert len(graph.nodes) == 2 and len(graph.links) == 1
        assert apps[0].candidates == frozenset({1})
        assert config.policy is Policy.RR
        assert config.capacity_mode is CapacityMode.DETERMINISTIC
        assert given is None

    def test_unknown_key_named_with_location(self):
        data = scenario_dict()
        data["links"][0]["fidelityy"] = 0.9
        with pytest.raises(ValidationError) as exc:
            parse_scenario(data)
        assert any("links[0].fidelityy: unknown key" in d for d in exc.value.diagnostics)

    def test_unknown_top_level_key(self):
        data = scenario_dict()
        data["extra_section"] = {}
        with pytest.raises(ValidationError) as exc:
            parse_scenario(data)
        assert any("extra_section" in d for d in exc.value.diagnostics)

    def test_missing_required_section(self):
        data = scenario_dict()
        del data["sim"]
        with pytest.raises(ValidationError) as exc:
            parse_scenario(data)
        assert any("sim: missing" in d for d in exc.value.diagnostics)

    @pytest.mark.parametrize(
        "section, key, value, diag",
        [
            ("sim", "slots", "many", "sim.slots: expected integer, got 'many'"),
            # JSON reads an integer of any length; float() cannot take this one
            ("apps", "weight", 10**400, "apps[0].weight: expected a number within the float range"),
            ("links", "fidelity", 10**400,
             "links[0].fidelity: expected a number within the float range"),
        ],
        ids=["string_for_int", "weight_beyond_float", "link_key_beyond_float"],
    )
    def test_wrong_type_reported(self, section, key, value, diag):
        data = scenario_dict()
        (data["sim"] if section == "sim" else data[section][0])[key] = value
        with pytest.raises(ValidationError) as exc:
            parse_scenario(data)
        assert exc.value.diagnostics == [diag]

    def test_bool_is_not_an_integer(self):
        data = scenario_dict()
        data["sim"]["seed"] = True
        with pytest.raises(ValidationError):
            parse_scenario(data)

    def test_bad_enum_lists_valid_values(self):
        data = scenario_dict(policy="SJF")
        with pytest.raises(ValidationError) as exc:
            parse_scenario(data)
        assert any("'FCFS'" in d and "sim.policy" in d for d in exc.value.diagnostics)

    def test_bad_endpoints_shape(self):
        data = scenario_dict()
        data["links"][0]["endpoints"] = [0]
        with pytest.raises(ValidationError) as exc:
            parse_scenario(data)
        assert any("endpoints" in d for d in exc.value.diagnostics)
        # keys are read in the model's field order: a link's id before its endpoints
        data["links"][0]["id"] = "x"
        with pytest.raises(ValidationError) as exc:
            parse_scenario(data)
        assert exc.value.diagnostics == [
            "links[0].id: expected integer, got 'x'",
            "links[0].endpoints: expected a pair of node ids, got [0]",
        ]
        # an absent pair reads as null
        del data["links"][0]["endpoints"]
        with pytest.raises(ValidationError) as exc:
            parse_scenario(data)
        assert exc.value.diagnostics[1] == (
            "links[0].endpoints: expected a pair of node ids, got None"
        )

    def test_duplicate_candidates_rejected(self):
        data = scenario_dict()
        data["apps"][0]["candidates"] = [1, 1]
        with pytest.raises(ValidationError) as exc:
            parse_scenario(data)
        assert any("duplicate" in d for d in exc.value.diagnostics)

    def test_multiple_diagnostics_collected(self):
        data = scenario_dict()
        data["links"][0]["fidelityy"] = 0.9
        data["sim"]["slots"] = "many"
        with pytest.raises(ValidationError) as exc:
            parse_scenario(data)
        assert len(exc.value.diagnostics) >= 2

    def test_workers_field_parsed_as_given_pool(self):
        data = scenario_dict(assignment="given")
        data["apps"][0]["workers"] = [1]
        graph, apps, config, given = parse_scenario(data)
        assert config.assignment is AssignmentSource.GIVEN
        assert given == {0: frozenset({1})}

    def test_sim_defaults_applied(self):
        data = scenario_dict()
        for key in ("warmup", "traffic", "cost_mode", "quantum_base", "assignment",
                    "exhaustive_limit", "replications", "capacity_mode"):
            data["sim"].pop(key, None)
        _, _, config, _ = parse_scenario(data)
        assert config.warmup_slots == 0
        assert config.traffic is Traffic.BACKLOGGED
        assert config.capacity_mode is CapacityMode.STOCHASTIC
        assert config.quantum_base == 1
        assert config.replications == 1

        # every optional key of every section, omitted, reads as the model default
        optional = {}
        for section, cls in (("nodes", Node), ("links", QuantumLink), ("apps", Application),
                             ("sim", SimConfig)):
            fields = [f for f in dataclasses.fields(cls) if f.default is not dataclasses.MISSING]
            optional[section] = {f.metadata.get("key", f.name): f for f in fields}
        assert "warmup" in optional["sim"] and "warmup_slots" not in optional["sim"]
        for section, keys in optional.items():
            for obj in data[section] if section != "sim" else [data["sim"]]:
                for key in keys:
                    obj.pop(key, None)
        graph, apps, config, _ = parse_scenario(data)
        read = {"nodes": graph.nodes, "links": graph.links, "apps": apps, "sim": [config]}
        for section, keys in optional.items():
            for obj in read[section]:
                for f in keys.values():
                    assert getattr(obj, f.name) == f.default, (section, f.name)


class TestLoadScenario:
    def test_load_validates(self, write_scenario):
        path = write_scenario(scenario_dict())
        scenario = load_scenario(path)
        assert scenario.config.slots == 100

    def test_malformed_json_carries_position(self, write_scenario, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"nodes": [}', encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            load_scenario(str(path))
        assert str(exc.value).startswith("line 1 column")

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"sim": {"seed": 1, "seed": 2}}', "sim: duplicate key 'seed'"),
            ('[{"k": 1}, {"a": 0, "k": 2, "a": 3}]', "scenario[1]: duplicate key 'a'"),
            ('{"%s": 1, "%s": 2}' % ("k" * 50, "k" * 50),
             "scenario: duplicate key a value of 52 characters"),
            # the object sits under a key that repeats too, whose last value is not it
            ('{"apps": [{}, {"x": {"a": 1, "a": 2}, "x": 3}]}', "apps[1].x: duplicate key 'a'"),
            ('{"%s": {"a": 1, "a": 2}}' % ("k" * 50),
             "scenario[a value of 52 characters]: duplicate key 'a'"),
            # a locator of over 100 characters, or a rest that is not JSON,
            # and the object is not placed
            ("[" * 60 + '{"a": 1, "a": 2}' + "]" * 60, "duplicate key 'a'"),
            ('{"sim": {"seed": 1, "seed": 2}, "apps": [}', "duplicate key 'seed'"),
        ],
        ids=["sim_key", "nested_key", "long_key", "hidden_by_a_repeat", "long_path_key",
             "deep_object", "unreadable_rest"],
    )
    def test_repeated_key_is_a_parse_error(self, tmp_path, text, message):
        # json alone keeps the last value of a repeated key
        path = tmp_path / "twice.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            read_json(str(path))
        assert str(exc.value) == message

    def test_a_valid_document_is_read_once(self, write_scenario, monkeypatch):
        # the second reading that locates a repeat runs only after one is seen
        def fail(fh):
            raise AssertionError("a valid document was read again")

        monkeypatch.setattr(scenario_io, "_repeat_locator", fail)
        assert read_json(write_scenario(scenario_dict()))["sim"]["slots"] == 100
