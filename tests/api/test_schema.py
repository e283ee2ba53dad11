"""The versioned wire documents: ``repro.api.request/v1`` round-trips
scenarios exactly, ``repro.api.result/v1`` round-trips every result type
exactly (floats included), and validation is strict — unknown keys are a
hard error on both families, so a v2 document can never half-parse as v1."""

import json

import pytest

from repro.api import RunResult, Scenario, run
from repro.api.schema import (
    REQUEST_SCHEMA,
    RESULT_SCHEMA,
    SchemaError,
    build_request,
    build_result,
    check_keys,
    result_from_document,
    result_to_document,
    validate_request,
    validate_result,
)

SCENARIO = Scenario.from_group(
    "ib", 2, 1, tensor=1, pipeline=1, data=0, global_batch_size=0,
    num_microbatches=2, trace_enabled=False, fidelity="auto",
)


def wire(doc):
    """The exact bytes a daemon or cache would emit for a document."""
    return json.dumps(doc, sort_keys=True, allow_nan=False)


class TestRequestDocuments:
    def test_build_and_validate_round_trip(self):
        doc = build_request("run", [SCENARIO], {"priority": 2})
        assert doc["schema"] == REQUEST_SCHEMA
        kind, scenarios, options = validate_request(doc)
        assert kind == "run"
        assert scenarios == [SCENARIO]
        assert options == {"priority": 2}

    def test_canonical_mapping_is_accepted_as_scenario(self):
        doc = build_request("run", [SCENARIO.canonical()], {})
        _, scenarios, _ = validate_request(doc)
        assert scenarios == [SCENARIO]

    def test_survives_json_round_trip(self):
        doc = build_request("sweep", [SCENARIO, SCENARIO], {"fidelity": "auto"})
        kind, scenarios, options = validate_request(json.loads(wire(doc)))
        assert kind == "sweep" and len(scenarios) == 2
        assert scenarios[0].digest() == SCENARIO.digest()
        assert options == {"fidelity": "auto"}

    def test_run_takes_exactly_one_scenario(self):
        with pytest.raises(SchemaError, match="exactly one"):
            build_request("run", [SCENARIO, SCENARIO])
        doc = build_request("sweep", [SCENARIO, SCENARIO])
        doc["kind"] = "plan"
        with pytest.raises(SchemaError, match="exactly one"):
            validate_request(doc)

    def test_unknown_option_rejected_both_ways(self):
        with pytest.raises(SchemaError, match="unknown keys"):
            build_request("run", [SCENARIO], {"fidelity": "auto"})
        doc = build_request("sweep", [SCENARIO], {})
        doc["options"] = {"retries": 3}
        with pytest.raises(SchemaError, match="unknown keys"):
            validate_request(doc)

    def test_unknown_top_level_key_rejected(self):
        doc = build_request("run", [SCENARIO], {})
        doc["deadline"] = "soon"
        with pytest.raises(SchemaError, match="unknown keys"):
            validate_request(doc)

    def test_wrong_schema_tag_rejected(self):
        doc = build_request("run", [SCENARIO], {})
        doc["schema"] = "repro.api.request/v2"
        with pytest.raises(SchemaError, match="request/v2"):
            validate_request(doc)

    def test_invalid_canonical_scenario_is_schema_error(self):
        doc = build_request("run", [SCENARIO], {})
        doc["scenarios"] = [{"env": "ib"}]
        with pytest.raises(SchemaError, match="scenarios\\[0\\]"):
            validate_request(doc)

    @pytest.mark.parametrize("kind,options", [
        ("run", {"priority": "high"}),
        ("run", {"priority": 1.5}),
        ("run", {"priority": True}),
        ("sweep", {"fidelity": "warp"}),
        ("sweep", {"fidelity": None}),
        ("plan", {"budget": 0}),
        ("plan", {"top_k": "4"}),
    ])
    def test_option_values_checked(self, kind, options):
        doc = build_request(kind, [SCENARIO])
        doc["options"] = options
        with pytest.raises(SchemaError, match=next(iter(options))):
            validate_request(doc)

    def test_scenario_configuration_error_is_schema_error(self):
        canonical = SCENARIO.canonical()
        canonical["fidelity"] = 7
        doc = build_request("run", [canonical])
        with pytest.raises(SchemaError, match="scenarios\\[0\\]"):
            validate_request(doc)

    def test_empty_scenarios_rejected(self):
        with pytest.raises(SchemaError, match="no scenarios"):
            build_request("sweep", [])


class TestResultEnvelope:
    def test_build_and_validate(self):
        doc = build_result("run", {"x": 1})
        assert doc["schema"] == RESULT_SCHEMA
        assert validate_result(doc) == {"x": 1}
        assert validate_result(doc, kind="run") == {"x": 1}

    def test_kind_mismatch_rejected(self):
        doc = build_result("sweep", {})
        with pytest.raises(SchemaError, match="not 'run'"):
            validate_result(doc, kind="run")

    def test_extra_envelope_key_rejected(self):
        doc = build_result("run", {})
        doc["timing"] = 1.0
        with pytest.raises(SchemaError, match="unknown keys"):
            validate_result(doc)

    def test_unknown_kind_rejected(self):
        with pytest.raises(SchemaError, match="not one of"):
            build_result("audit", {})
        with pytest.raises(SchemaError, match="not one of"):
            validate_result({"schema": RESULT_SCHEMA, "kind": "audit"})


class TestRunResultDocuments:
    def test_exact_round_trip_through_json(self):
        result = run(SCENARIO)
        doc = json.loads(wire(result.to_document()))
        parsed = RunResult.from_document(doc)
        assert parsed == result
        # and the re-serialised document is byte-identical
        assert wire(parsed.to_document()) == wire(result.to_document())

    def test_dispatch_helpers(self):
        result = run(SCENARIO)
        doc = result_to_document(result)
        assert doc["kind"] == "run"
        assert result_from_document(doc) == result

    def test_dispatch_rejects_unknown_types(self):
        with pytest.raises(SchemaError, match="no to_document"):
            result_to_document(object())
        with pytest.raises(SchemaError, match="not one of"):
            result_from_document({"schema": RESULT_SCHEMA, "kind": "x"})

    def test_from_dict_rejects_unknown_keys(self):
        result = run(SCENARIO)
        data = result.to_dict()
        data["p99_latency"] = 1.0
        with pytest.raises(ValueError, match="unknown keys"):
            RunResult.from_dict(data)

    def test_from_document_rejects_unknown_payload_keys(self):
        result = run(SCENARIO)
        doc = result.to_document()
        doc["result"] = dict(doc["result"], p99_latency=1.0)
        with pytest.raises((SchemaError, ValueError), match="unknown keys"):
            RunResult.from_document(doc)


class TestSweepOutcomeDocuments:
    def test_exact_round_trip(self):
        from repro.api import sweep

        outcome = sweep([SCENARIO, SCENARIO], on_error="collect")
        doc = json.loads(wire(outcome.to_document()))
        parsed = result_from_document(doc)
        assert [r for r in parsed.results] == [r for r in outcome.results]
        assert parsed.stats == outcome.stats
        assert wire(parsed.to_document()) == wire(outcome.to_document())

    def test_unknown_payload_key_rejected(self):
        from repro.api import sweep

        doc = sweep([SCENARIO], on_error="collect").to_document()
        doc["sweep"] = dict(doc["sweep"], quarantine=[])
        with pytest.raises(SchemaError, match="unknown keys"):
            result_from_document(doc)


class TestPlanResultDocuments:
    def test_exact_round_trip(self):
        from repro import api

        plan = api.plan(SCENARIO, budget=2, top_k=1, fidelity="auto")
        doc = json.loads(wire(plan.to_document()))
        parsed = result_from_document(doc)
        assert parsed.best.digest == plan.best.digest
        assert parsed.best.label == plan.best.label
        assert wire(parsed.to_document()) == wire(plan.to_document())

    def test_unknown_payload_key_rejected(self):
        from repro import api

        doc = api.plan(SCENARIO, budget=2, top_k=1, fidelity="auto").to_document()
        doc["plan"] = dict(doc["plan"], winner=0)
        with pytest.raises(SchemaError, match="unknown keys"):
            result_from_document(doc)


class TestCheckKeys:
    def test_missing_required(self):
        with pytest.raises(SchemaError, match="missing required"):
            check_keys({"a": 1}, required=("a", "b"), where="here")

    def test_optional_tolerated_absent_and_present(self):
        check_keys({"a": 1}, required=("a",), optional=("b",), where="here")
        check_keys({"a": 1, "b": 2}, required=("a",), optional=("b",), where="here")

    def test_non_mapping_rejected(self):
        with pytest.raises(SchemaError, match="expected a mapping"):
            check_keys([1], required=(), where="here")


class TestCacheQuarantinesUnknownKeyEntries:
    def test_newer_cache_entry_is_quarantined_not_crashed(self, tmp_path):
        """A cache entry written by a future version (extra keys) must be
        treated as corrupt — quarantined and re-executed — not crash the
        reader."""
        from repro.exec.cache import ResultCache

        cache = ResultCache(tmp_path)
        result = run(SCENARIO)
        cache.put(SCENARIO, result)
        assert cache.get(SCENARIO) == result
        # corrupt the entry the way a newer writer would: add a field
        path = cache.path_for(SCENARIO.digest())
        data = json.loads(path.read_text())
        data["result"]["p99_latency"] = 1.0
        path.write_text(json.dumps(data))
        assert cache.get(SCENARIO) is None  # quarantined, not raised
        assert cache.get(SCENARIO) is None  # stays gone
