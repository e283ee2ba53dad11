"""The CI benchmark emitter: BENCH JSON shape and the drift gate."""

import json

import pytest

from benchmarks.emit_bench import BENCH_SCHEMA, check_drift, main, run_bench
from repro.obs.report import validate_report


@pytest.fixture(scope="module")
def bench(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("bench")
    assert main(["--nodes", "2", "--out-dir", str(out_dir)]) == 0
    files = list(out_dir.glob("BENCH_*.json"))
    assert len(files) == 1
    return json.loads(files[0].read_text())


class TestBenchDocument:
    def test_schema_and_scenarios(self, bench):
        assert bench["schema"] == BENCH_SCHEMA
        assert set(bench["cases"]) == {"ib", "roce", "ethernet"}

    def test_each_case_embeds_a_valid_profile_report(self, bench):
        for name, case in bench["cases"].items():
            assert case["tflops_per_gpu"] > 0, name
            assert case["iteration_seconds"] > 0, name
            validate_report(case["report"])

    def test_serve_overhead_point(self, bench):
        serve = bench["serve"]
        assert serve["repeats"] >= 3
        assert serve["served_ms"] > 0
        assert serve["inproc_ms"] >= 0
        assert serve["overhead_ms"] == pytest.approx(
            serve["served_ms"] - serve["inproc_ms"])

class TestDriftGate:
    def test_self_comparison_passes(self, bench, capsys):
        assert check_drift(bench, bench, tolerance=0.02) == 0

    def test_drift_beyond_tolerance_fails(self, bench, capsys):
        reference = json.loads(json.dumps(bench))
        reference["cases"]["ib"]["tflops_per_gpu"] *= 1.10
        assert check_drift(bench, reference, tolerance=0.02) == 1
        assert "drift" in capsys.readouterr().err

    def test_missing_scenario_in_reference_fails(self, bench, capsys):
        reference = {"cases": {}}
        assert check_drift(bench, reference, tolerance=0.02) == 1

    def test_serve_overhead_above_ceiling_fails(self, bench, capsys):
        reference = json.loads(json.dumps(bench))
        reference["serve"] = {"max_overhead_ms": -1.0}
        assert check_drift(bench, reference, tolerance=0.02) == 1
        assert "serve" in capsys.readouterr().err

    def test_fidelity_point_records_the_analytic_tier(self, bench):
        fidelity = bench["fidelity"]
        assert fidelity["analytic_engaged"] is True
        assert fidelity["analytic_equals_auto"] is True
        assert fidelity["speedup"] > 0  # informational, not gated

    @pytest.mark.parametrize("field,value", [
        ("analytic_engaged", False),
        ("analytic_equals_auto", False),
        ("worst_rel_deviation", 0.5),
    ])
    def test_fidelity_gate_fails(self, bench, capsys, field, value):
        tampered = json.loads(json.dumps(bench))
        tampered["fidelity"][field] = value
        reference = {"cases": bench["cases"],
                     "fidelity": {"max_rel_deviation": 0.02}}
        assert check_drift(tampered, reference, tolerance=0.02) == 1
        assert "fidelity" in capsys.readouterr().err

    def test_slow_executed_tier_does_not_trip_the_gate(self, bench):
        """The gate no longer reads the wall-time ratio: an executed tier
        that got faster (or an auto tier on a slow runner) is not a
        fast-path regression."""
        tampered = json.loads(json.dumps(bench))
        tampered["fidelity"]["speedup"] = 1.0
        assert check_drift(tampered, tampered, tolerance=0.02) == 0

    def test_committed_reference_matches_current_model(self):
        """The committed 4-node reference must match a fresh run — the
        same gate CI applies on every push."""
        bench = run_bench(nodes=4, group_id=1)
        with open("benchmarks/bench_reference.json") as fh:
            reference = json.load(fh)
        assert check_drift(bench, reference, tolerance=0.02) == 0
        # at the calibrated Table 1 point the NIC families rank as in the
        # paper: InfiniBand > RoCE > Ethernet
        cases = bench["cases"]
        assert (
            cases["ib"]["tflops_per_gpu"]
            > cases["roce"]["tflops_per_gpu"]
            > cases["ethernet"]["tflops_per_gpu"]
        )
