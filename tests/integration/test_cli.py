"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main, make_parser
from repro.validate.scenarios import ENV_BUILDERS


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            make_parser().parse_args([])

    def test_unknown_env_rejected(self):
        with pytest.raises(SystemExit):
            make_parser().parse_args(["simulate", "--env", "carrier-pigeon"])

    def test_environments_buildable(self):
        for env in ("ib", "roce", "ethernet", "hybrid", "split-ib", "split-roce"):
            topo = ENV_BUILDERS[env](4, 8)
            assert topo.world_size == 32


class TestCommands:
    def test_topology(self, capsys):
        assert main(["topology", "--nodes", "4", "--env", "hybrid"]) == 0
        out = capsys.readouterr().out
        assert "2 cluster(s)" in out

    def test_simulate(self, capsys):
        assert main(
            ["simulate", "--nodes", "2", "--env", "ib", "--group", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "TFLOPS/GPU" in out
        assert "DP on RDMA" in out

    def test_simulate_base_flag(self, capsys):
        assert main(
            ["simulate", "--nodes", "2", "--env", "hybrid", "--group", "1",
             "--base"]
        ) == 0

    def test_compare(self, capsys):
        assert main(
            ["compare", "--nodes", "2", "--env", "hybrid", "--group", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "holmes" in out and "megatron-lm" in out

    def test_plan(self, capsys):
        assert main(
            ["plan", "--nodes", "2", "--env", "ib", "--layers", "8",
             "--hidden", "1024", "--heads", "8", "--batch", "64",
             "--micro-batch", "2", "--top", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "TFLOPS" in out

    def test_trace_export(self, tmp_path, capsys):
        output = tmp_path / "trace.json"
        assert main(
            ["trace", "--nodes", "2", "--env", "ib", "--group", "1",
             "-o", str(output)]
        ) == 0
        payload = json.loads(output.read_text())
        assert payload["traceEvents"]
        kinds = {e.get("cat") for e in payload["traceEvents"]}
        assert "compute" in kinds


class TestProfileCommand:
    def test_healthy_report_written_and_valid(self, tmp_path, capsys):
        from repro.obs.report import validate_report

        out_path = tmp_path / "report.json"
        assert main([
            "profile", "--nodes", "2", "--env", "hybrid", "--group", "1",
            "--out", str(out_path),
        ]) == 0
        report = json.loads(out_path.read_text())
        validate_report(report)
        assert report["scenario"]["env"] == "hybrid"
        assert report["scenario"]["faulted"] is False
        text = capsys.readouterr().out
        assert "time-loss budget" in text
        assert "NIC transmit utilization" in text

    def test_faulted_report_valid_and_straggler_dominates(self, tmp_path):
        from repro.obs.report import validate_report

        out_path = tmp_path / "report.json"
        assert main([
            "profile", "--nodes", "2", "--env", "hybrid", "--group", "1",
            "--event", "straggler:rank=0,factor=3",
            "--out", str(out_path),
        ]) == 0
        report = json.loads(out_path.read_text())
        validate_report(report)
        budget = report["attribution"]["budget"]
        assert budget["straggler"] == max(budget.values())
        assert report["faults"]["degraded"] is True

    def test_trace_export_with_counters_and_flows(self, tmp_path):
        trace_path = tmp_path / "trace.json"
        assert main([
            "profile", "--nodes", "2", "--env", "hybrid", "--group", "1",
            "--trace", str(trace_path),
        ]) == 0
        payload = json.loads(trace_path.read_text())
        phases = {e["ph"] for e in payload["traceEvents"]}
        assert {"X", "C", "s", "f", "M"} <= phases

    def test_bad_fault_event_rejected(self):
        with pytest.raises(SystemExit):
            main(["profile", "--nodes", "2", "--env", "hybrid",
                  "--event", "gremlins:rank=0"])


class TestCheckCommand:
    def test_check_passes_on_feasible_config(self, capsys):
        from repro.cli import main

        assert main(["check", "--nodes", "4", "--env", "hybrid",
                     "--group", "7"]) == 0
        out = capsys.readouterr().out
        assert "preflight: PASS" in out
        assert "OK" in out
        assert "DEGRADED" not in out  # Holmes keeps DP groups clean

    def test_check_reports_memory_breakdown(self, capsys):
        from repro.cli import main

        main(["check", "--nodes", "2", "--env", "ib", "--group", "1"])
        out = capsys.readouterr().out
        assert "weights+grads" in out
        assert "activations" in out


class TestReproduceCommand:
    def test_reproduce_single_experiment(self):
        from repro.cli import main

        assert main(["reproduce", "--only", "table2_param_groups"]) == 0


class TestFaultsCommand:
    def test_explicit_event(self, capsys):
        assert main([
            "faults", "--nodes", "4", "--env", "hybrid", "--group", "1",
            "--event", "nic-flap:node=0,time=0.005,duration=30",
        ]) == 0
        out = capsys.readouterr().out
        assert "healthy:" in out
        assert "faulted:" in out
        assert "slowdown:" in out
        assert "nic-flap on node 0" in out

    def test_random_plan(self, capsys):
        assert main([
            "faults", "--nodes", "2", "--env", "hybrid", "--group", "1",
            "--random", "3", "--seed", "9",
        ]) == 0
        out = capsys.readouterr().out
        assert "FaultPlan(3 events, seed=9)" in out

    def test_no_faults_rejected(self):
        with pytest.raises(SystemExit):
            main(["faults", "--nodes", "2", "--env", "hybrid"])

    def test_bad_event_spec_rejected(self):
        with pytest.raises(SystemExit):
            main(["faults", "--nodes", "2", "--env", "hybrid",
                  "--event", "gremlins:node=0"])

    def test_campaign_summary(self, capsys):
        assert main([
            "faults", "--nodes", "2", "--env", "hybrid", "--group", "1",
            "--event", "packet-loss:node=0,time=0,loss=0.05",
            "--campaign", "500000",
        ]) == 0
        out = capsys.readouterr().out
        assert "elastic campaign" in out
        assert "goodput:" in out


class TestMachineFile:
    """``--machine FILE`` carries the machine inline in the scenario: the
    same run path, and the same numbers, as the named environment."""

    def test_saved_machine_simulates_like_its_env(self, tmp_path, capsys):
        path = str(tmp_path / "m.json")
        assert main(["topology", "--env", "hybrid", "--nodes", "4",
                     "--save", path]) == 0
        capsys.readouterr()
        assert main(["simulate", "--env", "hybrid", "--nodes", "4"]) == 0
        named = capsys.readouterr().out
        assert main(["simulate", "--machine", path]) == 0
        assert capsys.readouterr().out == named

    def test_machine_json_document(self, tmp_path, capsys):
        from repro.api import RunResult

        path = str(tmp_path / "m.json")
        assert main(["topology", "--env", "hybrid", "--nodes", "4",
                     "--save", path]) == 0
        capsys.readouterr()
        assert main(["simulate", "--env", "hybrid", "--json"]) == 0
        named = RunResult.from_document(json.loads(capsys.readouterr().out))
        assert main(["simulate", "--machine", path, "--json"]) == 0
        inline = RunResult.from_document(json.loads(capsys.readouterr().out))
        assert inline.env == "custom"
        assert inline.trace_digest == named.trace_digest
        assert inline.metrics_digest == named.metrics_digest
        assert inline.tflops == named.tflops

    def test_unreadable_machine_file_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"clusters": [1]}')
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "--machine", str(path)])
        assert excinfo.value.code == 2
        assert "cannot load machine file" in capsys.readouterr().err
