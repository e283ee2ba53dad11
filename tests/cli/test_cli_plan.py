"""Contract tests for the ``repro plan`` CLI subcommand."""

import json
import os
import subprocess
import sys

REPO_SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


def run_cli(*argv, timeout=300, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(REPO_SRC)
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True, text=True, timeout=timeout, env=env, cwd=cwd,
    )


TINY_PLAN_ARGS = (
    "plan", "--env", "hybrid", "--nodes", "2", "--gpus-per-node", "2",
    "--layers", "4", "--hidden", "256", "--heads", "4",
    "--seq-length", "512", "--batch", "16", "--micro-batch", "1",
    "--budget", "6", "--top-k", "2",
)


def test_help_lists_plan_subcommand():
    proc = run_cli("--help")
    assert proc.returncode == 0
    assert "plan" in proc.stdout
    assert "NIC-aware layout search" in proc.stdout


def test_plan_has_its_own_help():
    proc = run_cli("plan", "--help")
    assert proc.returncode == 0
    for flag in ("--budget", "--top-k", "--fidelity", "--out", "--jobs",
                 "--cache", "--resume", "--env", "--group"):
        assert flag in proc.stdout, flag


def test_plan_runs_and_emits_schema_valid_report(tmp_path):
    out = tmp_path / "plan.json"
    proc = run_cli(*TINY_PLAN_ARGS, "--out", str(out), cwd=str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert "discovered" in proc.stdout or "TFLOPS" in proc.stdout

    report = json.loads(out.read_text())
    assert report["schema"] == "repro.plan.report/v1"

    sys.path.insert(0, os.path.abspath(REPO_SRC))
    try:
        from repro.plan import validate_plan_report

        validate_plan_report(report)
    finally:
        sys.path.pop(0)

    assert report["gate"]["beats_presets"] is True
    assert report["ranking"][0] == dict(report["best"], rank=1)
    assert report["space"]["budget"] == 6
    assert report["space"]["top_k"] == 2


def test_plan_respects_jobs_and_fidelity_flags(tmp_path):
    # explicit --fidelity auto (the default) plus a parallel worker pool;
    # strict "analytic" is rejected at runtime on contended hybrid links,
    # which is the tier contract, not a CLI concern
    proc = run_cli(
        *TINY_PLAN_ARGS, "-j", "2", "--fidelity", "auto",
        cwd=str(tmp_path),
    )
    assert proc.returncode == 0, proc.stderr


def test_plan_rejects_bogus_fidelity_with_hint(tmp_path):
    proc = run_cli(*TINY_PLAN_ARGS, "--fidelity", "excuted", cwd=str(tmp_path))
    assert proc.returncode == 2
    assert "executed" in proc.stderr  # difflib close-match hint


def test_plan_rejects_unbuildable_scenario(tmp_path):
    proc = run_cli(
        "plan", "--env", "hybrid", "--nodes", "3", "--gpus-per-node", "2",
        "--layers", "4", "--hidden", "256", "--heads", "4",
        "--batch", "16", "--micro-batch", "1",
        cwd=str(tmp_path),
    )
    # hybrid needs two equal cluster halves; 3 nodes cannot split
    assert proc.returncode != 0
    assert proc.stderr.strip()


def test_plan_starts_from_the_first_feasible_layout(tmp_path):
    # (t=1, p=1, d=24) cannot split a batch of 64: the base starts at the
    # first layout that can, (1, 3, 8), instead of refusing the machine
    proc = run_cli(
        "plan", "--env", "ib", "--nodes", "3", "--layers", "8",
        "--hidden", "1024", "--heads", "8", "--batch", "64",
        "--micro-batch", "1",
        cwd=str(tmp_path),
    )
    assert proc.returncode == 0, proc.stderr
    assert "ib 3x8 [holmes-base], t1 p3 d8" in proc.stdout


def test_plan_reports_when_no_preset_fits(tmp_path):
    # at (1, 1, 32) this model needs ~177% of GPU memory, so every
    # framework preset is dropped and the report has no preset rows
    out = tmp_path / "plan.json"
    proc = run_cli(
        "plan", "--env", "ib", "--nodes", "4", "--layers", "44",
        "--hidden", "6144", "--heads", "48", "--batch", "256",
        "--micro-batch", "1", "--out", str(out),
        cwd=str(tmp_path),
    )
    assert proc.returncode == 0, proc.stderr
    assert "no framework preset fits in memory" in proc.stdout
    report = json.loads(out.read_text())
    assert report["presets"] == []
    assert not any(entry["preset"] for entry in report["ranking"])
