"""Import budget: what a cold process loads for each entry point.

Cold ``repro simulate`` is dominated by imports, so the modules each entry
point may load are pinned here.  Every check runs in a fresh interpreter:
the test session itself has long since imported everything.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

REPO_SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))
#: the numerical twin: the only modules that may import NumPy at module top
NUMPY_AT_TOP = ("nn/", "data/", "collectives/ring.py", "collectives/tree.py",
                "collectives/hierarchical.py")


def loaded_after(code: str) -> set:
    """The ``sys.modules`` keys of a fresh interpreter after it runs ``code``."""
    probe = f"{code}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=REPO_SRC)
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_importing_the_cli_loads_no_command():
    loaded = loaded_after("import repro.cli")
    forbidden = {
        "numpy",
        "repro.obs.flight",
        "repro.obs.ledger",
        "repro.obs.report",
        "repro.obs.timeline",
        "repro.core.longrun",
        "repro.core.planner",
        "repro.exec.microbench",
        "repro.plan",
        "repro.serve",
        "repro.nn",
    }
    assert not forbidden & loaded, sorted(forbidden & loaded)


def test_cli_simulate_runs_without_numpy():
    loaded = loaded_after(
        "from repro.cli import main\n"
        "main(['simulate', '--env', 'ib', '--nodes', '2', '--group', '1'])"
    )
    assert "repro.core.engine" in loaded  # the probe really simulated
    forbidden = {
        "numpy",
        "repro.hardware.config_io",  # only inline machines need the codec
        "repro.obs.flight",
        "repro.obs.ledger",
        "repro.core.planner",
        "repro.exec.microbench",
    }
    assert not forbidden & loaded, sorted(forbidden & loaded)


def test_the_http_client_commands_do_not_load_the_engine():
    # what ``repro submit --env ib --nodes 2`` runs before it sends
    loaded = loaded_after(
        "import repro.client\n"
        "from repro.cli import _submit_scenario, make_parser\n"
        "args = make_parser().parse_args(['submit', '--env', 'ib', '--nodes', '2'])\n"
        "_submit_scenario(args).topology()"
    )
    assert "repro.simcore" not in loaded
    assert "repro.core.engine" not in loaded


def test_the_daemon_imports_the_run_path_at_boot(tmp_path):
    loaded = loaded_after(
        "from repro.serve.server import ServeConfig, SimulationService\n"
        f"SimulationService(ServeConfig(cache_dir={str(tmp_path)!r}))"
    )
    from repro.serve.server import RUN_PATH_MODULES

    required = {"repro.api", "repro.exec.engine", "repro.core.engine",
                "repro.obs.flight", *RUN_PATH_MODULES}
    assert required <= loaded, sorted(required - loaded)


def test_the_daemon_serves_an_unfaulted_run_without_numpy(tmp_path):
    loaded = loaded_after(
        "from repro.api import Scenario\n"
        "from repro.client import ServeClient\n"
        "from repro.serve import ServeConfig, start_in_process\n"
        f"config = ServeConfig(port=0, cache_dir={str(tmp_path)!r})\n"
        "with start_in_process(config) as daemon:\n"
        "    ServeClient(daemon.url).run(Scenario(\n"
        "        env='ib', nodes=2, gpus_per_node=2, num_layers=4,\n"
        "        hidden_size=256, num_attention_heads=4, seq_length=128,\n"
        "        vocab_size=1024, pipeline=2, num_microbatches=2))"
    )
    assert "repro.exec.engine" in loaded  # the probe really served a run
    assert "numpy" not in loaded


def test_numpy_is_imported_at_module_top_only_by_the_numerical_twin():
    package = Path(REPO_SRC) / "repro"
    offenders = []
    for path in sorted(package.rglob("*.py")):
        relative = path.relative_to(package).as_posix()
        if relative.startswith(NUMPY_AT_TOP):
            continue
        for node in ast.parse(path.read_text()).body:
            names = []
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            if any(name.split(".")[0] == "numpy" for name in names):
                offenders.append(relative)
    assert offenders == []


def test_a_serial_sweep_loads_no_numpy():
    # the sweep cell reseeds NumPy's global RNG only where NumPy is loaded
    loaded = loaded_after(
        "from repro.api import Scenario, sweep\n"
        "sweep([Scenario(env='ib', nodes=2, gpus_per_node=2, num_layers=4,\n"
        "                hidden_size=256, num_attention_heads=4,\n"
        "                seq_length=128, vocab_size=1024, pipeline=2,\n"
        "                micro_batch_size=1, num_microbatches=2)], jobs=1)"
    )
    assert "repro.exec.engine" in loaded  # the probe really swept
    assert "numpy" not in loaded
