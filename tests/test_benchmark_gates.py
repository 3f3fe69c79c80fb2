"""The benchmark's deterministic workloads pass all their gates: the 1e-9
references in ``perfbench/reference.json``, the paper values and the CLI checks.

Each workload runs in a fresh process, as the benchmark runs it.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("workload", ["exact-cli", "recycle-large-j"])
def test_workload_gates_hold(workload, tmp_path):
    out = tmp_path / "result.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "workloads.py"), "--workload", workload,
         "--mode", "plain", "--seed", "0", "--out", str(out)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    ops = json.loads(out.read_text())["ops"]
    assert ops
    assert [f for op in ops for f in op["failures"]] == []
