"""The benchmark's workloads pass all their gates: the 1e-9 references in
``perfbench/reference.json``, the paper values and the CLI checks.

Each workload runs in a fresh process, as the benchmark runs it.  The
deterministic workloads run at full size; every workload also runs at
``--tiny`` size under the tracer, which wraps every name the benchmark
reports on, and the Monte-Carlo workload once more untraced.  The case-channel
gates of ``exact-cli`` also run in this process, at full size.
"""

import importlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import spinlearn
from spinlearn import optimal, spins
from spinlearn.channels import entanglement_fidelity
from spinlearn.strategies import CaseChoiStrategy

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    return env


def _run(tmp_path, workload, *args):
    out = tmp_path / "result.json"
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "workloads.py"), "--workload", workload,
         "--seed", "0", "--out", str(out), *args],
        cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(out.read_text())
    assert result["ops"]
    assert [f for op in result["ops"] for f in op["failures"]] == []
    return result


@pytest.mark.parametrize("workload", ["exact-cli", "recycle-large-j"])
def test_workload_gates_hold(workload, tmp_path):
    _run(tmp_path, workload, "--mode", "plain")


@pytest.mark.parametrize("workload", ["mc-oracle", "exact-cli", "recycle-large-j"])
def test_tiny_traced_workload_runs_clean(workload, tmp_path):
    result = _run(tmp_path, workload, "--tiny", "--mode", "traced")
    # each operation's function is still a traced name (`cli.verify` runs in a subprocess),
    # and the sampler's counted private boundary is still reached
    calls = result["summary"]["calls"]
    assert {op["name"] for op in result["ops"]} - set(calls) <= {"cli.verify"}
    if workload == "mc-oracle":
        assert calls["mo._povm_outcome_offsets"] > 0


def test_tiny_mc_oracle_runs_clean(tmp_path):
    _run(tmp_path, "mc-oracle", "--tiny", "--mode", "plain")


@pytest.mark.parametrize("two_j", [32, 64, 128])
def test_case_channel_gates_hold_at_full_size(two_j):
    # exact-cli's checks of optimal.case_choi_channel (case 1, m = j, theta = pi), in
    # process: trace preservation, 2j + 1 Kraus operators and the reference fidelity
    with open(os.path.join(ROOT, "perfbench", "reference.json")) as fh:
        reference = json.load(fh)
    key = f"optimal.case_choi_channel.2j{two_j}"
    channel = optimal.case_choi_channel(CaseChoiStrategy(1, two_j, two_j, math.pi))
    tp = sum(k.conj().T @ k for k in channel.kraus)
    assert np.max(np.abs(tp - np.eye(channel.dim_in))) < 1e-9
    assert len(channel.kraus) == two_j + 1 == reference[f"{key}/n_kraus"]
    probe = np.zeros(spins.dim(two_j), dtype=complex)
    probe[0] = 1.0
    target = np.diag(np.exp(-0.5j * math.pi * np.array([1.0, -1.0])))
    fe = entanglement_fidelity(channel, probe, target).value
    for expected in (reference[f"{key}/entanglement_fidelity"],
                     optimal.case_fidelity(1, two_j, two_j, math.pi)[0]):
        assert abs(fe - expected) <= 1e-9 * expected


def _resolve(name):
    module, *attrs = name.split(".")
    obj = importlib.import_module(f"spinlearn.{module}")
    for attr in attrs:
        obj = getattr(obj, attr)
    return obj


def test_every_traced_name_resolves_and_is_wrapped(monkeypatch):
    # the tracer skips a missing name without a word, and its counters then read 0
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    run, tracing = importlib.import_module("run"), importlib.import_module("tracing")
    names = sorted(tracing.EXTRA | set(tracing.COUNTERS) | set(run.SCALED))
    assert "heisenberg.HeisenbergGate.apply" in names
    plain = {name: _resolve(name) for name in names}
    assert all(callable(fn) for fn in plain.values())
    restore = tracing.install(tracing.Tracer(), spinlearn)
    try:
        unwrapped = [name for name in names if _resolve(name) is plain[name]]
    finally:
        restore()
    assert unwrapped == []
    assert all(_resolve(name) is fn for name, fn in plain.items())


def test_harness_self_test_passes():
    # the harness's own tests in a fresh process: run after this suite in one
    # process, they would see the package's caches already warm
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         os.path.join("perfbench", "test_harness.py")],
        cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
