import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=120)


def _read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_recycling_degradation_script(tmp_path):
    out = tmp_path / "recycling.csv"
    proc = _run_script("recycling_degradation.py", "--two-j", "20", "40", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    rows = _read_rows(out)
    for two_j in (20, 40):
        above = [r["above_benchmark"] == "true" for r in rows if int(r["two_j"]) == two_j]
        # the advantage lasts j/2 uses and is lost at use j/2 + 1
        assert above.index(False) == two_j // 4 and not any(above[two_j // 4:])
        assert f"persists for {two_j // 4} uses" in proc.stdout


def test_thermal_threshold_scan_script(tmp_path):
    out = tmp_path / "thermal.csv"
    proc = _run_script("thermal_threshold_scan.py", "--two-j", "20", "--theta", "1.0",
                       "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    (row,) = _read_rows(out)
    assert float(row["gamma_star"]) == pytest.approx(0.5891923653710438, abs=1e-9)


def test_benchmark_vs_spin_script(tmp_path):
    out = tmp_path / "benchmark_vs_spin.csv"
    proc = _run_script("benchmark_vs_spin.py", "--n-samples", "2000", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    rows = _read_rows(out)
    assert [int(r["two_j"]) for r in rows] == list(range(3, 21))
    for r in rows:
        for mc, closed in (("f_quantum_mc", "f_quantum"), ("f_mo_mc", "f_mo")):
            err = float(r[mc + "_err"])
            assert err > 0.0
            assert abs(float(r[mc]) - float(r[closed])) < 4.0 * err, (r["two_j"], mc)
