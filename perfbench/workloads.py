"""Operation lists of the three benchmark workloads, their correctness gates,
and the worker that runs one list in a fresh process.

Run by ``run.py`` as::

    python3 perfbench/workloads.py --workload mc-oracle --seed 1 --mode plain --out result.json

``--mode plain`` times the operations with tracing off, ``traced`` records
spans (see ``tracing.py``), ``alloc`` re-runs only the operations marked for
per-span tracemalloc peaks.  ``--tiny`` shrinks every size for the harness
self-test.  ``--write-reference`` stores the deterministic observables as the
reference every later run is held to (relative tolerance 1e-9).

This module imports spinlearn only inside the worker, so ``run.py`` can use
the CLI command table without paying the package import.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")
WORKLOADS = ("mc-oracle", "exact-cli", "recycle-large-j")
N_SIGMA = 4.0
REL_TOL = 1e-9

# The README's non-verify commands, with the seed flag filled in per run.
README_COMMANDS = {
    "optimal": ["optimal", "--two-j", "3", "--theta", "1.0"],
    "benchmark": ["benchmark", "--two-j", "3", "--theta", "1.0"],
    "recycle": ["recycle", "--two-j", "200", "--theta", "1.0", "--n-uses", "60"],
    "thermal": ["thermal", "--two-j", "1000", "--theta", "1.0", "--gamma", "0.4", "0.7"],
    "spin-k": ["spin-k", "--two-j", "400", "--two-k", "2", "3", "--theta", "1.0", "--seed"],
}


def derived_seed(seed: int, label: str) -> int:
    """Deterministic 31-bit seed for one consumer of the workload seed."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:4], "little") >> 1


def cli_argv(command: str, seed: int) -> list[str]:
    argv = list(README_COMMANDS[command])
    if argv[-1] == "--seed":
        argv.append(str(derived_seed(seed, command)))
    return argv


def verify_argv(seed: int, n_samples: int = 100000) -> list[str]:
    return ["verify", "--n-samples", str(n_samples), "--seed", str(derived_seed(seed, "verify"))]


def load_reference() -> dict:
    try:
        with open(REFERENCE_PATH) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


@dataclass
class Checks:
    """Gate results of one operation: failures, observables and MC diagnostics."""

    key: str
    reference: dict | None  # None: record observables without comparing
    failures: list[str] = field(default_factory=list)
    observed: dict = field(default_factory=dict)
    mc: list[dict] = field(default_factory=list)

    def true(self, label: str, ok: bool, detail: str = "") -> None:
        if not ok:
            self.failures.append(f"{self.key}: {label} {detail}".rstrip())

    def close(self, label: str, value: float, expected: float, rel: float = REL_TOL) -> None:
        ok = abs(value - expected) <= rel * max(abs(expected), 1e-300)
        self.true(label, ok, f"{value!r} != {expected!r}")

    def ref(self, label: str, value: float) -> None:
        """Closed-form value held to the reference taken from the seed commit."""
        value = float(value)
        self.observed[label] = value
        if self.reference is None:
            return
        expected = self.reference.get(f"{self.key}/{label}")
        if expected is None:
            self.failures.append(f"{self.key}: no reference for {label}")
        else:
            self.close(f"reference {label}", value, expected)

    def sigma(self, label: str, value: float, std_error: float, n: int, expected: float) -> None:
        """Monte-Carlo estimate within N_SIGMA standard errors of its closed form."""
        n_sigma = abs(value - expected) / std_error if std_error > 0 else math.inf
        self.mc.append({"label": label, "n": n, "estimate": value, "expected": expected,
                        "std_error": std_error, "n_sigma": n_sigma})
        self.true(label, n_sigma <= N_SIGMA, f"n_sigma={n_sigma:.2f}")


@dataclass
class Op:
    name: str        # spinlearn function the operation calls
    tag: str         # size label, e.g. "2j400"; per-layer metrics group spans by it
    call: callable   # the timed call; returns the result
    check: callable  # check(result, Checks) after the timer stops, tracing paused
    alloc: bool = False  # also run in the tracemalloc pass

    @property
    def key(self) -> str:
        return f"{self.name}.{self.tag}"


def parse_csv(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def check_cli_output(command: str, text: str, chk: Checks) -> None:
    """Paper values, seed-commit references and 4-sigma MC gates on one output."""
    if command == "verify":
        report = json.loads(text)
        chk.true("all_pass", report["all_pass"] is True)
        for c in report["checks"]:
            chk.sigma(c["name"], c["estimate"], c["std_error"], int(report["n_samples"]),
                      c["expected"])
        return
    rows = parse_csv(text)
    chk.true("rows", len(rows) > 0)
    if command in ("optimal", "benchmark"):
        chk.close("paper F_quantum 17/24", float(rows[0]["f_quantum"]), 17.0 / 24.0, 1e-11)
    if command == "benchmark":
        chk.close("paper F_MO 29/45", float(rows[0]["f_mo"]), 29.0 / 45.0, 1e-11)
    if command == "recycle":
        crossing = [int(r["t"]) for r in rows if r["crossing_step"] == "true"]
        chk.true("paper crossing at t = j/2 + 1", crossing == [200 // 4 + 1], str(crossing))
    if command == "spin-k":
        for r in rows:
            quad = chk.reference.get(f"{chk.key}/quadrature_2k{r['two_k']}") if chk.reference \
                else None
            if quad is not None:
                chk.sigma(f"f_mo_mc 2k={r['two_k']}", float(r["f_mo_mc"]),
                          float(r["f_mo_std_error"]), 100000, quad)
            chk.ref(f"f_exact_2k{r['two_k']}", float(r["f_exact"]))
        return
    for i, r in enumerate(rows):
        for col, val in r.items():
            if col.startswith("f_") or col in ("gamma_star", "advantage"):
                chk.ref(f"{col}[{i}]", float(val))


# --------------------------------------------------------------------------
# operation lists (imports spinlearn; only called inside the worker)

def build_ops(workload: str, seed: int, tiny: bool, root: str) -> list[Op]:
    import numpy as np
    from spinlearn import cli, heisenberg, memory, mo, montecarlo, optimal
    from spinlearn.channels import average_from_entanglement, entanglement_fidelity
    from spinlearn.strategies import CaseChoiStrategy, HeisenbergStrategy, ThermalWrapped

    pi = math.pi
    ops: list[Op] = []

    def seeds(label):
        return np.random.SeedSequence(derived_seed(seed, label))

    if workload == "mc-oracle":
        n = 200 if tiny else 20000
        for two_j in ((2, 4, 6) if tiny else (20, 100, 400)):
            def call(two_j=two_j):
                return montecarlo.mc_average_fidelity(HeisenbergStrategy(two_j=two_j), pi, n,
                                                      seeds(f"heisenberg{two_j}"))

            def check(est, chk, two_j=two_j):
                chk.sigma("heisenberg", est.value, est.std_error, est.n_samples,
                          heisenberg.heisenberg_average_fidelity(two_j, pi))
            ops.append(Op("montecarlo.mc_average_fidelity", f"2j{two_j}", call, check))

        two_j_th, gamma = (4 if tiny else 100), 0.5

        def call_thermal():
            strategy = ThermalWrapped(HeisenbergStrategy(two_j=two_j_th), gamma)
            return montecarlo.mc_average_fidelity(strategy, pi, n, seeds("thermal"))

        def check_thermal(est, chk):
            chk.sigma("thermal", est.value, est.std_error, est.n_samples,
                      memory.thermal_fidelity(two_j_th, pi, gamma))
        ops.append(Op("montecarlo.mc_average_fidelity", "thermal", call_thermal, check_thermal))

        for two_j in ((1, 2, 3) if tiny else (3, 20, 40)):
            params = mo.MOParams(two_m=two_j, xi_two_n=two_j,
                                 theta_prime=mo.optimal_theta_prime(two_j, pi))

            def call(two_j=two_j, params=params):
                return mo.mo_mc_oracle(two_j, params, pi, n, seeds(f"mo{two_j}"))

            def check(est, chk, two_j=two_j, params=params):
                fe = mo.mo_element_fidelity(two_j, params.two_m, params.xi_two_n, pi,
                                            params.theta_prime)
                chk.sigma("mo", est.value, est.std_error, est.n_samples,
                          average_from_entanglement(fe, 2))
            ops.append(Op("mo.mo_mc_oracle", f"2j{two_j}", call, check, alloc=True))

        two_j_k = 8 if tiny else 400

        def call_spin_k():
            return mo.spin_k_mo_fidelity(two_j_k, 2, pi, n, seeds("spin_k"))

        def check_spin_k(result, chk):
            est, _ = result
            chk.sigma("spin_k_mo", est.value, est.std_error, est.n_samples,
                      cli.spin_k_mo_quadrature(two_j_k, 2, pi))
        ops.append(Op("mo.spin_k_mo_fidelity", f"2j{two_j_k}", call_spin_k, check_spin_k))

        argv = verify_argv(seed, 2000 if tiny else 100000)

        def call_verify():
            return run_cli(argv, root)

        def check_verify(proc, chk):
            chk.true("exit code 0", proc.returncode == 0, str(proc.returncode))
            if proc.returncode == 0:
                check_cli_output("verify", proc.stdout, chk)
        ops.append(Op("cli.verify", "readme", call_verify, check_verify))

    elif workload == "exact-cli":
        two_js = range(1, 4) if tiny else range(1, 101)
        argv = ["benchmark", "--two-j", *map(str, two_js), "--theta-grid", "4" if tiny else "200"]

        def call_sweep():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            return code, buf.getvalue()

        def check_sweep(result, chk):
            code, text = result
            rows = parse_csv(text)
            chk.true("exit code 0", code == 0, str(code))
            chk.true("rows", len(rows) == len(two_js) * (4 if tiny else 200), str(len(rows)))
            chk.true("quantum >= classical", all(float(r["advantage"]) >= -1e-12 for r in rows))
            chk.ref("sum_f_quantum", sum(float(r["f_quantum"]) for r in rows))
            chk.ref("sum_f_mo", sum(float(r["f_mo"]) for r in rows))
        ops.append(Op("cli.main", "sweep", call_sweep, check_sweep))

        for two_j in ((2, 4, 6) if tiny else (20, 100, 400)):
            def call(two_j=two_j):
                return heisenberg.worst_case_fidelity(two_j, pi / 2)

            def check(result, chk, two_j=two_j):
                fx, x = result
                chk.ref("worst_fidelity", fx)
                chk.ref("polar", x)
                chk.true("worst <= average",
                         fx <= heisenberg.heisenberg_average_fidelity(two_j, pi / 2) + 1e-12)
            ops.append(Op("heisenberg.worst_case_fidelity", f"2j{two_j}", call, check))

        for two_j in ((2, 4, 6) if tiny else (32, 64, 128)):
            strategy = CaseChoiStrategy(case=1, two_j=two_j, two_m=two_j, theta=pi)

            def call(strategy=strategy):
                return optimal.case_choi_channel(strategy)

            def check(channel, chk, strategy=strategy):
                tp = sum(k.conj().T @ k for k in channel.kraus)
                chk.true("trace preserving",
                         float(np.max(np.abs(tp - np.eye(channel.dim_in)))) < 1e-9)
                chk.ref("n_kraus", len(channel.kraus))
                probe = np.zeros(channel.dim_in // 2, dtype=complex)
                probe[0] = 1.0
                target = np.diag(np.exp(-0.5j * pi * np.array([1.0, -1.0])))
                fe = entanglement_fidelity(channel, probe, target).value
                chk.close("channel fidelity = case 1 closed form", fe,
                          optimal.case_fidelity(1, strategy.two_j, strategy.two_m, pi)[0])
                chk.ref("entanglement_fidelity", fe)
            ops.append(Op("optimal.case_choi_channel", f"2j{two_j}", call, check))

        two_j_k = 8 if tiny else 400
        for two_k in (2, 3):
            def call(two_k=two_k):
                return heisenberg.spin_k_fidelity(two_j_k, two_k, pi, "exact")

            def check(f_exact, chk, two_k=two_k):
                chk.ref("f_exact", f_exact)
                asym = heisenberg.spin_k_fidelity(two_j_k, two_k, pi, "asymptotic")
                if not tiny:  # the leading-order law needs large j
                    ratio = (1.0 - f_exact) / (1.0 - asym)
                    chk.true("paper spin-k error law", abs(ratio - 1.0) < 0.05, f"{ratio:.4f}")
            ops.append(Op("heisenberg.spin_k_fidelity", f"2j{two_j_k}.2k{two_k}", call, check))

    elif workload == "recycle-large-j":
        two_j_big = 40 if tiny else 20000

        def call_recycled():
            return memory.recycled_fidelity(two_j_big, pi, two_j_big)

        def check_recycled(seq, chk):
            fm = mo.mo_average_fidelity(two_j_big, pi)
            first = next((t + 1 for t, f in enumerate(seq) if f <= fm), None)
            chk.true("paper crossing at t = j/2 + 1", first == two_j_big // 4 + 1, str(first))
            chk.ref("sum", float(np.sum(seq)))
            chk.ref("last", float(seq[-1]))
        ops.append(Op("memory.recycled_fidelity", f"2j{two_j_big}", call_recycled,
                      check_recycled))

        for two_j in ((4, 8, 16) if tiny else (200, 2000, 20000)):
            for theta in (pi, pi / 2):
                def call(two_j=two_j, theta=theta):
                    return memory.persistence(two_j, theta)

                def check(rep, chk, two_j=two_j, theta=theta):
                    chk.true("not capped", not rep.capped)
                    chk.ref(f"steps_theta{theta:.4f}", rep.steps)
                    if two_j == 20000 and theta == pi:
                        chk.true("paper persistence 5000", rep.steps == 5000, str(rep.steps))
                ops.append(Op("memory.persistence", f"2j{two_j}", call, check))

        for two_j in ((4, 8) if tiny else (100, 400)):
            def call(two_j=two_j):
                return memory.longevity(two_j, pi, 0.9)

            def check(steps, chk):
                chk.ref("steps", steps)
            ops.append(Op("memory.longevity", f"2j{two_j}", call, check))

        for two_j in ((4, 8) if tiny else (20, 200, 2000, 20000)):
            def call(two_j=two_j):
                return memory.thermal_advantage_threshold(two_j, pi)

            def check(gamma_star, chk, two_j=two_j):
                chk.ref("gamma_star", gamma_star)
                if not tiny:  # gamma* -> (1/2) ln 3, within 1/(2j) on this grid
                    chk.true("paper gamma* -> ln(3)/2",
                             abs(gamma_star - 0.5 * math.log(3.0)) <= 1.0 / two_j,
                             f"{gamma_star:.6f}")
            ops.append(Op("memory.thermal_advantage_threshold", f"2j{two_j}", call, check))

        tri = (8, 4) if tiny else (400, 200)

        def call_tricomi():
            return memory.tricomi_distribution(tri[0], pi, tri[1])

        def check_tricomi(dist, chk):
            chk.ref("weight_sum", float(np.sum(dist.weights)))
            chk.ref("weight_top", float(dist.weights[0]))
        ops.append(Op("memory.tricomi_distribution", f"2j{tri[0]}", call_tricomi,
                      check_tricomi))

        two_j_re, uses = (8, 6) if tiny else (400, 200)

        def call_reopt():
            return memory.recycled_fidelity(two_j_re, pi, uses, reoptimize_f=True)

        def check_reopt(seq, chk):
            fixed = memory.recycled_fidelity(two_j_re, pi, uses)
            chk.true("reoptimized never worse", bool(np.all(seq >= fixed - 1e-12)))
            chk.ref("sum", float(np.sum(seq)))
            chk.ref("last", float(seq[-1]))
        ops.append(Op("memory.recycled_fidelity", "reoptimize", call_reopt, check_reopt))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ops


def run_cli(argv: list[str], root: str) -> subprocess.CompletedProcess:
    """One fresh-process invocation of the spinlearn CLI (environment inherited)."""
    return subprocess.run([sys.executable, "-m", "spinlearn.cli", *argv], cwd=root,
                          capture_output=True, text=True, timeout=120)


def run_ops(ops: list[Op], tracer, reference: dict | None) -> list[dict]:
    """Time each call, then gate its result with tracing paused."""
    results = []
    for op in ops:
        chk = Checks(op.key, reference)
        if tracer is not None:
            tracer.op = op.tag
            tracer.enabled = True
        start = time.perf_counter()
        try:
            result = op.call()
            error = None
        except Exception as exc:  # a failed operation is counted, not fatal
            result, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        if tracer is not None:
            tracer.enabled = False
        if error is None:
            try:
                op.check(result, chk)
            except Exception as exc:
                chk.failures.append(f"{op.key}: check raised {type(exc).__name__}: {exc}")
        else:
            chk.failures.append(f"{op.key}: {error}")
        results.append({"name": op.name, "tag": op.tag, "seconds": seconds,
                        "failures": chk.failures, "observed": chk.observed, "mc": chk.mc})
    return results


def provenance() -> dict:
    import numpy as np
    import spinlearn
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "spinlearn": spinlearn.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def worker(args) -> dict:
    root = os.path.dirname(HERE)
    import spinlearn
    ops = build_ops(args.workload, args.seed, args.tiny, root)
    reference = None if args.tiny else load_reference()
    out = {"workload": args.workload, "seed": args.seed, "mode": args.mode,
           "provenance": provenance()}
    if args.mode == "plain":
        out["ops"] = run_ops(ops, None, reference)
        return out
    import tracemalloc
    import tracing
    tracer = tracing.Tracer(alloc=args.mode == "alloc")
    tracing.install(tracer, spinlearn)
    if args.mode == "alloc":
        ops = [op for op in ops if op.alloc]
        tracemalloc.start()
    out["ops"] = run_ops(ops, tracer, reference)
    out["summary"] = tracing.summarize(tracer.spans)
    if args.spans:
        tracing.write_spans(tracer.spans, args.spans)
    return out


def write_reference() -> None:
    """Record the deterministic observables of this commit as reference.json."""
    from spinlearn import cli
    root = os.path.dirname(HERE)
    reference = {}
    for workload in ("exact-cli", "recycle-large-j"):
        for res in run_ops(build_ops(workload, 0, False, root), None, None):
            if res["failures"]:
                raise SystemExit(f"gate failed while writing the reference: {res['failures']}")
            for label, value in res["observed"].items():
                reference[f"{res['name']}.{res['tag']}/{label}"] = value
    for command in README_COMMANDS:
        chk = Checks(f"cli.{command}", None)
        check_cli_output(command, run_cli(cli_argv(command, 0), root).stdout, chk)
        reference.update({f"cli.{command}/{k}": v for k, v in chk.observed.items()})
    for two_k in (2, 3):
        reference[f"cli.spin-k/quadrature_2k{two_k}"] = cli.spin_k_mo_quadrature(400, two_k,
                                                                                 math.pi)
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--mode", choices=("plain", "traced", "alloc"), default="plain")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--out")
    parser.add_argument("--spans", default=None, help="gzip JSON-lines file for the spans")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.write_reference:
        write_reference()
        return 0
    if args.workload is None or args.out is None:
        parser.error("--workload and --out are required")
    result = worker(args)
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
