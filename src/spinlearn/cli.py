"""Command-line front end: parameter sweeps, figure data, verification.

Angles are given on the command line in units of pi (``--theta 1.0`` is a
half turn) so the special points are exact; spins are given as ``--two-j``
integers.  Output is CSV or JSON with 12 significant digits, and identical
(config, seed) pairs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import heisenberg, memory, mo, montecarlo, optimal
from .strategies import DiscreteXYZ, HeisenbergStrategy, MOStrategy, UNotMixture

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2


@dataclass
class SweepConfig:
    command: str
    two_j_list: list[int]
    thetas: list[float]          # radians
    two_k_list: list[int] = field(default_factory=lambda: [2])
    gammas: list[float] = field(default_factory=list)
    n_uses: int = 1
    problem: int = 2
    n_samples: int = 100000
    seed: int = 0
    out: str | None = None
    fmt: str = "csv"

    def validate(self) -> None:
        if not self.two_j_list or not self.thetas:
            raise ValueError("empty parameter grid")
        if any(tj < 1 for tj in self.two_j_list):
            raise ValueError("two_j must be at least 1: a spin-0 memory carries no direction")
        if any(not (0.0 <= th < 2.0 * math.pi + 1e-12) for th in self.thetas):
            raise ValueError("theta must lie in [0, 2*pi)")
        if self.problem not in (1, 2):
            raise ValueError("problem must be 1 or 2")
        if self.n_samples < 1:
            raise ValueError("n_samples must be positive")


def _fmt_value(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, float):
        return format(x, ".12g")
    return str(x)


def _json_value(x):
    """Non-finite floats as the strings the CSV writer prints ("inf", "-inf",
    "nan"): strict JSON has no literal for them."""
    return _fmt_value(x) if isinstance(x, float) and not math.isfinite(x) else x


def write_rows(rows: list[dict], fmt: str, out: str | None) -> None:
    """Emit rows in deterministic order as CSV or JSON."""
    if not rows:
        raise ValueError("nothing to write")
    fields = list(rows[0].keys())
    if fmt == "csv":
        lines = [",".join(fields)]
        lines.extend(",".join(_fmt_value(r[f]) for f in fields) for r in rows)
        text = "\n".join(lines) + "\n"
    elif fmt == "json":
        clean = [
            {f: (_json_value(float(format(v, ".12g"))) if isinstance(v, float) else
                 (int(v) if isinstance(v, (int, np.integer)) and not isinstance(v, bool) else v))
             for f, v in r.items()}
            for r in rows
        ]
        text = json.dumps(clean, indent=2) + "\n"
    else:
        raise ValueError(f"unknown format {fmt!r}")
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="") as fh:
            fh.write(text)


def cmd_optimal(config: SweepConfig) -> list[dict]:
    """Data behind the optimal-fidelity curves (solid lines of the figures)."""
    rows = []
    for two_j in config.two_j_list:
        for theta in config.thetas:
            report = optimal.optimal_fidelity(two_j, theta, config.problem)
            rows.append({
                "two_j": two_j,
                "j": two_j / 2.0,
                "theta_pi": theta / math.pi,
                "theta": theta,
                "problem": config.problem,
                "regime": report.regime,
                "optimal_two_m": report.optimal_two_m,
                "f_quantum": report.fidelity,
            })
    return rows


def cmd_benchmark(config: SweepConfig) -> list[dict]:
    """Quantum optimum vs the classical measure-and-operate benchmark."""
    rows = []
    for two_j in config.two_j_list:
        for theta in config.thetas:
            fq = optimal.optimal_fidelity(two_j, theta, config.problem).fidelity
            fm = mo.mo_optimal_fidelity(two_j, theta, config.problem).fidelity
            rows.append({
                "two_j": two_j,
                "j": two_j / 2.0,
                "theta_pi": theta / math.pi,
                "theta": theta,
                "f_quantum": fq,
                "f_mo": fm,
                "advantage": fq - fm,
            })
    return rows


def cmd_recycle(config: SweepConfig) -> list[dict]:
    """Fidelity degradation over repeated memory uses, with the crossing step."""
    rows = []
    for two_j in config.two_j_list:
        for theta in config.thetas:
            seq = memory.recycled_fidelity(two_j, theta, config.n_uses)
            fm = mo.mo_average_fidelity(two_j, theta, config.problem)
            crossed = False
            for t, ft in enumerate(seq, start=1):
                above = bool(ft > fm)
                crossing = (not above) and not crossed
                if crossing:
                    crossed = True
                rows.append({
                    "two_j": two_j,
                    "theta_pi": theta / math.pi,
                    "t": t,
                    "f_t": float(ft),
                    "f_mo": fm,
                    "above_benchmark": above,
                    "crossing_step": crossing,
                })
    return rows


def cmd_thermal(config: SweepConfig) -> list[dict]:
    """Thermal-probe fidelity sweep and the advantage threshold gamma*."""
    gammas = config.gammas or [0.2, 0.4, 0.5493, 0.7, 1.0, 2.0]
    rows = []
    for two_j in config.two_j_list:
        for theta in config.thetas:
            fm = mo.mo_average_fidelity(two_j, theta, config.problem)
            gamma_star = memory.thermal_advantage_threshold(two_j, theta)
            for gamma in gammas:
                ft = memory.thermal_fidelity(two_j, theta, gamma)
                rows.append({
                    "two_j": two_j,
                    "theta_pi": theta / math.pi,
                    "gamma": gamma,
                    "f_thermal": ft,
                    "f_mo": fm,
                    "advantage": ft - fm,
                    "gamma_star": gamma_star,
                })
    return rows


def cmd_spin_k(config: SweepConfig) -> list[dict]:
    """Higher-spin targets: exact fidelity, asymptote, and the MO baseline."""
    rows = []
    seed_seq = np.random.SeedSequence(config.seed)
    for two_j in config.two_j_list:
        for two_k in config.two_k_list:
            for theta in config.thetas:
                f_exact = heisenberg.spin_k_fidelity(two_j, two_k, theta, "exact")
                f_asym = heisenberg.spin_k_fidelity(two_j, two_k, theta, "asymptotic")
                est, mo_asym = mo.spin_k_mo_fidelity(
                    two_j, two_k, theta, config.n_samples, seed_seq.spawn(1)[0])
                err_q = 1.0 - f_exact
                rows.append({
                    "two_j": two_j,
                    "two_k": two_k,
                    "theta_pi": theta / math.pi,
                    "f_exact": f_exact,
                    "f_asymptotic": f_asym,
                    "f_mo_mc": est.value,
                    "f_mo_std_error": est.std_error,
                    "f_mo_asymptotic": mo_asym,
                    "error_ratio_mo_quantum": (1.0 - est.value) / err_q if err_q > 0 else 0.0,
                })
    return rows


def _verify_checks(n_samples: int, seed: int) -> list[dict]:
    seq = np.random.SeedSequence(seed)
    checks = []

    def add(name: str, estimate, expected: float, sigma_budget: float = 4.0):
        n_sig = estimate.n_sigma(expected) if estimate.std_error > 0 else (
            0.0 if abs(estimate.value - expected) < 1e-9 else float("inf"))
        checks.append({
            "name": name,
            "expected": expected,
            "estimate": estimate.value,
            "std_error": estimate.std_error,
            "n_sigma": n_sig,
            "pass": bool(n_sig <= sigma_budget),
        })

    def mc(strategy, theta):
        return montecarlo.mc_average_fidelity(strategy, theta, n_samples, seq.spawn(1)[0])

    add("heisenberg_j3half_pi", mc(HeisenbergStrategy(two_j=3), math.pi), 17.0 / 24.0)
    add("mo_j3half_pi",
        mc(MOStrategy(two_j=3, two_m=3, xi_two_n=3,
                      theta_prime=mo.optimal_theta_prime(3, math.pi)), math.pi),
        29.0 / 45.0)
    add("unot_mixture_pi", mc(UNotMixture(alpha=2.0 / 3.0), math.pi), 5.0 / 9.0)
    add("discrete_xyz_pi", mc(DiscreteXYZ(), math.pi), 11.0 / 15.0)
    add("heisenberg_j5_theta_half_pi", mc(HeisenbergStrategy(two_j=10), 0.5 * math.pi),
        optimal.optimal_average_fidelity(10, 0.5 * math.pi))
    add("mo_j2_theta_2", mc(MOStrategy(two_j=4, two_m=4, xi_two_n=4,
                                       theta_prime=mo.optimal_theta_prime(4, 2.0)), 2.0),
        mo.mo_average_fidelity(4, 2.0))
    est, _ = mo.spin_k_mo_fidelity(8, 2, math.pi, n_samples, seq.spawn(1)[0])
    add("spin_k_mo_j4_k1_pi", est, spin_k_mo_quadrature(8, 2, math.pi))
    return checks


def spin_k_mo_quadrature(two_j: int, two_k: int, theta: float,
                         grid: int = 20001) -> float:
    """Quadrature reference for the spin-k MO fidelity (independent of the
    Monte-Carlo sampler; the outcome-axis azimuth drops out exactly)."""
    from .channels import average_from_entanglement

    x = np.linspace(0.0, 1.0, grid)  # cos^2(beta/2) of the estimate offset
    beta = 2.0 * np.arccos(np.sqrt(np.clip(x, 0.0, 1.0)))
    density = (two_j + 1) * x**two_j
    half = theta / 2.0
    cos_tau_half = np.abs(math.cos(half) ** 2 + math.sin(half) ** 2 * np.cos(beta))
    tau = 2.0 * np.arccos(np.clip(cos_tau_half, 0.0, 1.0))
    fe = mo._character_ratio(two_k, tau) ** 2
    val = np.trapezoid(fe * density, x)
    return average_from_entanglement(float(val), two_k + 1)


def cmd_verify(config: SweepConfig) -> tuple[list[dict], bool]:
    checks = _verify_checks(config.n_samples, config.seed)
    all_pass = all(c["pass"] for c in checks)
    return checks, all_pass


def _theta_values(args) -> list[float]:
    if args.theta is not None:
        return [args.theta * math.pi]
    n = args.theta_grid or 50
    lo = args.theta_min * math.pi
    hi = args.theta_max * math.pi
    return list(np.linspace(lo, hi, n))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinlearn",
        description="Fidelities and benchmarks for learning rotations from a spin memory.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, theta_default_max=1.0):
        p.add_argument("--two-j", type=int, nargs="+", required=True,
                       help="spin as twice-j integers (one or more)")
        p.add_argument("--theta", type=float, default=None,
                       help="single angle in units of pi")
        p.add_argument("--theta-grid", type=int, default=None,
                       help="number of grid points over [theta-min, theta-max]")
        p.add_argument("--theta-min", type=float, default=0.0)
        p.add_argument("--theta-max", type=float, default=theta_default_max)
        p.add_argument("--problem", type=int, choices=(1, 2), default=2)
        p.add_argument("--n-samples", type=int, default=100000)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", type=str, default=None)
        p.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")

    p = sub.add_parser("optimal", help="optimal quantum fidelity sweep")
    common(p)
    p = sub.add_parser("benchmark", help="quantum vs classical-memory benchmark")
    common(p)
    p = sub.add_parser("recycle", help="fidelity vs number of memory uses")
    common(p)
    p.add_argument("--n-uses", type=int, default=100)
    p = sub.add_parser("thermal", help="thermal-probe sweep and threshold")
    common(p)
    p.add_argument("--gamma", type=float, nargs="+", default=None)
    p = sub.add_parser("spin-k", help="higher-spin targets")
    common(p)
    p.add_argument("--two-k", type=int, nargs="+", default=[2])
    p = sub.add_parser("verify", help="closed-form vs Monte-Carlo oracle suite")
    p.add_argument("--n-samples", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=str, default=None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "verify":
        config = SweepConfig(command="verify", two_j_list=[3], thetas=[math.pi],
                             n_samples=args.n_samples, seed=args.seed, out=args.out)
        checks, all_pass = cmd_verify(config)
        report = {
            "seed": args.seed,
            "n_samples": args.n_samples,
            "all_pass": all_pass,
            "checks": [{k: _json_value(v) for k, v in c.items()} for c in checks],
        }
        text = json.dumps(report, indent=2, default=float) + "\n"
        if args.out is None:
            sys.stdout.write(text)
        else:
            with open(args.out, "w", newline="") as fh:
                fh.write(text)
        return EXIT_OK if all_pass else EXIT_VERIFY_FAILED

    try:
        config = SweepConfig(
            command=args.command,
            two_j_list=list(args.two_j),
            thetas=_theta_values(args),
            two_k_list=list(getattr(args, "two_k", [2])),
            gammas=list(args.gamma) if getattr(args, "gamma", None) else [],
            n_uses=getattr(args, "n_uses", 1),
            problem=args.problem,
            n_samples=args.n_samples,
            seed=args.seed,
            out=args.out,
            fmt=args.fmt,
        )
        config.validate()
        runner = {
            "optimal": cmd_optimal,
            "benchmark": cmd_benchmark,
            "recycle": cmd_recycle,
            "thermal": cmd_thermal,
            "spin-k": cmd_spin_k,
        }[args.command]
        rows = runner(config)
        write_rows(rows, config.fmt, config.out)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
