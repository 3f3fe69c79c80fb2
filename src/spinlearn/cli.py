"""Command-line front end: parameter sweeps, figure data, verification.

Angles are given on the command line in units of pi (``--theta 1.0`` is a
half turn) so the special points are exact; spins are given as ``--two-j``
integers.  Output is CSV or JSON with 12 significant digits, and identical
(config, seed) pairs produce byte-identical files.  numpy is bound lazily
(``spinlearn._numpy``): ``optimal``, ``benchmark``, ``thermal`` and ``recycle`` at one ``--theta``
never execute it, but ``optimal`` and ``benchmark`` do for the 2 x 2 M of the j = 1/2, 1 windows.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import heisenberg, memory, mo, optimal, spins
from ._numpy import np
from .mo import spin_k_mo_quadrature  # public here too: callers of cli use this name
from .strategies import DiscreteXYZ, HeisenbergStrategy, MOStrategy, UNotMixture

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2


def _fmt_value(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if spins._is_integer(x):
        return str(int(x))
    if isinstance(x, float):
        return format(x, ".12g")
    return str(x)


_fmt_float = "{:.12g}".format  # format(x, ".12g") without a Python frame per cell

# The cell formatters of the row values' exact types; _fmt_value is the fallback.
_CELL_FORMAT = {
    float: _fmt_float,
    int: str,
    bool: _fmt_value,
}


def _json_value(x):
    """Non-finite floats as the strings the CSV writer prints ("inf", "-inf",
    "nan"): strict JSON has no literal for them."""
    return _fmt_value(x) if isinstance(x, float) and not math.isfinite(x) else x


def _json_cell(x):
    """A row value as JSON: floats at the CSV's 12 digits, integers as int."""
    if isinstance(x, float):
        return _json_value(float(_fmt_float(x)))
    return int(x) if not isinstance(x, int) and spins._is_integer(x) else x  # bool stays bool


def write_rows(rows: list[dict], fmt: str, out: str | None) -> None:
    """Emit rows in deterministic order as CSV or JSON."""
    if not rows:
        raise ValueError("nothing to write")
    fields = list(rows[0].keys())
    if fmt == "csv":
        cell = _CELL_FORMAT.get
        lines = [",".join(fields)]
        lines.extend(",".join([cell(type(r[f]), _fmt_value)(r[f]) for f in fields]) for r in rows)
        text = "\n".join(lines) + "\n"
    elif fmt == "json":
        clean = [{f: _json_cell(v) for f, v in r.items()} for r in rows]
        text = json.dumps(clean, indent=2) + "\n"
    else:
        raise ValueError(f"unknown format {fmt!r}")
    _emit(text, out)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="") as fh:
            fh.write(text)


def cmd_optimal(args, thetas: list[float]) -> list[dict]:
    """Data behind the optimal-fidelity curves (solid lines of the figures)."""
    rows = []
    for two_j in args.two_j:
        for theta in thetas:
            report = optimal.optimal_fidelity(two_j, theta, args.problem)
            rows.append({
                "two_j": two_j,
                "j": two_j / 2.0,
                "theta_pi": theta / math.pi,
                "theta": theta,
                "problem": args.problem,
                "regime": report.regime,
                "optimal_two_m": report.optimal_two_m,
                "f_quantum": report.fidelity,
            })
    return rows


def cmd_benchmark(args, thetas: list[float]) -> list[dict]:
    """Quantum optimum vs the classical measure-and-operate benchmark."""
    rows = []
    for two_j in args.two_j:
        for theta in thetas:
            fq = optimal.optimal_average_fidelity(two_j, theta, args.problem)
            fm = mo.mo_average_fidelity(two_j, theta, args.problem)
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


def cmd_recycle(args, thetas: list[float]) -> list[dict]:
    """Fidelity degradation over repeated memory uses, with the crossing step."""
    memory._check_count("n_uses", args.n_uses, 1)
    rows = []
    for two_j in args.two_j:
        for theta in thetas:
            schedule = memory._fixed_schedule(two_j, theta)  # recycled_fidelity, one use at a time
            fm = mo.mo_average_fidelity(two_j, theta, args.problem)
            crossed = False
            for t, ft in enumerate(map(schedule, range(args.n_uses)), start=1):
                above = ft > fm
                crossing = (not above) and not crossed
                if crossing:
                    crossed = True
                rows.append({
                    "two_j": two_j,
                    "theta_pi": theta / math.pi,
                    "t": t,
                    "f_t": ft,
                    "f_mo": fm,
                    "above_benchmark": above,
                    "crossing_step": crossing,
                })
    return rows


def cmd_thermal(args, thetas: list[float]) -> list[dict]:
    """Thermal-probe fidelity sweep and the advantage threshold gamma*."""
    gammas = args.gamma or [0.2, 0.4, 0.5493, 0.7, 1.0, 2.0]
    rows = []
    for two_j in args.two_j:
        for theta in thetas:
            fm = mo.mo_average_fidelity(two_j, theta, args.problem)
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


def cmd_spin_k(args, thetas: list[float]) -> list[dict]:
    """Higher-spin targets: the Heisenberg-gate heuristic, its asymptote and the MO baseline."""
    rows = []
    seed_seq = np.random.SeedSequence(args.seed)
    for two_j in args.two_j:
        for two_k in args.two_k:
            for theta in thetas:
                f_exact = heisenberg.spin_k_fidelity(two_j, two_k, theta, "exact")
                f_asym = heisenberg.spin_k_fidelity(two_j, two_k, theta, "asymptotic")
                est, mo_asym = mo.spin_k_mo_fidelity(
                    two_j, two_k, theta, args.n_samples, seed_seq.spawn(1)[0])
                err_q = 1.0 - f_exact  # 0/0 at the identity rotation: no ratio there
                rows.append({
                    "two_j": two_j,
                    "two_k": two_k,
                    "theta_pi": theta / math.pi,
                    "f_exact": f_exact,
                    "f_asymptotic": f_asym,
                    "f_mo_mc": est.value,
                    "f_mo_std_error": est.std_error,
                    "f_mo_asymptotic": mo_asym,
                    "error_ratio_mo_quantum": ((1.0 - est.value) / err_q
                                               if math.cos(theta) < 1.0 and err_q > 0
                                               else math.nan),
                })
    return rows


def _verify_checks(n_samples: int, seed: int) -> list[dict]:
    from . import montecarlo  # only verify samples strategies: the other commands never load it
    seq = np.random.SeedSequence(seed)
    checks = []

    def add(name: str, estimate, expected: float, sigma_budget: float = 4.0):
        n_sig = estimate.n_sigma(expected)
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


def cmd_verify(args) -> int:
    """Closed forms against their Monte-Carlo oracles, as one JSON report."""
    checks = _verify_checks(args.n_samples, args.seed)
    all_pass = all(c["pass"] for c in checks)
    report = {
        "seed": args.seed,
        "n_samples": args.n_samples,
        "all_pass": all_pass,
        "checks": [{k: _json_value(v) for k, v in c.items()} for c in checks],
    }
    _emit(json.dumps(report, indent=2, default=float) + "\n", args.out)
    return EXIT_OK if all_pass else EXIT_VERIFY_FAILED


SWEEPS = {
    "optimal": cmd_optimal,
    "benchmark": cmd_benchmark,
    "recycle": cmd_recycle,
    "thermal": cmd_thermal,
    "spin-k": cmd_spin_k,
}


def _sweep_thetas(args) -> list[float]:
    """The sweep's angle grid in radians, after the spins and angles are checked."""
    if any(tj < 1 for tj in args.two_j):
        raise ValueError("two_j must be at least 1: a spin-0 memory carries no direction")
    if args.theta_grid < 1:
        raise ValueError("--theta-grid must be at least 1")
    if args.theta is not None:
        thetas = [args.theta * math.pi]
    else:
        thetas = np.linspace(args.theta_min * math.pi, args.theta_max * math.pi,
                             args.theta_grid).tolist()
    if any(not (0.0 <= th < 2.0 * math.pi + 1e-12) for th in thetas):
        raise ValueError("theta must lie in [0, 2*pi)")
    return thetas


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
        p.add_argument("--theta-grid", type=int, default=50,
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
    p = sub.add_parser("spin-k", help="higher-spin targets; f_exact is the Heisenberg-gate "
                       "heuristic, not the quantum optimum: below MO at 1,372 of 7,680 points "
                       "of 2j <= 40, 2k <= 8, theta <= pi (worst -0.102 at 2j = 18, 2k = 8, pi)")
    common(p)
    p.add_argument("--two-k", type=int, nargs="+", default=[2])
    p = sub.add_parser("verify", help="closed-form vs Monte-Carlo oracle suite")
    p.add_argument("--n-samples", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=str, default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.n_samples < 1:
            raise ValueError("n_samples must be positive")
        if args.command == "verify":
            return cmd_verify(args)
        write_rows(SWEEPS[args.command](args, _sweep_thetas(args)), args.fmt, args.out)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
