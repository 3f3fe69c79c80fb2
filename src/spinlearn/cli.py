"""Command-line front end: parameter sweeps, figure data, verification.

Angles are given in units of pi (``--theta 1.0`` is a half turn) so the special points
are exact; spins are given as ``--two-j`` integers.  Output is CSV or JSON with 12
significant digits, and identical (config, seed) pairs produce byte-identical files.  A
sweep is built a block of rows at a time (``_Sweep``): ``optimal`` and ``benchmark`` map
one regime evaluator per 2j over the angle grid, and the CSV writer formats the grid once.
numpy is bound lazily (``spinlearn._numpy``): ``optimal``, ``benchmark``, ``thermal`` and
``recycle`` at one ``--theta`` never execute it.
"""

from __future__ import annotations

import argparse
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
    if spins._is_integer(x):
        return str(int(x))
    if isinstance(x, float):
        return format(x, ".12g")
    return str(x)


# The cell formatters of the row values' exact types; _fmt_value is the fallback (a column
# of floats is formatted whole, in _csv_cells).
_CELL_FORMAT = {
    int: str,
    str: str,
    bool: ("false", "true").__getitem__,  # False and True index the tuple as 0 and 1
}


def _json_value(x):
    """Non-finite floats as the strings the CSV writer prints ("inf", "-inf",
    "nan"): strict JSON has no literal for them."""
    return _fmt_value(x) if isinstance(x, float) and not math.isfinite(x) else x


def _json_cell(x):
    """A row value as JSON: floats at the CSV's 12 digits, integers as int."""
    if isinstance(x, float):
        return _json_value(float(format(x, ".12g")))
    return int(x) if not isinstance(x, int) and spins._is_integer(x) else x  # bool stays bool


class _Sweep:
    """Rows held as blocks of columns: ``len`` is the row count, iteration and indexing
    yield the row dicts.  A block has one column per field: a list of its rows' values, a
    tuple of them that other blocks share too (the angle grid), or one value for all rows."""

    def __init__(self, fields: list[str]):
        self.fields, self.blocks, self._rows = fields, [], 0

    def add(self, n: int, *columns) -> None:
        if len(columns) != len(self.fields) or {len(c) for c in columns
                                                if isinstance(c, (list, tuple))} - {n}:
            raise ValueError(f"a block of {n} rows needs {len(self.fields)} columns of {n}")
        self.blocks.append((n, columns))
        self._rows += n

    def __len__(self) -> int:
        return self._rows

    def __getitem__(self, index):  # O(rows): a list of the row dicts, indexed
        return list(self)[index]

    def __iter__(self):
        for n, columns in self.blocks:
            for values in zip(*(c if isinstance(c, (list, tuple)) else [c] * n
                                for c in columns)):
                yield dict(zip(self.fields, values))


def _csv_text(sweep: _Sweep) -> str:
    """The rows as CSV.  A tuple column is formatted once for all the blocks that share it,
    a value that a block's rows share once per block."""
    lines, shared = [",".join(sweep.fields)], {}
    for n, columns in sweep.blocks:
        cells = []
        for c in columns:
            if isinstance(c, tuple):
                if id(c) not in shared:  # the sweep keeps c alive, so its id is not reused
                    shared[id(c)] = _csv_cells(c)
                cells.append(shared[id(c)])
            else:
                cells.append(_csv_cells(c) if isinstance(c, list) else [_csv_cells([c])[0]] * n)
        lines.extend(map(",".join, zip(*cells)))
    lines.append("")
    return "\n".join(lines)


def _csv_cells(values) -> list[str]:
    """A column's CSV cells.  Floats go through one %-format of the whole column: "%.12g" % x
    is format(x, ".12g"), character for character, without a call per cell."""
    kinds = set(map(type, values))
    if kinds == {float}:
        return ("%.12g\n" * len(values) % tuple(values)).split("\n")[:-1]
    if len(kinds) == 1:
        return list(map(_CELL_FORMAT.get(kinds.pop(), _fmt_value), values))
    cell = _CELL_FORMAT.get
    return [cell(type(v), _fmt_value)(v) for v in values]


def write_rows(rows, fmt: str, out: str | None) -> None:
    """Emit rows, a list of row dicts or a ``_Sweep``, in order as CSV or JSON."""
    if not rows:
        raise ValueError("nothing to write")
    if fmt == "csv":
        if not isinstance(rows, _Sweep):
            rows, dicts = _Sweep(list(rows[0])), rows
            rows.add(len(dicts), *([r[f] for r in dicts] for f in rows.fields))
        text = _csv_text(rows)
    elif fmt == "json":
        import json  # bound here, not at module level: only JSON output needs it

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


def cmd_optimal(args, thetas: list[float]) -> _Sweep:
    """Data behind the optimal-fidelity curves (solid lines of the figures)."""
    rows = _Sweep(["two_j", "j", "theta_pi", "theta", "problem", "regime", "optimal_two_m",
                   "f_quantum"])
    grid, theta_pi = tuple(thetas), tuple(theta / math.pi for theta in thetas)
    for two_j in args.two_j:
        regime = optimal._regime_at(two_j, args.problem)  # one evaluator per spin
        regimes, two_ms, fidelities = map(list, zip(*map(regime, thetas)))
        rows.add(len(thetas), two_j, two_j / 2.0, theta_pi, grid, args.problem, regimes,
                 two_ms, fidelities)
    return rows


def cmd_benchmark(args, thetas: list[float]) -> _Sweep:
    """Quantum optimum vs the classical measure-and-operate benchmark."""
    rows = _Sweep(["two_j", "j", "theta_pi", "theta", "f_quantum", "f_mo", "advantage"])
    grid, theta_pi = tuple(thetas), tuple(theta / math.pi for theta in thetas)
    for two_j in args.two_j:
        quantum = optimal._regime_at(two_j, args.problem)
        classical = mo._mo_regime_at(two_j, args.problem)
        fq = [quantum(theta)[2] for theta in thetas]
        fm = [classical(theta)[2] for theta in thetas]
        rows.add(len(thetas), two_j, two_j / 2.0, theta_pi, grid, fq, fm,
                 [q - m for q, m in zip(fq, fm)])
    return rows


def cmd_recycle(args, thetas: list[float]) -> _Sweep:
    """Fidelity degradation over repeated memory uses, with the crossing step."""
    spins._check_count("n_uses", args.n_uses, 1)
    rows = _Sweep(["two_j", "theta_pi", "t", "f_t", "f_mo", "above_benchmark",
                   "crossing_step"])
    uses = tuple(range(1, args.n_uses + 1))
    for two_j in args.two_j:
        for theta in thetas:
            schedule = memory._fixed_schedule(two_j, theta)  # recycled_fidelity, one use at a time
            fm = mo.mo_average_fidelity(two_j, theta, args.problem)
            f_t = list(map(schedule, range(args.n_uses)))
            above = [ft > fm for ft in f_t]
            crossing = [False] * args.n_uses
            if False in above:
                crossing[above.index(False)] = True
            rows.add(args.n_uses, two_j, theta / math.pi, uses, f_t, fm, above, crossing)
    return rows


def cmd_thermal(args, thetas: list[float]) -> _Sweep:
    """Thermal-probe fidelity sweep and the advantage threshold gamma*."""
    gammas = tuple(args.gamma or (0.2, 0.4, 0.5493, 0.7, 1.0, 2.0))
    rows = _Sweep(["two_j", "theta_pi", "gamma", "f_thermal", "f_mo", "advantage",
                   "gamma_star"])
    for two_j in args.two_j:
        for theta in thetas:
            fm = mo.mo_average_fidelity(two_j, theta, args.problem)
            gamma_star = memory.thermal_advantage_threshold(two_j, theta, args.problem)
            f_thermal = [memory.thermal_fidelity(two_j, theta, gamma) for gamma in gammas]
            rows.add(len(gammas), two_j, theta / math.pi, gammas, f_thermal, fm,
                     [f - fm for f in f_thermal], gamma_star)
    return rows


def cmd_spin_k(args, thetas: list[float]) -> _Sweep:
    """Higher-spin targets: the Heisenberg-gate heuristic, its asymptote and the MO baseline."""
    rows = _Sweep(["two_j", "two_k", "theta_pi", "f_exact", "f_asymptotic", "f_mo_mc",
                   "f_mo_std_error", "f_mo_asymptotic", "error_ratio_mo_quantum"])
    theta_pi = tuple(theta / math.pi for theta in thetas)
    seed_seq = np.random.SeedSequence(args.seed)
    for two_j in args.two_j:
        for two_k in args.two_k:
            cells = []
            for theta in thetas:
                f_exact = heisenberg.spin_k_fidelity(two_j, two_k, theta, "exact")
                f_asym = heisenberg.spin_k_fidelity(two_j, two_k, theta, "asymptotic")
                est, mo_asym = mo.spin_k_mo_fidelity(
                    two_j, two_k, theta, args.n_samples, seed_seq.spawn(1)[0])
                err_q = 1.0 - f_exact  # 0/0 at the identity rotation: no ratio there
                cells.append((f_exact, f_asym, est.value, est.std_error, mo_asym,
                              (1.0 - est.value) / err_q if math.cos(theta) < 1.0 and err_q > 0
                              else math.nan))
            rows.add(len(thetas), two_j, two_k, theta_pi, *map(list, zip(*cells)))
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
    import json

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

    def common(p, problem=True):
        p.add_argument("--two-j", type=int, nargs="+", required=True,
                       help="spin as twice-j integers (one or more)")
        p.add_argument("--theta", type=float, default=None,
                       help="single angle in units of pi")
        p.add_argument("--theta-grid", type=int, default=50,
                       help="number of grid points over [theta-min, theta-max]")
        p.add_argument("--theta-min", type=float, default=0.0)
        p.add_argument("--theta-max", type=float, default=1.0)
        if problem:
            p.add_argument("--problem", type=int, choices=(1, 2), default=2)
        p.add_argument("--out", type=str, default=None)
        p.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")

    common(sub.add_parser("optimal", help="optimal quantum fidelity sweep"))
    common(sub.add_parser("benchmark", help="quantum vs classical-memory benchmark"))
    p = sub.add_parser("recycle", help="fidelity vs number of memory uses")
    common(p)
    p.add_argument("--n-uses", type=int, default=100)
    p = sub.add_parser("thermal", help="thermal-probe sweep and threshold")
    common(p)
    p.add_argument("--gamma", type=float, nargs="+", default=None)
    p = sub.add_parser("spin-k", help="higher-spin targets; f_exact is the Heisenberg-gate "
                       "heuristic, not the quantum optimum: below MO at 1,372 of 7,680 points "
                       "of 2j <= 40, 2k <= 8, theta <= pi (worst -0.102 at 2j = 18, 2k = 8, pi)")
    common(p, problem=False)
    p.add_argument("--two-k", type=int, nargs="+", default=[2])
    p.add_argument("--n-samples", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)
    p = sub.add_parser("verify", help="closed-form vs Monte-Carlo oracle suite")
    p.add_argument("--n-samples", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=str, default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            return cmd_verify(args)
        write_rows(SWEEPS[args.command](args, _sweep_thetas(args)), args.fmt, args.out)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
