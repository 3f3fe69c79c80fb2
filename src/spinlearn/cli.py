"""Command-line front end: parameter sweeps, figure data, verification.

Angles are given in units of pi (``--theta 1.0`` is a half turn) so the special points
are exact; spins are given as ``--two-j`` integers.  Output is CSV or JSON with 12
significant digits, and identical (config, seed) pairs produce byte-identical files.  A
sweep is built a block of rows at a time (``_Sweep``): ``optimal`` and ``benchmark`` call
one grid evaluator per 2j on the whole angle grid, and the CSV writer formats the grid once.
numpy is bound lazily (``spinlearn._numpy``): ``optimal``, ``benchmark``, ``thermal`` and
``recycle`` at one ``--theta`` never execute it.  ``verify`` runs its checks in workers
forked before numpy executes, one per core, and prints the same bytes on any core count.
"""

from __future__ import annotations

import argparse
import errno
import math
import os
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
    """Rows held as blocks of columns: ``len`` is the row count, iteration yields the row dicts.
    A block has one column per field: a list of its rows' values, a tuple of them that other
    blocks share too (the angle grid), or one value for all rows."""

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


def write_rows(rows: _Sweep, fmt: str, out: str | None) -> None:
    """Emit a sweep's rows in order as CSV or JSON."""
    if fmt == "csv":
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
        try:
            with open(out, "w", newline="") as fh:
                fh.write(text)
        except OSError as exc:  # a usage error, not a failed check: exit 2, not 1
            raise ValueError(f"cannot write --out {out!r}: {exc.strerror or exc}") from exc


def _check_out(out: str | None) -> None:
    """Refuse, before any work, an ``--out`` that is a directory or whose directory is missing
    or not writable; nothing is opened or created here."""
    if out is None:
        return
    folder = os.path.dirname(out) or "."
    if os.path.isdir(out):
        code = errno.EISDIR
    elif not os.path.isdir(folder):
        code = errno.ENOTDIR if os.path.exists(folder) else errno.ENOENT
    elif not os.access(folder, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise ValueError(f"cannot write --out {out!r}: {os.strerror(code)}")  # the write's reasons


def cmd_optimal(args, thetas: list[float]) -> _Sweep:
    """Data behind the optimal-fidelity curves (solid lines of the figures)."""
    rows = _Sweep(["two_j", "j", "theta_pi", "theta", "problem", "regime", "optimal_two_m",
                   "f_quantum"])
    grid, theta_pi = tuple(thetas), tuple(theta / math.pi for theta in thetas)
    for two_j in args.two_j:
        regimes, two_ms, fidelities = optimal._regimes(two_j, args.problem, grid)
        rows.add(len(thetas), two_j, two_j / 2.0, theta_pi, grid, args.problem, regimes,
                 two_ms, fidelities)
    return rows


def cmd_benchmark(args, thetas: list[float]) -> _Sweep:
    """Quantum optimum vs the classical measure-and-operate benchmark."""
    rows = _Sweep(["two_j", "j", "theta_pi", "theta", "f_quantum", "f_mo", "advantage"])
    grid, theta_pi = tuple(thetas), tuple(theta / math.pi for theta in thetas)
    for two_j in args.two_j:
        fq = optimal._regimes(two_j, args.problem, grid)[2]
        fm = mo._mo_regimes(two_j, args.problem, grid)[2]
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


_VERIFY_CHECKS = 7


def _verify_check(index: int, n_samples: int, seed: int) -> dict:
    """verify's check ``index``, sampled from child ``index`` of SeedSequence(seed): the
    child that the check's own spawn took when the checks shared one sequence."""
    from . import montecarlo  # only verify samples strategies: the other commands never load it
    seq, pi = np.random.SeedSequence(seed, spawn_key=(index,)), math.pi
    mc = lambda strategy, theta: montecarlo.mc_average_fidelity(strategy, theta, n_samples, seq)
    name, estimate, expected = (
        lambda: ("heisenberg_j3half_pi", mc(HeisenbergStrategy(two_j=3), pi), 17.0 / 24.0),
        lambda: ("mo_j3half_pi", mc(MOStrategy(two_j=3, two_m=3, xi_two_n=3,
                                               theta_prime=mo.optimal_theta_prime(3, pi)), pi),
                 29.0 / 45.0),
        lambda: ("unot_mixture_pi", mc(UNotMixture(alpha=2.0 / 3.0), pi), 5.0 / 9.0),
        lambda: ("discrete_xyz_pi", mc(DiscreteXYZ(), pi), 11.0 / 15.0),
        lambda: ("heisenberg_j5_theta_half_pi", mc(HeisenbergStrategy(two_j=10), 0.5 * pi),
                 optimal.optimal_average_fidelity(10, 0.5 * pi)),
        lambda: ("mo_j2_theta_2", mc(MOStrategy(two_j=4, two_m=4, xi_two_n=4,
                                                theta_prime=mo.optimal_theta_prime(4, 2.0)), 2.0),
                 mo.mo_average_fidelity(4, 2.0)),
        lambda: ("spin_k_mo_j4_k1_pi", mo.spin_k_mo_fidelity(8, 2, pi, n_samples, seq)[0],
                 spin_k_mo_quadrature(8, 2, pi)),
    )[index]()
    n_sig = float(estimate.n_sigma(expected))  # Python floats: the report needs no numpy
    return {"name": name, "expected": float(expected), "estimate": estimate.value,
            "std_error": estimate.std_error, "n_sigma": n_sig, "pass": n_sig <= 4.0}


def _verify_checks(n_samples: int, seed: int) -> list[dict]:
    """verify's checks in order, run by forked workers, one per available core and at most
    one per check; run here, one after another, where one core is available or threads run
    here (numpy's BLAS threads once it has executed), which a fork must not copy.  The
    reports are the same."""
    import pickle
    import signal
    import threading

    workers = (min(len(os.sched_getaffinity(0)), _VERIFY_CHECKS)
               if hasattr(os, "fork") and hasattr(os, "sched_getaffinity") else 1)
    # the lazy numpy module turns plain when numpy executes
    if workers < 2 or type(np) is type(sys) or threading.active_count() > 1:
        return [_verify_check(i, n_samples, seed) for i in range(_VERIFY_CHECKS)]
    jobs, queue = os.pipe()  # each worker takes check indices a byte at a time until it is empty
    os.write(queue, bytes(range(_VERIFY_CHECKS)))
    os.close(queue)
    replies = {}  # pid -> the worker's pipe of pickled (index, report or exception) pairs
    try:
        for _ in range(workers):
            reply, write_end = os.pipe()
            pid = os.fork()
            if pid == 0:  # a worker: it leaves by os._exit, past the caller's frames and buffers
                try:
                    done = []
                    while job := os.read(jobs, 1):
                        try:
                            done.append((job[0], _verify_check(job[0], n_samples, seed)))
                        except Exception as exc:
                            done.append((job[0], exc))
                    with open(write_end, "wb") as out:
                        pickle.dump(done, out)
                finally:
                    os._exit(0)
            os.close(write_end)
            replies[pid] = os.fdopen(reply, "rb")
        payloads = [out.read() for out in replies.values()]
        if not all(payloads):
            raise RuntimeError("a verify worker stopped before it sent its checks")
    finally:  # every worker is reaped; one still at work after an error here is stopped first
        os.close(jobs)
        for pid, out in replies.items():
            out.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    checks = [check for _, check in sorted(pair for got in payloads for pair in pickle.loads(got))]
    for check in checks:
        if isinstance(check, Exception):
            raise check  # the first failed check's exception, as the serial run raises it
    return checks


def cmd_verify(args) -> int:
    """Closed forms against their Monte-Carlo oracles, as one JSON report."""
    import json

    spins._check_count("n_samples", args.n_samples, 1)  # before any worker is forked
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
        spins._check_count("seed", getattr(args, "seed", 0), 0)  # only spin-k and verify take one
        _check_out(args.out)
        if args.command == "verify":
            return cmd_verify(args)
        write_rows(SWEEPS[args.command](args, _sweep_thetas(args)), args.fmt, args.out)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
