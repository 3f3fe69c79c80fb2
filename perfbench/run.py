"""spinlearn benchmark: one workload per run, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload exact-cli --seed 1 --seconds 12 --trace 0

Run from the repository root.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer metrics from a separate traced pass.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--self-test`` runs every
operation once at tiny sizes.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import workloads
from workloads import README_COMMANDS, WORKLOADS, cli_argv

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")
GIB = 1 << 30
# RLIMIT_AS per workload process: a memory regression becomes a counted
# MemoryError instead of an out-of-memory kill.  mc-oracle peaks near 2.3 GB.
ADDRESS_CAP = {"mc-oracle": 4 * GIB, "exact-cli": 1 * GIB, "recycle-large-j": 1 * GIB}
CLI_CAP = 1 * GIB
CLI_ROUNDS = 6          # 5 commands x 6 rounds = 30 invocations per run
SETUP_PER_ROUND = 2
TAIL_BEYOND = 10        # the tail percentile keeps this many samples beyond it
WORKER_TIMEOUT = 170

END_TO_END = [  # name, unit
    ("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"),
    ("cli_p50_s", "s"), ("cli_tail_s", "s"),
]

# Entry points timed across a size grid: .<tag>.busy_s each, plus .j_exponent.
SCALED = {
    "spins.rotated_basis_states_batch": ("2j20", "2j100", "2j400", "thermal"),
    "heisenberg.worst_case_fidelity": ("2j20", "2j100", "2j400"),
    "mo.mo_mc_oracle": ("2j3", "2j20", "2j40"),
    "memory.persistence": ("2j200", "2j2000", "2j20000"),
    "optimal.case_choi_channel": ("2j32", "2j64", "2j128"),
}
MC_RATES = {  # metric -> tag of the mc_average_fidelity operation
    "montecarlo.mc_average_fidelity.heisenberg.2j20.samples_per_s": "2j20",
    "montecarlo.mc_average_fidelity.heisenberg.2j100.samples_per_s": "2j100",
    "montecarlo.mc_average_fidelity.heisenberg.2j400.samples_per_s": "2j400",
    "montecarlo.mc_average_fidelity.thermal.2j100.samples_per_s": "thermal",
}


def per_layer_spec() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in output order."""
    spec = []
    for fn, tags in SCALED.items():
        spec += [(f"{fn}.{t}.busy_s", "s", "lower") for t in tags]
        if fn == "mo.mo_mc_oracle":
            spec += [(f"{fn}.{t}.peak_alloc_mb", "MB", "lower") for t in tags]
        spec.append((f"{fn}.j_exponent", "1", "lower"))
    spec += [
        ("spins.clebsch_gordan.calls", "count", "lower"),
        ("spins.clebsch_gordan.self_s", "s", "lower"),
        ("heisenberg.HeisenbergGate.apply.calls", "count", "lower"),
        ("heisenberg.HeisenbergGate.apply.vectors", "count", "lower"),
        ("heisenberg.HeisenbergGate.apply.self_s", "s", "lower"),
        ("heisenberg.per_input_fidelity.calls", "count", "lower"),
        ("mo.povm.accept_ratio", "ratio", "higher"),
        ("mo.povm.proposals", "count", "lower"),
    ]
    spec += [(name, "1/s", "higher") for name in MC_RATES]
    spec += [
        ("memory.complementary_step.calls", "count", "lower"),
        ("memory.complementary_step.self_s", "s", "lower"),
        ("memory.thermal_fidelity.calls", "count", "lower"),
        ("memory.recycled_fidelity.2j20000.busy_s", "s", "lower"),
        ("memory.recycled_fidelity.reoptimize.busy_s", "s", "lower"),
        ("memory.longevity.busy_s", "s", "lower"),
        ("memory.thermal_advantage_threshold.busy_s", "s", "lower"),
        ("memory.tricomi_distribution.busy_s", "s", "lower"),
        ("optimal.covariant_choi_build.self_s", "s", "lower"),
        ("channels.kraus_from_choi.self_s", "s", "lower"),
    ]
    spec += [(f"cli.{c}.p50_s", "s", "lower") for c in README_COMMANDS]
    spec += [
        ("cli.verify.wall_s", "s", "lower"),
        ("cli.write_rows.self_s", "s", "lower"),
        ("cli.sweep.rows_per_s", "1/s", "higher"),
    ]
    spec += [(f"{m}.self_s", "s", "lower") for m in
             ("rotations", "spins", "channels", "optimal", "mo", "heisenberg", "memory",
              "montecarlo", "cli")]
    spec += [("trace.overhead_s", "s", "lower"), ("trace.spans", "count", "lower")]
    return spec


# --------------------------------------------------------------------------
# statistics

def tail_percentile(samples: list[float], beyond: int = TAIL_BEYOND) -> tuple[float, float]:
    """Highest percentile with at least ``beyond`` samples above it: (pct, value).

    The value is the sample of rank n - beyond (1-based) in ascending order,
    so exactly ``beyond`` samples are larger; pct = 100 (n - beyond) / n.
    """
    n = len(samples)
    if n <= beyond:
        raise ValueError(f"need more than {beyond} samples for a tail, got {n}")
    ordered = sorted(samples)
    return 100.0 * (n - beyond) / n, ordered[n - beyond - 1]


def log_slope(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log(y) on log(x); 0.0 with fewer than 2 points."""
    pts = [(math.log(x), math.log(y)) for x, y in points if x > 0 and y > 0]
    if len(pts) < 2:
        return 0.0
    mx = statistics.fmean(p[0] for p in pts)
    my = statistics.fmean(p[1] for p in pts)
    sxx = sum((p[0] - mx) ** 2 for p in pts)
    return sum((p[0] - mx) * (p[1] - my) for p in pts) / sxx


# --------------------------------------------------------------------------
# child processes

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def capped(limit: int):
    def preexec():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    return preexec


def timed_run(argv: list[str], limit: int,
              timeout: float) -> tuple[float, subprocess.CompletedProcess | None]:
    start = time.perf_counter()
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=timeout, preexec_fn=capped(limit))
    except subprocess.TimeoutExpired:
        proc = None  # subprocess.run killed and reaped it
    return time.perf_counter() - start, proc


class Tally:
    """Operations attempted and failed; the failures are printed to stderr."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, failures: list[str]) -> None:
        self.attempted += 1
        if failures:
            self.failures.append("; ".join(failures))


def measure_setup(tally: Tally) -> list[float]:
    """Wall time of fresh interpreters that import spinlearn.cli (all modules)."""
    times = []
    for _ in range(SETUP_PER_ROUND):
        dt, proc = timed_run([sys.executable, "-c", "import spinlearn.cli"], CLI_CAP, 60)
        ok = proc is not None and proc.returncode == 0
        tally.add([] if ok else [f"setup launch failed: {proc and proc.stderr[-300:]}"])
        if ok:
            times.append(dt)
    return times


def run_worker(workload: str, seed: int, mode: str, tally: Tally, tiny: bool = False,
               spans: str | None = None, index: int = 0) -> dict | None:
    out = os.path.join(OUT_DIR, f"{workload}-{seed}-{mode}-{index}.json")
    argv = [sys.executable, os.path.join(HERE, "workloads.py"), "--workload", workload,
            "--seed", str(seed), "--mode", mode, "--out", out]
    if tiny:
        argv.append("--tiny")
    if spans:
        argv += ["--spans", spans]
    if os.path.exists(out):
        os.remove(out)
    _, proc = timed_run(argv, ADDRESS_CAP[workload], WORKER_TIMEOUT)
    if proc is None or proc.returncode != 0 or not os.path.exists(out):
        tally.add([f"{workload} {mode} worker failed: {proc and proc.stderr[-2000:]}"])
        return None
    with open(out) as fh:
        result = json.load(fh)
    for op in result["ops"]:
        tally.add(op["failures"])
    return result


class CliRounds:
    """README commands in fresh processes; every output is gated and must be
    byte-identical to the command's first output in this run."""

    def __init__(self, seed: int):
        self.seed = seed
        self.reference = workloads.load_reference()
        self.times = {c: [] for c in README_COMMANDS}
        self.first = {}

    def round(self, tally: Tally) -> None:
        for command in README_COMMANDS:
            argv = [sys.executable, "-m", "spinlearn.cli", *cli_argv(command, self.seed)]
            dt, proc = timed_run(argv, CLI_CAP, 60)
            chk = workloads.Checks(f"cli.{command}", self.reference)
            if proc is None or proc.returncode != 0:
                chk.failures.append(f"cli {command}: exit {proc and proc.returncode}")
            else:
                first = self.first.setdefault(command, proc.stdout)
                chk.true("stdout identical across repeats", proc.stdout == first)
                try:
                    workloads.check_cli_output(command, proc.stdout, chk)
                except (KeyError, ValueError) as exc:
                    chk.failures.append(f"cli {command}: unreadable output {exc!r}")
                self.times[command].append(dt)
            tally.add(chk.failures)


def measure(workload: str, seed: int, seconds: float, tally: Tally):
    """Untraced measurement: CLI_ROUNDS rounds of set-up launches and README
    commands, each followed by an untraced pass over the operation list until
    the passes' wall_s add up to ``seconds`` (at least one pass, at most one a
    round).  Every pass is a
    fresh process, so lazy caches are paid cold each time.  Interleaving
    spreads each metric's samples over the whole run, so a slow spell of the
    shared machine moves all of them a little rather than one a lot."""
    cli = CliRounds(seed)
    setup, passes = [], []
    measured = 0.0
    for _ in range(CLI_ROUNDS):
        setup += measure_setup(tally)
        cli.round(tally)
        if not passes or measured < seconds:
            result = run_worker(workload, seed, "plain", tally, index=len(passes))
            if result is None:
                break
            passes.append(result)
            measured += wall(result)
    return setup, passes, cli.times


# --------------------------------------------------------------------------
# metrics

def provenance(seed: int, worker: dict | None) -> dict:
    mem_total = None
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemTotal:"):
                    mem_total = line.split(":", 1)[1].strip()
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):  # a plain checkout has no commit
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    info = {"nproc": os.cpu_count(), "mem_total": mem_total, "python": platform.python_version(),
            "git_commit": commit, "seed": seed}
    if worker is not None:
        info.update(worker["provenance"])
    return info


def wall(result: dict) -> float:
    return sum(op["seconds"] for op in result["ops"])


def end_to_end(setup: list[float], passes: list[dict], cli: dict[str, list[float]]) -> dict:
    samples = [t for ts in cli.values() for t in ts]
    pct, tail = tail_percentile(samples)
    print(f"cli_tail_s is p{pct:.1f} of {len(samples)} invocations; setup_s is the median "
          f"of {len(setup)} launches; wall_s is the median of {len(passes)} passes")
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(wall(p) for p in passes),
        "peak_rss_mb": peak_kb / 1024.0,
        "cli_p50_s": statistics.median(samples),
        "cli_tail_s": tail,
    }


def per_layer(plain: dict, traced: dict, alloc: dict | None, cli: dict[str, list[float]]) -> dict:
    s = traced["summary"]
    busy_op = s["busy_op_s"]
    values = {}
    for fn, tags in SCALED.items():
        points = []
        for tag in tags:
            busy = busy_op.get(f"{fn}|{tag}", 0.0)
            values[f"{fn}.{tag}.busy_s"] = busy
            if tag.startswith("2j"):
                points.append((int(tag[2:]), busy))
        values[f"{fn}.j_exponent"] = log_slope(points)
    peaks = alloc["summary"]["peak_bytes"] if alloc else {}
    for tag in SCALED["mo.mo_mc_oracle"]:
        peak = peaks.get(f"mo.mo_mc_oracle|{tag}", 0)
        values[f"mo.mo_mc_oracle.{tag}.peak_alloc_mb"] = peak / 2**20
    samples = {op["tag"]: op["mc"][0]["n"] for op in traced["ops"]
               if op["name"] == "montecarlo.mc_average_fidelity" and op["mc"]}
    for name, tag in MC_RATES.items():
        busy = busy_op.get(f"montecarlo.mc_average_fidelity|{tag}", 0.0)
        values[name] = samples[tag] / busy if busy > 0 else 0.0
    counters = s["counters"]
    proposals = counters.get("mo.povm.proposals", 0)
    values["mo.povm.proposals"] = proposals
    samples_returned = counters.get("mo._povm_outcome_offsets.samples", 0)
    values["mo.povm.accept_ratio"] = samples_returned / proposals if proposals else 0.0
    values["heisenberg.HeisenbergGate.apply.vectors"] = counters.get(
        "heisenberg.HeisenbergGate.apply.vectors", 0)
    rows = counters.get("cli.write_rows.rows", 0)
    sweep = busy_op.get("cli.main|sweep", 0.0)
    values["cli.sweep.rows_per_s"] = rows / sweep if sweep > 0 else 0.0
    values["memory.recycled_fidelity.2j20000.busy_s"] = busy_op.get(
        "memory.recycled_fidelity|2j20000", 0.0)
    values["memory.recycled_fidelity.reoptimize.busy_s"] = busy_op.get(
        "memory.recycled_fidelity|reoptimize", 0.0)
    for c, ts in cli.items():
        values[f"cli.{c}.p50_s"] = statistics.median(ts) if ts else 0.0
    values["cli.verify.wall_s"] = sum(op["seconds"] for op in plain["ops"]
                                      if op["name"] == "cli.verify")
    traced_wall, plain_wall = wall(traced), wall(plain)
    values["trace.overhead_s"] = traced_wall - plain_wall
    values["trace.spans"] = s["spans"]
    print(f"tracing overhead: traced wall_s {traced_wall:.3f} s - untraced {plain_wall:.3f} s")
    out = {}
    for name, unit, _ in per_layer_spec():
        if name not in values:  # <function>.{calls,self_s,busy_s} or <module>.self_s
            head, kind = name.rsplit(".", 1)
            table = s["module_self_s"] if "." not in head else s[kind]
            values[name] = table.get(head, 0)
        out[name] = {"value": values[name], "unit": unit}
    return out


def print_table(metrics: dict) -> None:
    for name, m in metrics.items():
        print(f"  {name:64s} {m['value']:>14.6g} {m['unit']}")


def run(args) -> int:
    os.makedirs(OUT_DIR, exist_ok=True)
    tally = Tally()
    if args.trace:
        plain = run_worker(args.workload, args.seed, "plain", tally)
        spans = os.path.join(OUT_DIR, f"{args.workload}-{args.seed}-spans.jsonl.gz")
        traced = run_worker(args.workload, args.seed, "traced", tally, spans=spans)
        alloc = run_worker(args.workload, args.seed, "alloc", tally)
        cli = CliRounds(args.seed)
        for _ in range(CLI_ROUNDS):
            cli.round(tally)
        if plain is None or traced is None:
            print("\n".join(tally.failures), file=sys.stderr)
            return 1
        metrics = per_layer(plain, traced, alloc, cli.times)
        print(f"spans written to {os.path.relpath(spans, ROOT)}")
    else:
        setup, passes, cli = measure(args.workload, args.seed, args.seconds, tally)
        if not passes or not setup or sum(map(len, cli.values())) <= TAIL_BEYOND:
            print("\n".join(tally.failures), file=sys.stderr)
            return 1
        plain = passes[0]
        metrics = {name: {"value": value, "unit": unit} for (name, unit), value in
                   zip(END_TO_END, end_to_end(setup, passes, cli).values())}
    failed = len(tally.failures)
    print("provenance: " + json.dumps(provenance(args.seed, plain)))
    for op in plain["ops"]:
        for mc in op["mc"]:
            print(f"  mc gate {op['name']}.{op['tag']} {mc['label']}: n={mc['n']} "
                  f"std_error={mc['std_error']:.3g} n_sigma={mc['n_sigma']:.2f}")
    print(f"{args.workload} seed {args.seed}: fail_ratio {failed}/{tally.attempted}")
    print_table(metrics)
    for failure in tally.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": tally.attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def self_test() -> int:
    """Every operation once at tiny sizes, traced, plus each README command once."""
    os.makedirs(OUT_DIR, exist_ok=True)
    tally = Tally()
    for workload in WORKLOADS:
        result = run_worker(workload, 0, "traced", tally, tiny=True)
        spans = result["summary"]["spans"] if result else 0
        print(f"{workload}: {len(result['ops']) if result else 0} operations, {spans} spans")
        if result is not None and spans == 0:
            tally.add([f"{workload}: traced pass recorded no spans"])
    CliRounds(0).round(tally)
    for failure in tally.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"self-test: {len(tally.failures)} failed of {tally.attempted}")
    return 1 if tally.failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0,
                        help="repeat untraced passes until their wall_s add up to this")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "spinlearn", "cli.py")):
        print(f"error: no spinlearn sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
