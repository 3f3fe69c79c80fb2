import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spinlearn import cli, memory
from test_readme_golden import GOLDEN, README_COMMANDS


def run_cli(args):
    return cli.main(args)


def _read_csv(path):
    lines = open(path).read().strip().split("\n")
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return rows


def test_optimal_grid_monotone(tmp_path):
    out = tmp_path / "opt.csv"
    rc = run_cli(["optimal", "--two-j", "8", "--theta-grid", "100",
                  "--theta-min", "0", "--theta-max", "1", "--out", str(out)])
    assert rc == 0
    rows = _read_csv(out)
    assert len(rows) == 100
    vals = [float(r["f_quantum"]) for r in rows]
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


def test_optimal_headline_rows(tmp_path):
    out = tmp_path / "opt.csv"
    run_cli(["optimal", "--two-j", "3", "--theta", "1.0", "--out", str(out)])
    row = _read_csv(out)[0]
    assert float(row["f_quantum"]) == pytest.approx(0.70833, abs=1e-5)
    run_cli(["optimal", "--two-j", "2", "--theta", "1.0", "--problem", "2", "--out", str(out)])
    row = _read_csv(out)[0]
    assert float(row["f_quantum"]) == pytest.approx(0.73333, abs=1e-5)
    assert row["regime"] == "j1_anomalous_problem2"


def test_benchmark_rows(tmp_path):
    out = tmp_path / "bench.csv"
    run_cli(["benchmark", "--two-j", "3", "1", "--theta", "1.0", "--out", str(out)])
    rows = _read_csv(out)
    assert float(rows[0]["f_quantum"]) == pytest.approx(0.70833, abs=1e-5)
    assert float(rows[0]["f_mo"]) == pytest.approx(0.64444, abs=1e-5)
    assert float(rows[0]["advantage"]) == pytest.approx(0.06389, abs=1e-5)
    assert abs(float(rows[1]["advantage"])) < 1e-10  # j = 1/2 at pi
    run_cli(["benchmark", "--two-j", "5", "--theta", "0.0", "--out", str(out)])
    assert abs(float(_read_csv(out)[0]["advantage"])) < 1e-12


def test_recycle_crossing(tmp_path):
    out = tmp_path / "rec.csv"
    run_cli(["recycle", "--two-j", "200", "--theta", "1.0", "--n-uses", "60",
             "--out", str(out)])
    rows = _read_csv(out)
    crossing = [int(r["t"]) for r in rows if r["crossing_step"] == "true"]
    assert crossing == [51]  # persistence j/2 = 50, first non-above step is 51
    first = rows[0]
    from spinlearn import optimal

    assert float(first["f_t"]) == pytest.approx(
        optimal.optimal_average_fidelity(200, math.pi), abs=1e-10)
    above = [r["above_benchmark"] == "true" for r in rows]
    assert all(above[:50]) and not any(above[50:])


def test_recycle_advantage_lasts_half_j_uses(tmp_path):
    out = tmp_path / "rec.csv"
    assert run_cli(["recycle", "--two-j", "20", "40", "--theta", "1.0", "--n-uses", "12",
                    "--out", str(out)]) == 0
    rows = _read_csv(out)
    for two_j in (20, 40):
        mine = [r for r in rows if int(r["two_j"]) == two_j]
        assert [int(r["t"]) for r in mine] == list(range(1, 13))
        # the advantage lasts j/2 uses and is lost at use j/2 + 1, for good
        lost = two_j // 4 + 1
        assert [int(r["t"]) for r in mine if r["crossing_step"] == "true"] == [lost]
        assert [r["above_benchmark"] == "true" for r in mine] == [t < lost for t in range(1, 13)]
        assert memory.persistence(two_j, math.pi).steps == two_j // 4


def test_thermal_threshold_at_j_ten(tmp_path):
    out = tmp_path / "thermal.csv"
    assert run_cli(["thermal", "--two-j", "20", "--theta", "1.0", "--gamma", "1.0",
                    "--out", str(out)]) == 0
    (row,) = _read_csv(out)
    assert row["gamma_star"] == "0.589192365371"  # gamma*(20, pi) = 0.5891923653710438


def test_thermal_rows(tmp_path):
    out = tmp_path / "thermal.csv"
    run_cli(["thermal", "--two-j", "1000", "--theta", "1.0", "--gamma", "0.4", "0.7",
             "--out", str(out)])
    rows = _read_csv(out)
    assert float(rows[0]["gamma_star"]) == pytest.approx(0.549, abs=0.01)
    assert float(rows[0]["advantage"]) < 0 < float(rows[1]["advantage"])


def test_thermal_advantage_is_positive_exactly_beyond_gamma_star():
    # gamma_star is against the benchmark of the row's problem: against the problem-2
    # one, 44 of these 2,496 rows printed a positive advantage below gamma_star
    for problem in ("1", "2"):
        args = cli.build_parser().parse_args(
            ["thermal", "--two-j", "1", "2", "3", "8", "--theta-grid", "39", "--theta-max", "1.9",
             "--problem", problem, "--gamma", "0.3", "0.55", "0.8", "1.0", "1.2", "2", "5", "20"])
        rows = cli.cmd_thermal(args, cli._sweep_thetas(args))
        assert len(rows) == 4 * 39 * 8
        for r in rows:
            assert (r["advantage"] > 0) == (r["gamma"] > r["gamma_star"]), r


def test_thermal_without_advantage_reports_inf(tmp_path):
    # j = 1 at theta = pi: no finite gamma beats the benchmark
    out = tmp_path / "thermal.csv"
    assert run_cli(["thermal", "--two-j", "2", "--theta", "1.0", "--out", str(out)]) == 0
    assert {r["gamma_star"] for r in _read_csv(out)} == {"inf"}


def test_spin_k_rows(tmp_path):
    out = tmp_path / "spink.csv"
    run_cli(["spin-k", "--two-j", "400", "--two-k", "2", "--theta", "1.0",
             "--n-samples", "40000", "--seed", "5", "--out", str(out)])
    row = _read_csv(out)[0]
    assert float(row["error_ratio_mo_quantum"]) == pytest.approx(2.0, abs=0.2)
    assert float(row["f_asymptotic"]) == pytest.approx(0.99, abs=1e-9)
    # at the identity rotation both errors vanish: the ratio is 0/0, printed nan
    run_cli(["spin-k", "--two-j", "4", "--two-k", "2", "--theta", "0", "--n-samples", "100",
             "--out", str(out)])
    row = _read_csv(out)[0]
    assert (row["f_exact"], row["f_mo_mc"], row["error_ratio_mo_quantum"]) == ("1", "1", "nan")


def test_verify_report(tmp_path):
    out = tmp_path / "verify.json"
    rc = run_cli(["verify", "--n-samples", "20000", "--seed", "7", "--out", str(out)])
    assert rc == 0
    report = json.loads(open(out).read())
    assert report["all_pass"] is True
    assert {c["name"] for c in report["checks"]} >= {
        "heisenberg_j3half_pi", "mo_j3half_pi", "unot_mixture_pi", "discrete_xyz_pi"}
    for c in report["checks"]:
        assert c["n_sigma"] <= 4.0


def test_byte_identical_reruns(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["spin-k", "--two-j", "8", "--two-k", "2", "--theta", "0.7",
            "--n-samples", "5000", "--seed", "3"]
    run_cli(args + ["--out", str(a)])
    run_cli(args + ["--out", str(b)])
    assert open(a, "rb").read() == open(b, "rb").read()


def test_csv_json_round_trip(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.json"
    args = ["benchmark", "--two-j", "4", "--theta-grid", "7"]
    run_cli(args + ["--format", "csv", "--out", str(a)])
    run_cli(args + ["--format", "json", "--out", str(b)])
    csv_rows = _read_csv(a)
    json_rows = json.loads(open(b).read())
    assert len(csv_rows) == len(json_rows)
    for cr, jr in zip(csv_rows, json_rows):
        for key in jr:
            jv = jr[key]
            if isinstance(jv, (int, float)) and not isinstance(jv, bool):
                cv = float(cr[key])
                assert cv == pytest.approx(float(jv), rel=1e-11, abs=1e-11)


def test_usage_errors_exit_two(capsys):
    rc = run_cli(["optimal", "--two-j", "4", "--theta", "2.5"])  # outside [0, 2)
    assert rc == 2
    assert "error" in capsys.readouterr().err
    for points in ("0", "-3"):  # an empty or negative angle grid
        assert run_cli(["optimal", "--two-j", "3", "--theta-grid", points]) == 2
        assert "--theta-grid" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        run_cli(["optimal"])  # missing required --two-j
    assert exc.value.code == 2


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "spinlearn.cli", "optimal", "--two-j", "3", "--theta", "1.0"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "0.708333333333" in proc.stdout


# ru_maxrss of the wrapper's children is the command's own peak: a child spawned
# from pytest itself would carry pytest's resident set into its high-water mark
_PEAK_RSS_WRAPPER = ("import resource, subprocess, sys; "
                     "subprocess.run(sys.argv[1:], check=True, stdout=subprocess.DEVNULL); "
                     "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)")


def _peak_rss_mib(*args):
    proc = subprocess.run([sys.executable, "-c", _PEAK_RSS_WRAPPER, sys.executable, *args],
                          capture_output=True, text=True, check=True, timeout=300)
    return int(proc.stdout) / (2**20 if sys.platform == "darwin" else 1024)  # bytes or KiB


# the package with numpy executed: a bare `import spinlearn.cli` no longer executes it
_LOADED_PACKAGE = ("-c", "import spinlearn.cli, numpy; numpy.zeros(1)")


@pytest.mark.parametrize("argv", [
    ["verify", "--n-samples", "100000", "--seed", "7"],
    ["spin-k", "--two-j", "400", "--two-k", "2", "3", "--theta", "1.0", "--seed", "5"],
], ids=["verify", "spin-k"])
def test_readme_sampler_commands_peak_rss_is_bounded(argv):
    # every Monte-Carlo sampler streams its blocks, so at n = 1e5 a README command stays
    # well under 16 MiB above the loaded package (about 13 and 9 MiB). Above an import that
    # executed numpy, drawing every input first put them at about 22 and 15, whole-batch MO
    # scoring verify at about 54.
    loaded = _peak_rss_mib(*_LOADED_PACKAGE)
    assert _peak_rss_mib("-m", "spinlearn.cli", *argv) - loaded < 16.0


def test_readme_optimal_command_peaks_under_the_loaded_package():
    # numpy is never executed: 16.8 MiB against 28.2 MiB for the loaded package
    optimal = _peak_rss_mib("-m", "spinlearn.cli", *README_COMMANDS["optimal"])
    assert optimal <= _peak_rss_mib(*_LOADED_PACKAGE) - 8.0


def test_spin_k_peak_rss_does_not_grow_with_n():
    # nothing n-long is built: 1e6 samples peak within 3 MiB of 1e5 (an n-long draw
    # and fidelity array put them 75 MiB apart)
    argv = ["-m", "spinlearn.cli", "spin-k", "--two-j", "400", "--two-k", "2", "3",
            "--theta", "1.0", "--seed", "5", "--n-samples"]
    assert _peak_rss_mib(*argv, "1000000") - _peak_rss_mib(*argv, "100000") < 3.0


def _strict_json(text):
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(text, parse_constant=reject)


def test_json_writes_non_finite_floats_as_csv_strings(tmp_path):
    # no finite gamma gives an advantage at 2j = 2, theta = pi: gamma* = inf
    out = tmp_path / "thermal.json"
    assert run_cli(["thermal", "--two-j", "2", "--theta", "1.0", "--format", "json",
                    "--out", str(out)]) == 0
    rows = _strict_json(open(out).read())
    assert rows and all(r["gamma_star"] == "inf" for r in rows)
    assert all(isinstance(r["f_thermal"], float) for r in rows)


def test_verify_json_writes_non_finite_floats_as_strings(tmp_path):
    # one sample per check: zero standard error, so every n_sigma is infinite
    out = tmp_path / "verify.json"
    assert run_cli(["verify", "--n-samples", "1", "--seed", "0", "--out", str(out)]) == 1
    report = _strict_json(open(out).read())
    assert report["all_pass"] is False
    assert all(c["n_sigma"] == "inf" and c["pass"] is False for c in report["checks"])


@pytest.mark.parametrize("n", ["0", "-5"])
def test_verify_without_samples_exits_two(n, capsys):
    assert run_cli(["verify", "--n-samples", n]) == 2
    assert capsys.readouterr().err == f"error: n_samples must be an integer >= 1, got {n}\n"


def test_recycle_at_spin_half_with_positive_cos_theta_prints_rows(tmp_path):
    # the kernel factor 1 - cos f is non-negative at every angle, 2j = 1 included
    out = tmp_path / "recycle.csv"
    assert run_cli(["recycle", "--two-j", "1", "--theta", "0.3", "--out", str(out)]) == 0
    f_t = [float(row["f_t"]) for row in _read_csv(out)]
    assert len(f_t) == 100 and all(1.0 / 3.0 <= f <= 1.0 for f in f_t)
    assert all(b <= a for a, b in zip(f_t, f_t[1:]))


@pytest.mark.parametrize("n_uses", [1, 60, 500])
def test_recycle_rows_are_the_library_schedule(n_uses):
    # the CLI evaluates the schedule use by use in math, the library on an array:
    # the two powers differ by a few ulp (2j = 1 keeps m^2 constant; theta = 0 gives c = 0)
    from spinlearn import memory, mo

    two_js = [1, 2, 3, 200, 20000]
    for theta_pi in (0.0, 0.3, 1.0, 1.999):
        argv = ["recycle", "--two-j", *map(str, two_js), "--theta", str(theta_pi),
                "--n-uses", str(n_uses)]
        args = cli.build_parser().parse_args(argv)
        (theta,) = cli._sweep_thetas(args)
        rows = list(cli.cmd_recycle(args, [theta]))
        assert len(rows) == len(two_js) * n_uses
        for k, two_j in enumerate(two_js):
            fm = mo.mo_average_fidelity(two_j, theta)
            expected = memory.recycled_fidelity(two_j, theta, n_uses)
            for row, f in zip(rows[k * n_uses:(k + 1) * n_uses], expected.tolist()):
                assert (row["two_j"], type(row["f_t"])) == (two_j, float)
                assert abs(row["f_t"] - f) <= 4 * math.ulp(f), (two_j, theta_pi, row["t"])
                assert row["above_benchmark"] is (f > fm)


def test_recycle_without_uses_exits_two(capsys):
    assert run_cli(["recycle", "--two-j", "200", "--theta", "1.0", "--n-uses", "0"]) == 2
    assert capsys.readouterr().err == "error: n_uses must be an integer >= 1, got 0\n"


_SWEEP_FLAGS = {"--two-j", "--theta", "--theta-grid", "--theta-min", "--theta-max", "--out",
                "--format"}


def test_each_subcommand_takes_only_the_flags_it_reads():
    (sub,) = [a for a in cli.build_parser()._actions if a.choices and "verify" in a.choices]
    flags = {name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
             for name, p in sub.choices.items()}
    assert flags == {
        "optimal": _SWEEP_FLAGS | {"--problem"},
        "benchmark": _SWEEP_FLAGS | {"--problem"},
        "recycle": _SWEEP_FLAGS | {"--problem", "--n-uses"},
        "thermal": _SWEEP_FLAGS | {"--problem", "--gamma"},
        "spin-k": _SWEEP_FLAGS | {"--two-k", "--n-samples", "--seed"},
        "verify": {"--n-samples", "--seed", "--out"},
    }
    assert sum(map(len, flags.values())) == 47


@pytest.mark.parametrize("argv", [
    ["benchmark", "--two-j", "3", "--theta", "1.0", "--seed", "1"],
    ["thermal", "--two-j", "3", "--theta", "1.0", "--n-samples", "10"],
    ["spin-k", "--two-j", "3", "--theta", "1.0", "--problem", "1"],
])
def test_a_flag_the_command_does_not_read_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("n", ["0", "-5"])
def test_spin_k_without_samples_exits_two(n, capsys):
    assert run_cli(["spin-k", "--two-j", "4", "--theta", "0.5", "--n-samples", n]) == 2
    assert capsys.readouterr().err == f"error: n_samples must be an integer >= 1, got {n}\n"


@pytest.mark.parametrize("argv", [["spin-k", "--two-j", "4", "--theta", "0.5", "--seed", "-3"],
                                  ["verify", "--n-samples", "100", "--seed", "-1"]],
                         ids=["spin-k", "verify"])
def test_a_negative_seed_is_named(argv, capsys):
    # at the parent numpy's "expected non-negative integer" named no argument
    assert run_cli(argv) == 2
    assert capsys.readouterr().err == f"error: seed must be an integer >= 0, got {argv[-1]}\n"


@pytest.mark.parametrize("argv", [["optimal", "--two-j", "3", "--theta", "1.0"],
                                  ["verify", "--n-samples", "100", "--seed", "0"]],
                         ids=["optimal", "verify"])
def test_an_unwritable_out_exits_two(argv, tmp_path, capsys):
    # at the parent a traceback and exit 1, the code of a failed verify check
    out = tmp_path / "missing" / "x"
    assert run_cli([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (f"error: cannot write --out {str(out)!r}: "
                                       "No such file or directory\n")


def _never(*args):
    raise AssertionError("the command ran before --out was checked")


@pytest.mark.parametrize("argv", [["verify", "--n-samples", "100000", "--seed", "7"],
                                  ["benchmark", "--two-j", "3", "--theta-grid", "20000"]],
                         ids=["verify", "sweep"])
@pytest.mark.parametrize("missing", [True, False], ids=["missing_dir", "a_dir"])
def test_an_unwritable_out_exits_two_before_any_work(argv, missing, tmp_path, monkeypatch,
                                                      capsys):
    # at the parent all seven checks or the whole sweep ran, and then the write failed
    monkeypatch.setattr(cli, "_verify_checks", _never)
    monkeypatch.setitem(cli.SWEEPS, "benchmark", _never)
    out = str(tmp_path / "missing" / "x" if missing else tmp_path)
    reason = "No such file or directory" if missing else "Is a directory"
    assert run_cli([*argv, "--out", out]) == 2
    assert capsys.readouterr().err == f"error: cannot write --out {out!r}: {reason}\n"


def test_a_writable_out_is_left_alone_when_the_command_fails(tmp_path, capsys):
    # the early check opens nothing: a usage error found later leaves the file as it was
    out = tmp_path / "kept.csv"
    out.write_text("kept\n")
    assert run_cli(["optimal", "--two-j", "0", "--theta", "1.0", "--out", str(out)]) == 2
    assert "two_j" in capsys.readouterr().err
    assert out.read_text() == "kept\n"


def test_spin_zero_memory_exits_two(capsys):
    assert run_cli(["benchmark", "--two-j", "0", "--theta", "1.0"]) == 2
    assert "two_j" in capsys.readouterr().err


def test_thermal_at_infinite_gamma_is_the_aligned_memory(tmp_path):
    # gamma = inf is the zero-temperature memory: the sweep prints finite values
    out = tmp_path / "thermal.csv"
    assert run_cli(["thermal", "--two-j", "4", "--theta", "0.5", "--gamma", "inf",
                    "--out", str(out)]) == 0
    (row,) = _read_csv(out)
    assert all(math.isfinite(float(row[k])) for k in ("f_thermal", "f_mo", "advantage"))


def test_thermal_with_nan_gamma_exits_two(capsys):
    assert run_cli(["thermal", "--two-j", "4", "--theta", "0.5", "--gamma", "nan"]) == 2
    assert "gamma" in capsys.readouterr().err


def test_spin_zero_target_exits_two(capsys):
    assert run_cli(["spin-k", "--two-j", "4", "--two-k", "0", "--theta", "0.5"]) == 2
    assert capsys.readouterr().err == "error: target must be at least a qubit (two_k >= 1)\n"


# In a fresh interpreter: whether `import spinlearn.cli` and then one README command left
# numpy executed and `spinlearn.montecarlo` loaded, and the command's stdout.  In-process
# tests run with both loaded already.
_LOAD_PROBE = """
import contextlib, io, json, sys
import spinlearn.cli as cli
loaded = lambda: ["numpy._core" in sys.modules, "spinlearn.montecarlo" in sys.modules]
before = loaded()
with contextlib.redirect_stdout(io.StringIO()) as buf:
    assert cli.main(json.loads(sys.argv[1])) == 0
print(json.dumps([before, loaded(), buf.getvalue()]))
"""


def _fresh_cli(argv):
    proc = subprocess.run([sys.executable, "-c", _LOAD_PROBE, json.dumps(argv)],
                          capture_output=True, text=True, check=True, timeout=300)
    before, after, out = json.loads(proc.stdout)
    assert before == [False, False]
    return after, out


def _fresh_readme_cli(command):
    after, out = _fresh_cli(README_COMMANDS[command])
    assert out == (GOLDEN / f"{command}.out").read_text()
    return after


def test_closed_form_commands_never_execute_numpy(capsys):
    for command in ("optimal", "benchmark", "thermal", "recycle"):
        assert _fresh_readme_cli(command) == [False, False], command
    # the j = 1/2 case-2 window and the j = 1 problem-2 window are closed forms too
    for argv in (["benchmark", "--two-j", "1", "--theta", "0.9"],
                 ["optimal", "--two-j", "2", "--theta", "1.0", "--problem", "2"]):
        after, out = _fresh_cli(argv)
        assert after == [False, False], argv
        assert run_cli(argv) == 0
        assert out == capsys.readouterr().out


# recycle at one --theta runs in math (README recycle is closed-form above); over an angle
# grid the angles are spaced by np.linspace, so the grid run executes numpy on first use
_RECYCLE_GRID = ["recycle", "--two-j", "200", "--theta-grid", "3", "--n-uses", "4"]


@pytest.mark.parametrize("command", ["recycle", "spin-k", "verify"])
def test_array_commands_execute_numpy_on_first_use(command, capsys):
    if command == "recycle":
        after, out = _fresh_cli(_RECYCLE_GRID)
        assert run_cli(_RECYCLE_GRID) == 0
        assert out == capsys.readouterr().out
        assert len(out.strip().split("\n")) == 1 + 3 * 4
    else:
        after = _fresh_readme_cli(command)
    # verify's checks run in forked workers (on a single core, in process: numpy executed and
    # the Monte-Carlo layer loaded); the workers' own state is tested below
    assert after == ([False, False] if command == "verify" and _VERIFY_WORKERS else
                     [True, command == "verify"])


# verify in a fresh interpreter, where its checks run in forked workers: argv and a patch run
# first.  Its stdout and stderr, then on the last stderr line the exit code (or the exception
# raised, by type and message), the forks made, whether every child was reaped, and what the
# calling process has executed or loaded.
_VERIFY_PROBE = """
import json, os, signal, sys
import spinlearn.cli as cli
argv, patch = json.loads(sys.argv[1])
forks, fork = [], os.fork
os.fork = lambda: forks.append(1) or fork()
exec(patch)
try:
    outcome = cli.main(argv)
except BaseException as exc:
    outcome = f"{type(exc).__name__}: {exc}"
try:
    os.waitpid(-1, os.WNOHANG)
    reaped = False
except ChildProcessError:
    reaped = True
loaded = ["numpy._core" in sys.modules, "spinlearn.montecarlo" in sys.modules]
print(json.dumps([outcome, len(forks), reaped, loaded]), file=sys.stderr)
"""
_CORES = min(len(os.sched_getaffinity(0)), 7)
_VERIFY_WORKERS = _CORES if _CORES > 1 else 0  # the forks verify makes: none on one core


def _probe_verify(argv, patch=""):
    proc = subprocess.run([sys.executable, "-c", _VERIFY_PROBE, json.dumps([argv, patch])],
                          capture_output=True, text=True, timeout=300)
    *errors, summary = proc.stderr.splitlines()
    return (proc.stdout, errors, *json.loads(summary))


@pytest.mark.parametrize("n", [1, 2000, 100000])
@pytest.mark.parametrize("seed", [0, 7, 123])
def test_verify_workers_print_the_serial_bytes(seed, n, capsys):
    # in process numpy has executed, so the checks run one after another: the reference
    argv = ["verify", "--n-samples", str(n), "--seed", str(seed)]
    out, errors, code, forks, reaped, loaded = _probe_verify(argv)
    assert (errors, forks, reaped) == ([], _VERIFY_WORKERS, True)
    assert code == run_cli(argv) == (1 if n == 1 else 0)
    assert out == capsys.readouterr().out


def test_verify_out_from_workers_holds_the_serial_bytes(tmp_path, capsys):
    argv = ["verify", "--n-samples", "2000", "--seed", "7"]
    out, errors, code, forks, reaped, loaded = _probe_verify(argv + ["--out", str(tmp_path / "w")])
    assert (out, errors, code, forks, reaped) == ("", [], 0, _VERIFY_WORKERS, True)
    assert run_cli(argv) == 0
    assert (tmp_path / "w").read_bytes() == capsys.readouterr().out.encode()


def test_verify_workers_execute_numpy_and_load_the_monte_carlo_layer():
    # each check reports the state of the process that ran it; the caller's stays bare
    patch = ("check, caller = cli._verify_check, os.getpid()\n"
             "cli._verify_check = lambda *args: {**check(*args), 'worker': [os.getpid() != caller,"
             " 'numpy._core' in sys.modules, 'spinlearn.montecarlo' in sys.modules]}")
    out, errors, code, forks, reaped, loaded = _probe_verify(
        ["verify", "--n-samples", "200", "--seed", "3"], patch)
    assert (errors, code, forks, reaped) == ([], 0, _VERIFY_WORKERS, True)
    states = [c["worker"] for c in json.loads(out)["checks"]]
    assert states == [[bool(_VERIFY_WORKERS), True, True]] * 7
    assert loaded == [not _VERIFY_WORKERS] * 2


@pytest.mark.parametrize("argv, error", [
    (["verify", "--n-samples", "0"], "error: n_samples must be an integer >= 1, got 0"),
    (["verify", "--seed", "-1"], "error: seed must be an integer >= 0, got -1"),
], ids=["n-samples", "seed"])
def test_verify_checks_its_flags_before_any_fork(argv, error):
    out, errors, code, forks, reaped, loaded = _probe_verify(argv)
    assert (out, errors, code, forks, reaped, loaded) == ("", [error], 2, 0, True, [False, False])


@pytest.mark.parametrize("patch, workers", [
    ("os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})", 0),
    ("os.sched_getaffinity = lambda pid: set(range(64))", 7),
    ("del os.fork", 0),
    ("import threading\nthreading.Thread(target=threading.Event().wait, daemon=True).start()", 0),
], ids=["one-cpu", "64-cpus", "no-fork", "a-thread-runs"])
def test_verify_forks_a_worker_per_cpu_up_to_seven_or_runs_in_process(patch, workers, capsys):
    argv = ["verify", "--n-samples", "200", "--seed", "11"]
    out, errors, code, forks, reaped, loaded = _probe_verify(argv, patch)
    assert (errors, code, forks, reaped) == ([], 0, workers, True)
    assert run_cli(argv) == 0
    assert out == capsys.readouterr().out


@pytest.mark.parametrize("kind", [ValueError, ZeroDivisionError])
def test_an_exception_in_a_verify_check_reaches_the_caller(kind, monkeypatch, capsys):
    # the discrete xyz check (the fourth) raises, in a worker and in process alike
    argv = ["verify", "--n-samples", "200", "--seed", "7"]
    patch = f"def broken():\n    raise {kind.__name__}('no channel')\ncli.DiscreteXYZ = broken"
    out, errors, outcome, forks, reaped, loaded = _probe_verify(argv, patch)
    assert (out, forks, reaped) == ("", _VERIFY_WORKERS, True)

    def broken():
        raise kind("no channel")

    monkeypatch.setattr(cli, "DiscreteXYZ", broken)
    if kind is ValueError:  # the caller's usage error: exit 2 and its line
        assert outcome == run_cli(argv) == 2
        assert errors == ["error: no channel"]
        assert capsys.readouterr().err == "error: no channel\n"
    else:
        assert (outcome, errors) == ("ZeroDivisionError: no channel", [])
        with pytest.raises(ZeroDivisionError, match="^no channel$"):
            run_cli(argv)


def test_an_interrupted_verify_reaps_its_workers():
    # the caller is interrupted 0.1 s into a 0.4 s run: its workers are stopped and reaped
    patch = ("signal.signal(signal.SIGALRM, signal.default_int_handler)\n"
             "signal.setitimer(signal.ITIMER_REAL, 0.1)")
    out, errors, outcome, forks, reaped, loaded = _probe_verify(
        ["verify", "--n-samples", "100000", "--seed", "7"], patch)
    assert (out, errors, outcome, forks, reaped) == ("", [], "KeyboardInterrupt: ",
                                                     _VERIFY_WORKERS, True)


def _python_prints(code):
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, timeout=60).stdout



def test_cli_import_leaves_out_dataclasses_inspect_typing_and_json():
    # -S skips the site-packages .pth hooks, which may import typing on their own; numpy's
    # directory goes on the path by hand, for spinlearn._numpy to find it
    path = os.pathsep.join(str(Path(m.__file__).parents[1]) for m in (cli, np))
    code = ("import sys, spinlearn.cli; "
            "print([m for m in ('dataclasses', 'inspect', 'typing', 'json') if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          check=True, timeout=60, env={**os.environ, "PYTHONPATH": path})
    assert proc.stdout == "[]\n"

def test_numpy_imported_first_is_the_binding():
    assert _python_prints("import sys, types, numpy, spinlearn.optimal as o; "
                          "print(o.np is sys.modules['numpy'] and type(o.np) is types.ModuleType)"
                          ) == "True\n"


def test_running_threads_get_numpy_at_once_where_lazy_loading_races():
    executed = _python_prints("import sys, threading\n"
                              "stop = threading.Event()\n"
                              "threading.Thread(target=stop.wait).start()\n"
                              "import spinlearn.optimal\n"
                              "print('numpy._core' in sys.modules)\n"
                              "stop.set()")
    assert executed == f"{sys.version_info < (3, 12, 3)}\n"


def test_missing_numpy_fails_the_import():
    # sys.modules["numpy"] = None is how the import system marks a module as absent
    assert _python_prints("import sys; sys.modules['numpy'] = None\n"
                          "try:\n    import spinlearn.cli\n"
                          "except ModuleNotFoundError as exc:\n    print(exc.name)") == "numpy\n"


def test_cells_print_alike_in_csv_and_json(tmp_path):
    row = {"yes": True, "no": False, "int": 3, "np_int": np.int64(7), "float": 1 / 3,
           "np_float": np.float64(2 / 3), "str": "case1", "nan": math.nan, "inf": math.inf,
           "ninf": -math.inf}
    csv_out, json_out = tmp_path / "row.csv", tmp_path / "row.json"
    rows = cli._Sweep(list(row))
    rows.add(1, *row.values())
    cli.write_rows(rows, "csv", str(csv_out))
    cli.write_rows(rows, "json", str(json_out))
    assert csv_out.read_text().split("\n")[1] == (
        "true,false,3,7,0.333333333333,0.666666666667,case1,nan,inf,-inf")
    (cells,) = _strict_json(json_out.read_text())
    assert [(v, type(v)) for v in cells.values()] == [
        (True, bool), (False, bool), (3, int), (7, int), (0.333333333333, float),
        (0.666666666667, float), ("case1", str), ("nan", str), ("inf", str), ("-inf", str)]


@pytest.mark.parametrize("command, per_two_j", [("optimal", 1), ("benchmark", 2)])
def test_sweep_checks_each_spin_once_per_evaluator(command, per_two_j, monkeypatch, capsys):
    # a 100 x 200 sweep makes one evaluator per spin (two for benchmark): two_j is
    # checked there, not on each of the 20,000 rows
    from spinlearn import spins

    calls = []
    original = spins.check_two_j
    monkeypatch.setattr(spins, "check_two_j", lambda two_j: calls.append(two_j) or original(two_j))
    assert run_cli([command, "--two-j", *map(str, range(1, 101)), "--theta-grid", "200"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 100 * 200
    assert sorted(calls) == sorted(list(range(1, 101)) * per_two_j)


# SHA-256 of stdout of `<command> --problem <p> --two-j 1 ... 100 --theta-grid 200`, measured
# on the per-angle regime closures that the grid evaluators replaced
_SWEEP_DIGESTS = {
    ("benchmark", "2"): "fc526ea5ee84c52cedcd7b5934f9b91e3464075852ccab5456e5634b2c63bf97",
    ("benchmark", "1"): "4069a5a3585ca2a6f723c413cee22658b5faf5e126f6b951af79500854ac04e2",
    ("optimal", "2"): "71b3689d3d5378f4734c60f3b92326879a98322c2bb1c12e7f70ae1975685b7a",
    ("optimal", "1"): "0ef2b23d2cb36281733329e005a244ee2762e7c61dfa164908e31e0b20679178",
}


@pytest.mark.parametrize("command, problem", list(_SWEEP_DIGESTS))
def test_sweeps_print_the_pinned_bytes(command, problem, capsys):
    import hashlib

    assert run_cli([command, "--problem", problem, "--two-j", *map(str, range(1, 101)),
                    "--theta-grid", "200"]) == 0
    text = capsys.readouterr().out
    assert hashlib.sha256(text.encode()).hexdigest() == _SWEEP_DIGESTS[command, problem]


def test_block_rows_print_as_their_row_dicts(tmp_path):
    # the block writer formats a shared (tuple) grid once and a block's shared value once per
    # block; the text is the one the rows print as one-row blocks of their own values, 0.0 and
    # -0.0, True and 1 included
    rows = cli._Sweep(["two_j", "grid", "flag", "value", "label"])
    grid = (0.0, -0.0, 1.0, 2.5)
    rows.add(4, 1, grid, True, [1, True, 0.0, -0.0], "a")
    rows.add(4, -0.0, grid, 1, [np.float64(0.5), math.nan, -math.inf, 7], "b")
    assert len(rows) == 8
    assert list(rows)[6] == {"two_j": -0.0, "grid": 1.0, "flag": 1, "value": -math.inf,
                             "label": "b"}
    single = cli._Sweep(rows.fields)
    for row in rows:
        single.add(1, *row.values())
    for fmt in ("csv", "json"):
        blocks, dicts = tmp_path / f"blocks.{fmt}", tmp_path / f"dicts.{fmt}"
        cli.write_rows(rows, fmt, str(blocks))
        cli.write_rows(single, fmt, str(dicts))
        assert blocks.read_text() == dicts.read_text()
    assert (tmp_path / "blocks.csv").read_text().splitlines()[1:] == [
        "1,0,true,1,a", "1,-0,true,true,a", "1,1,true,0,a", "1,2.5,true,-0,a",
        "-0,0,1,0.5,b", "-0,-0,1,nan,b", "-0,1,1,-inf,b", "-0,2.5,1,7,b"]
    with pytest.raises(ValueError, match="a block of 3 rows needs 5 columns of 3"):
        rows.add(3, 1, grid, True, [1, 2, 3], "c")
