"""The README's CLI commands print byte-for-byte what `tests/golden/*.out` holds.

A refactor that changes any printed digit fails here.  That includes
`verify`: its estimates and standard errors are fixed by (n_samples, seed),
so identical input gives an identical report.  The sweep goldens run 101
angles over [0, pi] at small spins, across every regime boundary: the
j = 1/2 case-2 window, both j = 1 anomalous windows (quantum problem 2 and
MO) and problem 1 beside problem 2.
"""

from pathlib import Path

import pytest

from spinlearn import cli

GOLDEN = Path(__file__).resolve().parent / "golden"

README_COMMANDS = {
    "optimal": ["optimal", "--two-j", "3", "--theta", "1.0"],
    "benchmark": ["benchmark", "--two-j", "3", "--theta", "1.0"],
    "recycle": ["recycle", "--two-j", "200", "--theta", "1.0", "--n-uses", "60"],
    "thermal": ["thermal", "--two-j", "1000", "--theta", "1.0", "--gamma", "0.4", "0.7"],
    "spin-k": ["spin-k", "--two-j", "400", "--two-k", "2", "3", "--theta", "1.0", "--seed", "5"],
    "verify": ["verify", "--n-samples", "100000", "--seed", "7"],
}


SWEEP_COMMANDS = {
    "sweep-benchmark.csv": ["benchmark", "--two-j", "1", "2", "3", "4", "--theta-grid", "101"],
    "sweep-benchmark.json": ["benchmark", "--two-j", "1", "2", "3", "4", "--theta-grid", "101",
                             "--format", "json"],
    "sweep-optimal-p1": ["optimal", "--two-j", "1", "2", "3", "--theta-grid", "101",
                         "--problem", "1"],
    "sweep-optimal-p2": ["optimal", "--two-j", "1", "2", "3", "--theta-grid", "101",
                         "--problem", "2"],
}


def test_golden_commands_appear_in_readme():
    readme = (GOLDEN.parents[1] / "README.md").read_text()
    for argv in README_COMMANDS.values():
        assert "spinlearn " + " ".join(argv) in readme


@pytest.mark.parametrize("name", sorted(README_COMMANDS) + sorted(SWEEP_COMMANDS))
def test_readme_command_stdout_is_golden(name, capsys):
    assert cli.main({**README_COMMANDS, **SWEEP_COMMANDS}[name]) == cli.EXIT_OK
    assert capsys.readouterr().out.encode() == (GOLDEN / f"{name}.out").read_bytes()
