"""Every experiment's report against a committed reference report.

``tests/golden/<experiment>.json`` holds one report per experiment, each for
a config of a few hundred replicas on a small network; the config is read back
from the report itself.  The reports were written before the statistical
records were built through ``stats.z_record`` and ``stats.ks_record``, so a
change that moves a draw, swaps a record's fields or alters a pass rule fails
here.  Regenerate a file only for a change meant to move draws, by writing
``run_experiment(ExperimentConfig.from_dict(doc["config"])).to_json()``.

``tests/golden/<command>.csv`` holds the output of the CLI sampling commands
``sample-loops`` and ``couple``, which emit per-replica rows rather than a
report, for the command line in ``CLI_GOLDEN``; they are compared byte for
byte.
"""

import json
import math
from pathlib import Path

import pytest

from loopfield.cli import main
from loopfield.harness import EXPERIMENTS, ExperimentConfig, run_experiment

GOLDEN = Path(__file__).parent / "golden"
FLOAT_FIELDS = ("exact", "estimate", "stderr", "z", "p")
REL_TOL = 1e-12
CLI_GOLDEN = {
    "sample-loops": ["--alpha", "0.5"],
    "couple": [],
}


def _same_float(a, b) -> bool:
    if a is None or b is None:
        return a is b
    if not math.isfinite(a) or not math.isfinite(b):
        return a == b
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)


def test_one_golden_report_per_experiment():
    assert {p.stem for p in GOLDEN.glob("*.json")} == set(EXPERIMENTS)


@pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
def test_report_matches_golden(experiment):
    golden = json.loads((GOLDEN / f"{experiment}.json").read_text())
    report = json.loads(run_experiment(ExperimentConfig.from_dict(golden["config"])).to_json())
    assert report["config"] == golden["config"]
    assert report["all_passed"] == golden["all_passed"]
    assert len(report["records"]) == len(golden["records"])
    for got, want in zip(report["records"], golden["records"]):
        assert (got["test"], got["formula"], got["pass"]) == (
            want["test"],
            want["formula"],
            want["pass"],
        )
        for name in FLOAT_FIELDS:
            assert _same_float(got[name], want[name]), (want["test"], name, got[name], want[name])


@pytest.mark.parametrize("command", sorted(CLI_GOLDEN))
def test_cli_sampling_output_matches_golden(command, tmp_path, capsys):
    out = tmp_path / f"{command}.csv"
    argv = [command, "--net", "grid:3x3", "--replicas", "200", "--seed", "1", "--out", str(out)]
    assert main(argv + CLI_GOLDEN[command]) == 0
    capsys.readouterr()
    assert out.read_bytes() == (GOLDEN / f"{command}.csv").read_bytes()
