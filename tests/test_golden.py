"""Every experiment's report against a committed reference report.

``tests/golden/<experiment>.json`` holds one report per experiment, each for
a config of a few hundred replicas on a small network; the config is read back
from the report itself.  The reports were written before the statistical
records were built through ``stats.z_record`` and ``stats.ks_record``, so a
change that moves a draw, swaps a record's fields or alters a pass rule fails
here.  Regenerate a file only for a change meant to move draws, by writing
``run_experiment(ExperimentConfig.from_dict(doc["config"])).to_json()``.
"""

import json
import math
from pathlib import Path

import pytest

from loopfield.harness import EXPERIMENTS, ExperimentConfig, run_experiment

GOLDEN = Path(__file__).parent / "golden"
FLOAT_FIELDS = ("exact", "estimate", "stderr", "z", "p")
REL_TOL = 1e-12


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
