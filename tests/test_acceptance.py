"""Acceptance suite: every stated identity at its stated tolerance.

Default tolerances: |z| < 3.9 for Monte Carlo z-tests, Kolmogorov-Smirnov
p > 1e-3, quadrature relative error < 1e-8, and exact (zero-violation)
structural checks.  Each criterion prints one pass/fail line; run with
``pytest tests/test_acceptance.py -v -s``.
"""

import json

import pytest

from loopfield.harness import ExperimentConfig, run_experiment

Z_LIMIT = 3.9
KS_FLOOR = 1e-3


def _announce(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")


def _max_abs_z(records) -> float:
    return max((abs(r.z) for r in records if r.z is not None), default=0.0)


def _min_p(records) -> float:
    return min((r.p_value for r in records if r.p_value is not None), default=1.0)


@pytest.fixture(scope="module")
def coupling_reports():
    reports = {}
    for name, spec, replicas, seed in [
        ("two-vertex", "two-vertex", 100_000, 201),
        ("3-path", "path:3", 100_000, 202),
        ("3x3-grid", "grid:3x3", 100_000, 203),
    ]:
        cfg = ExperimentConfig("coupling-law", seed=seed, replicas=replicas, network=spec)
        reports[name] = run_experiment(cfg)
    return reports


def test_criterion_1_coupling_law(coupling_reports):
    ok = True
    details = []
    for name, report in coupling_reports.items():
        stat = [r for r in report.records if r.test_id != "sign-constant-on-loop-clusters"]
        good = all(r.passed for r in stat)
        ok = ok and good
        details.append(f"{name}: max|z|={_max_abs_z(stat):.2f}, min KS p={_min_p(stat):.2g}")
    _announce("criterion 1 (coupled field is a free field)", ok, "; ".join(details))
    assert ok


def test_criterion_2_sign_constancy(coupling_reports):
    ok = True
    details = []
    for name, report in coupling_reports.items():
        rec = next(r for r in report.records if r.test_id == "sign-constant-on-loop-clusters")
        ok = ok and rec.passed and rec.estimate == 0.0
        details.append(f"{name}: violations={int(rec.estimate)}")
    _announce("criterion 2 (sign constant on loop clusters)", ok, "; ".join(details))
    assert ok


def test_criterion_3_edge_avoidance_determinant():
    details = []
    ok = True
    for spec, edges, seed in [("two-vertex", [[0, 1]], 204), ("path:3", [[0, 1]], 205)]:
        cfg = ExperimentConfig(
            "det-ratio", seed=seed, replicas=100_000, network=spec,
            parameters={"edges": edges},
        )
        report = run_experiment(cfg)
        rec = report.records[0]
        ok = ok and rec.passed
        details.append(f"{spec}: exact={rec.exact:.6f}, est={rec.estimate:.6f}, z={rec.z:.2f}")
    _announce("criterion 3 (edge avoidance = sqrt det ratio)", ok, "; ".join(details))
    assert ok


def test_criterion_4_occupation_half_square():
    cfg = ExperimentConfig("occupation-field", seed=206, replicas=100_000, network="grid:3x3")
    report = run_experiment(cfg)
    ok = report.all_passed
    _announce(
        "criterion 4 (occupation at 1/2 is half the squared field)",
        ok,
        f"3x3 grid: {len(report.records)} records, max|z|={_max_abs_z(report.records):.2f}, "
        f"min KS p={_min_p(report.records):.2g}",
    )
    assert ok


def test_criterion_5_bridge_integral():
    cfg = ExperimentConfig(
        "bridge-check", seed=207, replicas=100_000,
        parameters={"lambda_grid": [1e-4, 1e-2, 0.25, 1.0, 4.0, 25.0]},
    )
    report = run_experiment(cfg)
    quad = [r for r in report.records if "quadrature" in r.test_id]
    mc = [r for r in report.records if "first-vs-last" in r.test_id]
    worst_rel = max(r.stderr for r in quad)
    ok = report.all_passed
    _announce(
        "criterion 5 (bridge integral closed form)",
        ok,
        f"max rel err={worst_rel:.2e} (< 1e-8), MC max|z|={_max_abs_z(mc):.2f}",
    )
    assert ok


def test_criterion_6_arcsine_connectivity():
    details = []
    ok = True
    for spec, x, y, seed in [("two-vertex", 0, 1, 208), ("grid:4x4", 5, 10, 209)]:
        cfg = ExperimentConfig(
            "connectivity", seed=seed, replicas=100_000, network=spec,
            parameters={"x": x, "y": y},
        )
        report = run_experiment(cfg)
        rec = report.records[0]
        ok = ok and rec.passed
        details.append(f"{spec}({x},{y}): exact={rec.exact:.6f}, z={rec.z:.2f}")
    _announce("criterion 6 (arcsine connectivity law)", ok, "; ".join(details))
    assert ok


def test_criterion_7_interlacement_vacant_set():
    details = []
    ok = True
    for k, seed in [([[0, 0, 0]], 210), ([[0, 0, 0], [1, 0, 0]], 211)]:
        cfg = ExperimentConfig(
            "interlacement", seed=seed, replicas=30_000,
            parameters={"d": 3, "n": 5, "u": 0.25, "k": k, "star_replicas": 6_000},
        )
        report = run_experiment(cfg)
        ok = ok and report.all_passed
        details.append(f"|K|={len(k)}: max|z|={_max_abs_z(report.records):.2f}")
    _announce(
        "criterion 7 (vacant-set law, occupation mean, sampler agreement)",
        ok,
        "; ".join(details),
    )
    assert ok


def test_criterion_8_isomorphism():
    details = []
    ok = True
    for u, seed in [(0.5, 212), (1.0, 213)]:
        cfg = ExperimentConfig(
            "isomorphism-check", seed=seed, replicas=20_000,
            parameters={"d": 2, "n": 5, "u": u},
        )
        report = run_experiment(cfg)
        ok = ok and report.all_passed
        details.append(f"u={u}: {len(report.records)} moments, max|z|={_max_abs_z(report.records):.2f}")
    _announce("criterion 8 (occupation-field isomorphism at finite volume)", ok, "; ".join(details))
    assert ok


def test_criterion_9_levelset_containment():
    details = []
    ok = True
    for u, seed in [(0.1, 214), (1.0, 215)]:
        cfg = ExperimentConfig(
            "levelset-check", seed=seed, replicas=10_000,
            parameters={"d": 2, "n": 5, "u": u},
        )
        report = run_experiment(cfg)
        by_id = {r.test_id: r for r in report.records}
        violations = int(by_id["levelset-containment-violations"].estimate)
        fraction = by_id["levelset-vacant-fraction"].estimate
        ok = ok and report.all_passed and violations == 0 and fraction == 1.0
        details.append(f"u={u}: violations={violations}, vacant fraction={fraction}")
    _announce("criterion 9 (level-set containment, exact)", ok, "; ".join(details))
    assert ok


def test_criterion_10_determinism():
    outputs = []
    for _ in range(2):
        cfg = ExperimentConfig(
            "interlacement", seed=216, replicas=2_000,
            parameters={"d": 3, "n": 5, "u": 0.25, "k": [[0, 0, 0]], "star_replicas": 500},
        )
        outputs.append(run_experiment(cfg).to_json())
    same = outputs[0] == outputs[1]

    cfg = ExperimentConfig(
        "connectivity", seed=217, replicas=5_000, network="two-vertex",
        parameters={"x": 0, "y": 1},
    )
    a = run_experiment(cfg).to_json()
    b = run_experiment(cfg).to_json()
    ok = same and a == b and json.loads(a)["all_passed"]
    _announce("criterion 10 (byte-identical reports under a fixed seed)", ok,
              f"interlacement rerun identical={same}, connectivity rerun identical={a == b}")
    assert ok
