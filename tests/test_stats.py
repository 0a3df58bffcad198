import math

import numpy as np
import pytest
from scipy import stats as sps

from loopfield.stats import KS_PVALUE, Z_LIMIT, ks_pvalue, ks_record, normal_cdf, z_record, z_score


def test_thresholds():
    assert Z_LIMIT == 3.9
    assert KS_PVALUE == 1e-3


@pytest.mark.parametrize(
    "estimate, stderr, passed",
    [
        (3.9, 1.0, False),
        (-3.9, 1.0, False),
        (math.nextafter(3.9, 0.0), 1.0, True),
        (-math.nextafter(3.9, 0.0), 1.0, True),
        (0.0, 1.0, True),
        (1.0, 0.0, False),  # z = +inf
        (-1.0, 0.0, False),  # z = -inf
        (math.inf, 1.0, False),
        (math.nan, 1.0, False),
        (1.0, math.nan, False),
    ],
)
def test_z_record_pass_rule(estimate, stderr, passed):
    rec = z_record("t", "f", 0.0, estimate, stderr)
    assert rec.passed is passed
    expected_z = z_score(estimate, 0.0, stderr)
    assert rec.z == expected_z or (math.isnan(rec.z) and math.isnan(expected_z))
    assert (rec.test_id, rec.formula, rec.exact, rec.stderr, rec.p_value) == (
        "t",
        "f",
        0.0,
        stderr,
        None,
    )
    assert rec.estimate == estimate or math.isnan(estimate)


def test_z_record_stores_z_score():
    rec = z_record("id", "formula", 0.25, 0.31, 0.02)
    assert rec.z == z_score(0.31, 0.25, 0.02)
    assert (rec.exact, rec.estimate, rec.stderr) == (0.25, 0.31, 0.02)
    # the sign of z follows estimate - exact
    assert rec.z > 0
    assert z_record("id", "formula", 0.31, 0.25, 0.02).z == -rec.z


def test_ks_record_passes_exactly_above_the_floor():
    rng = np.random.default_rng(5)
    cdf = lambda t: normal_cdf(t, 1.0)  # noqa: E731
    samples = rng.standard_normal(400)
    p = ks_pvalue(samples, cdf)
    rec = ks_record("ks", "x ~ N(0, 1)", samples, cdf, exact=1.0, estimate=2.0)
    assert rec.p_value == p == sps.kstest(samples, cdf).pvalue
    assert p > KS_PVALUE and rec.passed is True
    assert (rec.exact, rec.estimate, rec.stderr, rec.z) == (1.0, 2.0, None, None)
    # shifted samples: p far below the floor
    bad = ks_record("ks", "x ~ N(0, 1)", samples + 1.0, cdf)
    assert bad.p_value < KS_PVALUE and bad.passed is False


@pytest.mark.parametrize(
    "p, passed",
    [(KS_PVALUE, False), (math.nextafter(KS_PVALUE, 1.0), True), (0.0, False), (math.nan, False)],
)
def test_ks_record_threshold(monkeypatch, p, passed):
    import loopfield.stats as stats

    monkeypatch.setattr(stats, "ks_pvalue", lambda samples, cdf: p)
    rec = ks_record("ks", "f", np.zeros(3), None)
    assert rec.passed is passed
    assert rec.p_value == p or math.isnan(p)
