"""Statistical checks shared by the verification experiments.

A z-record passes when its two-sided z score is below ``Z_LIMIT`` = 3.9 in
absolute value (false-alarm rate about 1e-4); a Kolmogorov-Smirnov record
passes when its p-value exceeds ``KS_PVALUE`` = 1e-3.  Both are meant to be
stable in repeated runs at 1e4 to 1e5 replicas.  ``z_record`` and
``ks_record`` are the only places that apply them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import stats as sps
from scipy.special import erf

__all__ = [
    "Z_LIMIT",
    "KS_PVALUE",
    "TestRecord",
    "mc_mean",
    "z_score",
    "ks_pvalue",
    "z_record",
    "ks_record",
    "normal_cdf",
    "half_square_cdf",
]

Z_LIMIT = 3.9
KS_PVALUE = 1e-3


@dataclass(frozen=True)
class TestRecord:
    """One verified identity: target, estimate and the decision statistic."""

    test_id: str
    formula: str
    passed: bool
    exact: float | None = None
    estimate: float | None = None
    stderr: float | None = None
    z: float | None = None
    p_value: float | None = None

    def to_dict(self) -> dict:
        return {
            "test": self.test_id,
            "formula": self.formula,
            "exact": self.exact,
            "estimate": self.estimate,
            "stderr": self.stderr,
            "z": self.z,
            "p": self.p_value,
            "pass": self.passed,
        }


def mc_mean(samples: np.ndarray) -> tuple[float, float]:
    """Sample mean and its standard error."""
    x = np.asarray(samples, dtype=float)
    n = x.size
    mean = float(x.mean())
    sem = float(x.std(ddof=1) / math.sqrt(n)) if n > 1 else math.inf
    return mean, sem


def z_score(estimate: float, target: float, sem: float) -> float:
    diff = estimate - target
    if diff == 0.0:
        return 0.0
    if sem == 0.0:
        return math.inf if diff > 0 else -math.inf
    return diff / sem


def ks_pvalue(samples: np.ndarray, cdf) -> float:
    """Kolmogorov-Smirnov p-value of samples against a cdf callable."""
    return float(sps.kstest(np.asarray(samples, dtype=float), cdf).pvalue)


def z_record(
    test_id: str, formula: str, exact: float, estimate: float, stderr: float
) -> TestRecord:
    """Record of ``estimate`` against ``exact``; passes when ``|z| < Z_LIMIT``
    (an infinite or NaN z fails)."""
    z = z_score(estimate, exact, stderr)
    return TestRecord(test_id, formula, abs(z) < Z_LIMIT, exact, estimate, stderr, z)


def ks_record(test_id: str, formula: str, samples: np.ndarray, cdf, **values) -> TestRecord:
    """Kolmogorov-Smirnov record of ``samples`` against ``cdf``; passes when
    ``p > KS_PVALUE``.  ``values`` sets other record fields (``exact``,
    ``estimate``)."""
    p = ks_pvalue(samples, cdf)
    return TestRecord(test_id, formula, passed=p > KS_PVALUE, p_value=p, **values)


def normal_cdf(x, sigma: float):
    return sps.norm.cdf(x, scale=sigma)


def half_square_cdf(t, variance: float):
    """CDF of ``phi^2 / 2`` for a centred normal with the given variance."""
    t = np.asarray(t, dtype=float)
    return np.where(t <= 0, 0.0, erf(np.sqrt(np.clip(t, 0, None) / variance)))

