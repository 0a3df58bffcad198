"""Zero-hitting laws for the sum of a squared bridge and two squared
Bessel-0 excursion profiles over an interval of length T.

The probability that the sum

    b(t)^2 + beta1(t) + beta2(T - t),   0 < t < T,

has a zero (b a standard bridge, beta_i squared Bessel-0 started from l_i and
conditioned to die before T) reduces to a one-dimensional event: the first
zero of beta1 must fall before the last zero of the remaining sum.  Both zero
times have explicit densities, and the resulting probability is

    (1 / sqrt(pi)) * integral_0^inf exp(-lambda / s - s) ds / sqrt(s)
        = exp(-2 sqrt(lambda)),        lambda = l1 l2 / (2T)^2.

No path is ever simulated here.  The probability is checked by quadrature,
and by Monte Carlo from exact draws of both zero times: the first zero is a
transformed shifted exponential, the last zero a transformed half-normal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .stats import mc_mean

__all__ = [
    "BridgeProblem",
    "zero_probability_closed_form",
    "zero_probability_quadrature",
    "sample_first_zero",
    "LastZeroSampler",
    "three_process_zero_mc",
]


@dataclass(frozen=True)
class BridgeProblem:
    """Interval length and the two excursion initial values."""

    T: float
    l1: float
    l2: float

    def __post_init__(self) -> None:
        if not (self.T > 0 and self.l1 > 0 and self.l2 > 0):
            raise ValueError("T, l1, l2 must all be positive")

    @property
    def lam(self) -> float:
        return self.l1 * self.l2 / (2.0 * self.T) ** 2


def zero_probability_closed_form(p: BridgeProblem) -> float:
    """``exp(-2 sqrt(lambda))`` with ``lambda = l1 l2 / (2T)^2``."""
    return math.exp(-2.0 * math.sqrt(p.lam))


def zero_probability_quadrature(p: BridgeProblem, rel_tol: float = 1e-10) -> float:
    """Evaluate the zero probability by adaptive quadrature.

    The substitution ``s = t**2`` removes the ``1/sqrt(s)`` endpoint
    singularity, leaving ``(2 / sqrt(pi)) * integral exp(-lam/t^2 - t^2) dt``.
    Raises if the quadrature error estimate exceeds the requested tolerance.
    """
    # scipy.integrate is imported by the runs that integrate, not by every import
    from scipy.integrate import quad

    if rel_tol < 1e-12:
        raise ValueError("rel_tol must be >= 1e-12")
    lam = p.lam

    def integrand(t):
        return np.exp(-lam / t**2 - t**2) if t > 0 else float(lam == 0.0)

    value, abserr = quad(integrand, 0.0, np.inf, epsabs=0.0, epsrel=rel_tol, limit=200)
    if value <= 0 or abserr > 10.0 * rel_tol * value:
        raise ArithmeticError(
            f"quadrature did not converge: value={value!r}, achieved error {abserr!r}"
        )
    return 2.0 / math.sqrt(math.pi) * value


# -- first zero of the excursion started from l1 ---------------------------
#
# Density (l1 / 2 t^2) exp(l1 / 2T - l1 / 2t) on (0, T).  Substituting
# u = l1 / (2 t) shows u is a unit exponential shifted by l1 / (2T), which
# gives the exact sampler and the CDF exp(l1 / 2T - l1 / 2t).


def sample_first_zero(l1: float, T: float, rng: np.random.Generator, size=None):
    """Exact draw(s) of the first zero time; always in (0, T)."""
    if l1 <= 0 or T <= 0:
        raise ValueError("l1 and T must be positive")
    shifted = l1 / (2.0 * T) + rng.exponential(1.0, size=size)
    return l1 / (2.0 * shifted)


# -- last zero of the bridge-plus-excursion sum ----------------------------


class LastZeroSampler:
    """Exact sampler for the last-zero law on (0, T).

    Under ``t = T sin^2(theta)``, ``tan(theta)`` is half-normal with variance
    ``T / l2``, so a draw is ``T Z^2 / (Z^2 + l2 / T)`` for a standard normal
    ``Z``.
    """

    def __init__(self, l2: float, T: float):
        if l2 <= 0 or T <= 0:
            raise ValueError("l2 and T must be positive")
        self.l2 = float(l2)
        self.T = float(T)

    def sample(self, rng: np.random.Generator, size=None):
        z2 = rng.standard_normal(size) ** 2
        return self.T * z2 / (z2 + self.l2 / self.T)


def three_process_zero_mc(
    p: BridgeProblem, replicas: int, rng: np.random.Generator
) -> tuple[float, float]:
    """Monte Carlo estimate of the zero probability, with standard error.

    Estimates ``P(t1 <= t2)`` with the first-zero and last-zero times drawn
    independently; this equals the zero probability of the three-process sum
    without simulating any path.
    """
    if replicas < 2:
        raise ValueError("need at least 2 replicas")
    t1 = sample_first_zero(p.l1, p.T, rng, size=replicas)
    t2 = LastZeroSampler(p.l2, p.T).sample(rng, size=replicas)
    return mc_mean((t1 <= t2).astype(float))
