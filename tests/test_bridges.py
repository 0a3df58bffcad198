import math

import numpy as np
import pytest
from scipy import stats as sps
from scipy.integrate import quad, quad_vec
from scipy.special import erfinv

from loopfield.bridges import (
    BridgeProblem,
    LastZeroSampler,
    sample_first_zero,
    three_process_zero_mc,
    zero_probability_closed_form,
    zero_probability_quadrature,
)
from loopfield.stats import mc_mean, z_score
from loopfield.streams import derive_stream

LAMBDA_GRID = [1e-4, 1e-2, 0.25, 1.0, 4.0, 25.0]


def first_zero_cdf(t, l1: float, T: float):
    """CDF of the first zero on (0, T): ``exp(l1/2T - l1/2t)``."""
    t = np.asarray(t, dtype=float)
    out = np.exp(l1 / (2.0 * T) - l1 / (2.0 * np.clip(t, 1e-300, None)))
    return np.where(t <= 0, 0.0, np.where(t >= T, 1.0, out))


def last_zero_density(t, l2: float, T: float):
    """Density of the last zero on (0, T):
    ``sqrt(l2 T) exp(l2/2T - l2/(2(T-t))) / sqrt(2 pi t (T-t)^3)``."""
    t = np.asarray(t, dtype=float)
    inside = (t > 0) & (t < T)
    ts = np.where(inside, t, 0.5 * T)
    dens = (
        math.sqrt(l2 * T)
        * np.exp(l2 / (2.0 * T) - l2 / (2.0 * (T - ts)))
        / np.sqrt(2.0 * math.pi * ts * (T - ts) ** 3)
    )
    return np.where(inside, dens, 0.0)


def problem_for(lam: float, T: float = 0.5) -> BridgeProblem:
    # l1 = l2 = 2T sqrt(lam) gives l1 l2 / (2T)^2 = lam
    side = 2.0 * T * math.sqrt(lam)
    return BridgeProblem(T, side, side)


def test_problem_for_realizes_lambda():
    for lam in LAMBDA_GRID:
        assert problem_for(lam).lam == pytest.approx(lam, rel=1e-14)
        assert problem_for(lam, T=2.0).lam == pytest.approx(lam, rel=1e-14)


def test_closed_form_values():
    assert zero_probability_closed_form(BridgeProblem(0.5, 0.5, 0.5)) == pytest.approx(
        math.exp(-1.0), abs=1e-14
    )
    # l1 l2 = (2T)^2 gives lambda = 1
    assert zero_probability_closed_form(BridgeProblem(0.5, 2.0, 0.5)) == pytest.approx(
        math.exp(-2.0), abs=1e-14
    )
    # l1 -> 0 limit: probability -> 1
    assert zero_probability_closed_form(BridgeProblem(0.5, 1e-14, 1.0)) == pytest.approx(
        1.0, abs=1e-6
    )


def test_problem_validation():
    with pytest.raises(ValueError):
        BridgeProblem(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        BridgeProblem(1.0, -1.0, 1.0)


def test_quadrature_matches_closed_form():
    for lam in LAMBDA_GRID:
        p = problem_for(lam)
        closed = zero_probability_closed_form(p)
        quad_val = zero_probability_quadrature(p)
        assert abs(quad_val - closed) / closed < 1e-8
    with pytest.raises(ValueError):
        zero_probability_quadrature(problem_for(1.0), rel_tol=1e-13)


def test_quadrature_gamma_half_normalization():
    # lambda -> 0 recovers Gamma(1/2) = sqrt(pi), i.e. probability 1
    assert zero_probability_quadrature(BridgeProblem(1.0, 1e-13, 1.0)) == pytest.approx(
        1.0, abs=1e-5
    )


def test_first_zero_sampler():
    rng = derive_stream(41, 0)
    l1, T = 0.8, 0.5
    draws = sample_first_zero(l1, T, rng, size=100_000)
    assert draws.min() > 0 and draws.max() < T
    # closed-form CDF checked against direct quadrature of the density
    density = lambda t: (l1 / (2.0 * t**2)) * math.exp(l1 / (2.0 * T) - l1 / (2.0 * t))
    for t in (0.05, 0.2, 0.45):
        num, _ = quad(density, 1e-9, t)
        assert first_zero_cdf(t, l1, T) == pytest.approx(num, abs=1e-9)
    assert sps.kstest(draws, lambda t: first_zero_cdf(t, l1, T)).pvalue > 1e-3


def test_first_zero_concentrates_near_T():
    rng = derive_stream(42, 0)
    draws = sample_first_zero(500.0, 1.0, rng, size=20_000)
    assert np.median(draws) > 0.99


def quadrature_cdf(t, l2, T):
    """``int_0^t last_zero_density``, by vector quadrature over ``s = u^2 t``,
    which removes the density's ``1/sqrt(s)`` singularity at 0."""
    t = np.asarray(t, dtype=float)
    value, _ = quad_vec(lambda u: 2.0 * u * t * last_zero_density(u * u * t, l2, T), 0.0, 1.0)
    return value


def test_last_zero_sampler_against_quadrature_cdf():
    rng = derive_stream(43, 0)
    for l2, T in [(0.5, 0.5), (2.0, 1.0)]:
        draws = LastZeroSampler(l2, T).sample(rng, size=100_000)
        assert draws.min() > 0 and draws.max() < T
        assert sps.kstest(draws, lambda t: quadrature_cdf(t, l2, T)).pvalue > 1e-3
        for t in (0.2 * T, 0.7 * T):
            num, _ = quad(lambda s: last_zero_density(s, l2, T), 0.0, t, limit=200)
            assert quadrature_cdf(t, l2, T) == pytest.approx(num, abs=1e-9)


def test_last_zero_draws_integrate_first_zero_cdf():
    # E[F1(t2)] = P(t1 <= t2) = exp(-2 sqrt(lambda)), with lambda realized as in
    # bridge-check; lambda = 25 probes the far upper tail of t2
    for idx, lam in enumerate((1.0, 4.0, 25.0)):
        p = BridgeProblem(0.5, math.sqrt(lam), math.sqrt(lam))
        t2 = LastZeroSampler(p.l2, p.T).sample(derive_stream(48, idx), size=1_000_000)
        est, sem = mc_mean(first_zero_cdf(t2, p.l1, p.T))
        assert abs(z_score(est, zero_probability_closed_form(p), sem)) < 4.0


def test_last_zero_small_l2_median():
    # median from an independent closed-form inversion of the CDF:
    # F(t) = erf(sqrt(t / (T - t)) sqrt(l2 / 2T)) so the median solves
    # t / (T - t) = (erfinv(1/2))^2 * 2T / l2
    l2, T = 0.01, 0.5
    c = erfinv(0.5) ** 2 * 2.0 * T / l2
    median_exact = T * c / (1.0 + c)
    rng = derive_stream(44, 0)
    draws = LastZeroSampler(l2, T).sample(rng, size=100_000)
    assert np.median(draws) == pytest.approx(median_exact, rel=0.02)
    assert median_exact > 0.9 * T  # the law pushes toward T as l2 -> 0


def test_three_process_mc_matches_closed_form():
    for idx, lam in enumerate(LAMBDA_GRID):
        p = problem_for(lam)
        est, sem = three_process_zero_mc(p, 20_000, derive_stream(45, idx))
        assert abs(z_score(est, zero_probability_closed_form(p), sem)) < 3.9


def test_three_process_degenerate_l1():
    p = BridgeProblem(0.5, 1e-12, 1.0)
    est, _ = three_process_zero_mc(p, 5_000, derive_stream(46, 0))
    assert est == 1.0


def test_opening_probability_is_one_minus_zero_probability(two_vertex):
    # the coupling opens an edge exactly when the cable field has no zero:
    # exp(-2 C sqrt(l1 l2)) = exp(-2 sqrt(lambda)) with T = rho(e)
    from loopfield.gff import cable_open_probability

    rng = np.random.default_rng(47)
    for _ in range(200):
        c = rng.uniform(0.1, 4.0)
        l1, l2 = rng.uniform(0.01, 5.0, size=2)
        p = BridgeProblem(1.0 / (2.0 * c), l1, l2)
        assert cable_open_probability(c, math.sqrt(l1 * l2)) == pytest.approx(
            1.0 - zero_probability_closed_form(p), abs=1e-12
        )
