"""Banded linear algebra for the energy form and its inverse.

The energy form of a network is the symmetric matrix ``A`` over alive
vertices with ``A[x, x] = kappa(x) + sum_y C(x, y)`` and ``A[x, y] = -C(x, y)``.
Its inverse ``G`` is the Green matrix of the continuous-time walk and the
covariance of the Gaussian free field.

Neither ``A`` nor ``G`` is ever held dense.  With ``J`` the reversal of the
alive order, ``J A J = M M^T`` for a lower triangular ``M`` of the same
bandwidth ``b`` as ``A`` (the largest ``|i - j|`` over edges between alive
vertices ``i``, ``j``).  Then the lower Cholesky factor of ``G`` is exactly
``J M^-T J``, so a free field is one banded back-substitution,
``log det G = -2 sum log M_ii``, and a column of ``G`` is two banded solves.
Factoring costs O(n b^2) time and O(n b) memory; a box ``[-n, n]^d`` has
``b`` about ``(2n + 1)^(d - 1)``, and a dense network is just ``b = n - 1``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.linalg import LinAlgError, cho_solve_banded, cholesky_banded
from scipy.linalg.lapack import dtbtrs

from .network import Network, modified_network

__all__ = [
    "GreenOperator",
    "RecurrentNetworkError",
    "compute_green",
    "normalized_green",
    "sqrt_det_ratio",
]

# Fail loudly on near-recurrent inputs: smallest Cholesky pivot must exceed
# this fraction of the largest diagonal entry of A.
SPD_PIVOT_TOLERANCE = 1e-12


class RecurrentNetworkError(ValueError):
    """The energy form is not positive definite (recurrent or degenerate)."""


@dataclass(frozen=True, eq=False)
class GreenOperator:
    """Band Cholesky factor of the energy form and the Green values it gives.

    Vectors are indexed by position in ``network.alive`` (the alive vertices,
    ascending).  ``factor`` holds ``M``, the lower Cholesky factor of ``J A J``
    with ``J`` the order reversal, in LAPACK lower band storage
    (``factor[k, j] = M[j + k, j]``).  ``matrix_a`` is ``A`` as a sparse CSR
    array and ``log_det_g`` is ``log det G``.  Columns of ``G`` are solved on
    first use and cached.
    """

    network: Network
    matrix_a: sparse.csr_array
    factor: np.ndarray
    log_det_g: float
    _columns: dict = field(default_factory=dict, init=False, repr=False)

    def apply_chol(self, z: np.ndarray) -> np.ndarray:
        """``chol(G) z`` over the last axis of ``z``, shape ``(..., n)``.

        ``chol(G)`` is the lower Cholesky factor of ``G``, so standard normal
        ``z`` give free fields.  It equals ``J M^-T J``: reverse, back-solve
        with ``M^T``, reverse.
        """
        n = self.factor.shape[1]
        rhs = z.reshape(-1, n)[:, ::-1].T
        x, _ = dtbtrs(self.factor, rhs, uplo="L", trans="T")
        return x[::-1].T.reshape(z.shape)

    def entry(self, x: int, y: int) -> float:
        """Green value by global vertex ids; zero if either vertex is absorbing."""
        px = self.network.alive_pos[x]
        py = self.network.alive_pos[y]
        if px < 0 or py < 0:
            return 0.0
        # one column per unordered pair keeps the values exactly symmetric
        lo, hi = sorted((int(px), int(py)))
        col = self._columns.get(hi)
        if col is None:
            # G e = J (M M^T)^-1 J e
            unit = np.zeros(self.factor.shape[1])
            unit[-1 - hi] = 1.0
            col = self._columns[hi] = cho_solve_banded((self.factor, True), unit)[::-1]
        return float(col[lo])


def _energy_form(net: Network) -> sparse.csr_array:
    """``A`` over alive positions, assembled from the edge arrays."""
    n = net.alive.size
    ends = net.alive_pos[net.edge_ends]
    keep = (ends >= 0).all(axis=1)
    (i, j), c = ends[keep].T, net.conductances[keep]
    rows = np.concatenate([np.arange(n), i, j])
    cols = np.concatenate([np.arange(n), j, i])
    vals = np.concatenate([net.lambda_total[net.alive], -c, -c])
    return sparse.csr_array((vals, (rows, cols)), shape=(n, n))


def _band_factor(a: sparse.csr_array) -> np.ndarray:
    """Lower band Cholesky factor ``M`` of ``J A J``."""
    low = sparse.tril(a[::-1, ::-1], format="coo")
    band = np.zeros((int((low.row - low.col).max(initial=0)) + 1, a.shape[0]))
    band[low.row - low.col, low.col] = low.data
    try:
        factor = cholesky_banded(band, lower=True)
    except LinAlgError as exc:
        raise RecurrentNetworkError(f"energy form is not positive definite: {exc}") from exc
    piv = factor[0] ** 2
    if piv.min() <= SPD_PIVOT_TOLERANCE * band[0].max():
        raise RecurrentNetworkError(
            "energy form is numerically singular (near-recurrent network): "
            f"smallest pivot {piv.min():.3e}"
        )
    return factor


def compute_green(net: Network) -> GreenOperator:
    """Factor the energy form of a transient network.

    Raises :class:`RecurrentNetworkError` if the form is not numerically
    positive definite.
    """
    a = _energy_form(net)
    factor = _band_factor(a)
    return GreenOperator(net, a, factor, -2.0 * float(np.sum(np.log(factor[0]))))


def normalized_green(gop: GreenOperator, x: int, y: int) -> float:
    """Correlation ``g(x, y) = G(x, y) / sqrt(G(x, x) G(y, y))``; in [0, 1]."""
    if gop.network.alive_pos[x] < 0 or gop.network.alive_pos[y] < 0:
        raise ValueError("normalized Green is undefined at absorbing vertices")
    gxy = gop.entry(x, y)
    return gxy / math.sqrt(gop.entry(x, x) * gop.entry(y, y))


def sqrt_det_ratio(net: Network, removed_edges) -> float:
    """``sqrt(det G_removed / det G)`` for the edge-removed network.

    This ratio is the probability that no loop of the soup at intensity 1/2
    traverses any of the removed edges.  Removing edges moves conductance
    into killing, so the ratio lies in (0, 1].
    """
    removed = list(removed_edges)
    if not removed:
        return 1.0
    log_det_g = compute_green(net).log_det_g
    log_det_g_removed = compute_green(modified_network(net, removed)).log_det_g
    return math.exp(0.5 * (log_det_g_removed - log_det_g))
