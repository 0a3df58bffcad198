"""Poisson ensembles of discrete Markov loops with continuous-time decoration.

The rooted-loop measure assigns mass ``tr(P^n) / n`` to skeletons of length
``n >= 2``, where ``P`` is the jump matrix ``P(x, y) = C(x, y) / lambda(x)``;
its total mass is ``m = -log det(I - P)``.  A soup of intensity ``alpha`` is
sampled as a Poisson number of loops with that length law, each skeleton
filled in by bridge conditioning on the root's columns ``P^m e_root``, each
visit decorated with an exponential holding time at the vertex rate.  Loops
that never leave a vertex are not enumerated: their total duration at a vertex
is Gamma(alpha, lambda(x)) and is drawn directly as the trivial occupation.

No matrix power is cached.  The sampler keeps the sparse jump matrix, the
length law and one root law of n doubles per length, and its build holds one
dense power at a time, so memory is O(n^2 + cutoff * n) for n alive vertices
rather than the (cutoff + 1) n^2 of a power cache.  A skeleton draws the same
uniforms in the same order as a sampler that caches every dense power up to
the cutoff, and picks the same vertices; the tests keep such a sampler as the
reference.

Sampling rooted loops with the 1/n weight already reproduces the unrooted
loop mass; rotations are not deduplicated because every statistic computed
here (occupation, clusters, traversed edges) is rotation invariant.

A sample is five flat arrays (``LoopSoupSample``): ``vertices``, the network
vertex ids of all loops concatenated; ``starts``, the loop offsets in CSR
style (loop i is ``vertices[starts[i]:starts[i + 1]]``, ``starts[0] == 0``,
``starts[-1] == vertices.size``); ``holds``, the holding time of each visit,
aligned with ``vertices``; ``trivial_occupation``, per vertex; and ``alpha``.
A draw consumes, in this order: one Poisson loop count; per loop, one uniform
for its length, ``length`` uniforms (the root, then one per step) and
``length`` standard exponentials (the holds); then one standard Gamma per
alive vertex (the trivial occupation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .clusters import ClusterPartition
from .gff import cluster_edges
from .green import GreenOperator
from .network import Network

__all__ = [
    "LoopSoupSample",
    "LoopSoupSampler",
    "occupation_field",
    "traversed_edges",
    "loop_clusters",
]

MAX_LENGTH_CUTOFF = 100_000
# the discarded tail of the length law has mass below this fraction of the total
LENGTH_CUTOFF_EPS = 1e-9


@dataclass(frozen=True, eq=False)
class LoopSoupSample:
    """One realization of the soup: decorated loops plus trivial occupation.

    Loop i visits ``vertices[starts[i]:starts[i + 1]]`` in order, each
    consecutive pair (and last to first) adjacent in the network, and holds
    ``holds[starts[i]:starts[i + 1]]`` at those visits.
    ``trivial_occupation`` holds the Gamma-distributed total duration of the
    one-point loops at each vertex.
    """

    vertices: np.ndarray
    starts: np.ndarray
    holds: np.ndarray
    trivial_occupation: np.ndarray
    alpha: float

    @property
    def loops(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Per-loop ``(vertices, holds)`` views.  The benchmark's tracer reads
        loop lengths from them; no code in the package does."""
        bounds = self.starts.tolist()
        return tuple(
            (self.vertices[a:b], self.holds[a:b]) for a, b in zip(bounds[:-1], bounds[1:])
        )


class LoopSoupSampler:
    """Reusable sampler for one (network, alpha) pair.

    The length law and the per-length root laws are computed once from the
    diagonals of the jump-matrix powers ``P^k``, ``k <= cutoff``, iterated one
    sparse product at a time; no power is kept.  The cutoff is chosen so that
    the discarded tail of the length law has mass below
    ``LENGTH_CUTOFF_EPS * m``, using the geometric bound
    ``tr(P^n) <= N rho^n`` with ``rho`` the spectral radius.  Each skeleton is
    filled in from the root's columns ``P^m e_root``, recomputed per loop by
    sparse mat-vecs.
    """

    def __init__(self, net: Network, gop: GreenOperator, alpha: float):
        if not 0 < alpha < math.inf:
            raise ValueError("alpha must be finite and positive")
        self.network = net
        self.alpha = float(alpha)

        alive = net.alive
        lam = net.lambda_total[alive]
        n = alive.size
        # the alive-alive edges, both directions of each edge side by side
        ends = net.alive_pos[net.edge_ends]
        both = (ends >= 0).all(axis=1)
        pu, pv = ends[both].T
        c = net.conductances[both]
        rows = np.column_stack([pu, pv]).ravel()
        cols = np.column_stack([pv, pu]).ravel()
        vals = np.column_stack([c / lam[pu], c / lam[pv]]).ravel()
        sym = np.zeros((n, n))
        sym[pu, pv] = sym[pv, pu] = c / np.sqrt(lam[pu] * lam[pv])
        # CSR keeps each row's neighbours in ascending order, the order in
        # which a step's cumulative weights are summed
        p = sparse.csr_array((vals, (rows, cols)), shape=(n, n))
        p.sort_indices()
        self._p = p
        # by columns: column x holds the one-step weights of the paths ending at x
        self._p_csc = p.tocsc()
        self._lambda_alive = lam

        if p.nnz == 0:
            self.spectral_radius = 0.0
            self.mass = 0.0
            self.length_cutoff = 1
            self.truncated_tail = 0.0
            self._length_cdf = np.empty(0)
            self._root_cdfs = {}
            return

        radius = float(np.max(np.abs(np.linalg.eigvalsh(sym))))
        if radius >= 1.0:
            raise ValueError(
                f"jump matrix has spectral radius {radius:.6f} >= 1: network is not transient"
            )
        self.spectral_radius = radius

        sign, logdet = np.linalg.slogdet(np.eye(n) - p.toarray())
        if sign <= 0:
            raise ValueError("det(I - P) must be positive on a transient network")
        self.mass = -float(logdet)

        cutoff = 2
        while (
            n * radius ** (cutoff + 1) / ((cutoff + 1) * (1.0 - radius))
            >= LENGTH_CUTOFF_EPS * self.mass
        ):
            cutoff += 1
            if cutoff > MAX_LENGTH_CUTOFF:
                raise ValueError("length cutoff exceeds limit; spectral radius too close to 1")
        self.length_cutoff = cutoff

        q = np.empty(cutoff - 1)
        self._root_cdfs = {}
        power = p.toarray()
        for k in range(2, cutoff + 1):
            power = p @ power
            q[k - 2] = np.trace(power) / k
            diag = np.clip(np.diag(power), 0.0, None)
            s = diag.sum()
            if s > 0:
                self._root_cdfs[k] = np.cumsum(diag) / s
        q = np.clip(q, 0.0, None)
        total = float(q.sum())
        self.truncated_tail = max(self.mass - total, 0.0)
        self._length_cdf = np.cumsum(q) / total

    def _sample_skeleton(self, length: int, rng: np.random.Generator) -> np.ndarray:
        # one uniform for the root, then one per step
        u = rng.random(length)
        root = int(self._root_cdfs[length].searchsorted(u[0], side="right"))
        p, p_csc = self._p, self._p_csc
        # cols[m] = P^m e_root: the weights of the m-step paths ending at root
        first = np.zeros(p.shape[0])
        lo, hi = p_csc.indptr[root], p_csc.indptr[root + 1]
        first[p_csc.indices[lo:hi]] = p_csc.data[lo:hi]
        cols = [None, first]
        for _ in range(2, length):
            cols.append(p @ cols[-1])
        indptr, indices, data = p.indptr, p.indices, p.data
        verts = np.empty(length, dtype=int)
        verts[0] = root
        cur = root
        for i in range(1, length):
            lo, hi = indptr[cur], indptr[cur + 1]
            nbrs = indices[lo:hi]
            cs = (data[lo:hi] * cols[length - i][nbrs]).cumsum()
            cur = int(nbrs[cs.searchsorted(u[i] * cs[-1], side="right")])
            verts[i] = cur
        return verts

    def sample(self, rng: np.random.Generator) -> LoopSoupSample:
        net = self.network
        lam = self._lambda_alive
        positions, holds, starts = [], [], [0]
        if self.mass > 0:
            count = int(rng.poisson(self.alpha * self.mass))
            longest = self._length_cdf.size - 1
            for _ in range(count):
                pick = int(self._length_cdf.searchsorted(rng.random(), side="right"))
                length = min(pick, longest) + 2
                verts = self._sample_skeleton(length, rng)
                positions.append(verts)
                # scale * standard draw is how numpy computes exponential(scale),
                # bit for bit, without its slow broadcasting path
                holds.append(rng.standard_exponential(length) * (1.0 / lam[verts]))
                starts.append(starts[-1] + length)
        trivial = np.zeros(net.vertex_count)
        trivial[net.alive] = rng.standard_gamma(self.alpha, size=lam.size) * (1.0 / lam)
        if positions:
            vertices, holds = net.alive[np.concatenate(positions)], np.concatenate(holds)
        else:
            vertices, holds = np.empty(0, dtype=np.int64), np.empty(0)
        starts = np.array(starts, dtype=np.int64)
        return LoopSoupSample(vertices, starts, holds, trivial, self.alpha)


def occupation_field(sample: LoopSoupSample) -> np.ndarray:
    """Total time the soup spends at each vertex, trivial loops included."""
    values = sample.trivial_occupation.copy()
    # add.at sums in visit order, loop after loop
    np.add.at(values, sample.vertices, sample.holds)
    return values


def traversed_edges(sample: LoopSoupSample, net: Network) -> np.ndarray:
    """Boolean mask of the edges crossed by some loop, including each loop's
    closing step from its last vertex back to its first."""
    verts, starts = sample.vertices, sample.starts
    crossed = np.zeros(net.edge_count, dtype=bool)
    # most soups on small networks are empty; skip the lookup for those
    if verts.size:
        # position of the next visit in the same loop; a loop's last visit steps to its first
        nxt = np.arange(1, verts.size + 1)
        nxt[starts[1:] - 1] = starts[:-1]
        crossed[net.edge_ids(verts, verts[nxt])] = True
    return crossed


def loop_clusters(sample: LoopSoupSample, net: Network) -> ClusterPartition:
    """Merge the ends of every traversed edge, so all vertices visited by a
    common loop share a cluster; the partition's edges are the traversed ones.

    Vertices visited by no loop stay singletons: trivial loops never traverse
    an edge and so never merge anything.
    """
    return cluster_edges(traversed_edges(sample, net), net)
