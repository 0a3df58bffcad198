"""Poisson ensembles of discrete Markov loops with continuous-time decoration.

The rooted-loop measure assigns mass ``tr(P^n) / n`` to skeletons of length
``n >= 2``, where ``P`` is the jump matrix ``P(x, y) = C(x, y) / lambda(x)``;
its total mass is ``m = -log det(I - P)``.  A soup of intensity ``alpha`` is
sampled as a Poisson number of loops with that length law, each skeleton
filled in by bridge conditioning on the root's columns ``P^m e_root``, each
visit decorated with an exponential holding time at the vertex rate.  Loops
that never leave a vertex are not enumerated: their total duration at a vertex
is Gamma(alpha, lambda(x)) and is drawn directly as the trivial occupation.

No matrix power is formed: ``P`` is similar to the symmetric
``S = Lambda^(-1/2) C Lambda^(-1/2) = U diag(mu) U^T``, and one
eigendecomposition gives every ``diag(P^k) = (U o U) mu^k``, the spectral
radius ``max |mu|`` and the mass ``-sum log(1 - mu)``.  The sampler keeps the
sparse jump matrix, the length law and one root law per length, O(n^2 +
cutoff * n) doubles for n alive vertices; the skeleton columns a block walks
at once, n doubles per visit, hold at most 2^18 doubles (2 MB) unless one
loop needs more.  A skeleton draws the same uniforms in the same order as a
sampler that caches every dense power up to the cutoff, and picks the same
vertices; the tests keep it as the reference.

Sampling rooted loops with the 1/n weight already reproduces the unrooted
loop mass; rotations are not deduplicated because every statistic computed
here (occupation, clusters, traversed edges) is rotation invariant.

A sample is five flat arrays (``LoopSoupSample``): ``vertices``, the network
vertex ids of all loops concatenated; ``starts``, the loop offsets in CSR
style (loop i is ``vertices[starts[i]:starts[i + 1]]``, ``starts[0] == 0``,
``starts[-1] == vertices.size``); ``holds``, the holding time of each visit,
aligned with ``vertices``; ``trivial_occupation``, per vertex; and ``alpha``.
A block of R replicas is the same arrays over all their loops, with a
trivial occupation of shape (R, vertex_count) and ``replica_starts``, the
loop offsets of the replicas.

Sampling runs in two passes.  The draw pass (``LoopSoupSampler.draw``) runs
once per replica and makes only the random calls, in this order: one Poisson
loop count; per loop, one uniform for its length, ``length`` uniforms (the
root, then one per step) and ``length`` standard exponentials (the holds);
then one standard Gamma per alive vertex (the trivial occupation).  The block
pass (``LoopSoupSampler.assemble``) turns the draws of many replicas into one
block: it picks the roots, walks the skeletons of loops of every length
together, longest first in batches of bounded columns, and scales the holds
and the trivial occupation.  ``sample`` is the one-replica block.  The draw
order is the one a loop-by-loop sampler follows, and every skeleton, hold and
occupation is the same bit for bit whatever the replicas a block holds.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse

from .clusters import ClusterPartition
from .gff import cluster_edges
from .green import GreenOperator
from .network import Network
from .streams import replicate_chunks

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

# the memory of a small Python object (a list, a tuple, an array header) in doubles
_OBJECT_VALUES = 14
# the most skeleton-column values a batch of loops is walked with, n per visit
# for n alive vertices (2 MB); a loop with more visits is walked alone
_SKELETON_VALUES = 1 << 18
# the draws of a replica without loops
_NO_VISITS = np.empty(0)
_NO_VISITS.flags.writeable = False


@dataclass(frozen=True, eq=False)
class LoopSoupSample:
    """One realization of the soup, or a block of them: decorated loops plus
    trivial occupation.

    Loop i visits ``vertices[starts[i]:starts[i + 1]]`` in order, each
    consecutive pair (and last to first) adjacent in the network, and holds
    ``holds[starts[i]:starts[i + 1]]`` at those visits.
    ``trivial_occupation`` holds the Gamma-distributed total duration of the
    one-point loops at each vertex.  A block of R replicas has a trivial
    occupation of shape (R, vertex_count), and replica r owns loops
    ``replica_starts[r]`` to ``replica_starts[r + 1] - 1``; a single soup has
    ``replica_starts`` None.
    """

    vertices: np.ndarray
    starts: np.ndarray
    holds: np.ndarray
    trivial_occupation: np.ndarray
    alpha: float
    replica_starts: np.ndarray | None = None

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

    The length law and the per-length root laws are computed once, by one
    eigendecomposition, from the diagonals of the jump-matrix powers ``P^k``,
    ``k <= cutoff``.  The cutoff is chosen so that the discarded tail of the
    length law has mass below ``LENGTH_CUTOFF_EPS * m``, using the geometric
    bound ``tr(P^n) <= N rho^n`` with ``rho`` the spectral radius.  Each
    skeleton is filled in from the root's columns ``P^m e_root``, computed for
    a batch of loops of any lengths by one sparse-times-dense product per
    power: a batch is aligned at its loops' last steps, so the loops that
    still need the m-th power are a prefix of the batch.
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
        self._lambda_alive = lam

        if p.nnz == 0:
            self.spectral_radius = self.mass = self.truncated_tail = 0.0
            self.length_cutoff = 1
            self._length_cdf = np.empty(0)
            self._root_cdfs = {}
            return

        mu, u = np.linalg.eigh(sym)
        radius = float(np.max(np.abs(mu)))
        if radius >= 1.0:
            raise ValueError(
                f"jump matrix has spectral radius {radius:.6f} >= 1: network is not transient"
            )
        self.spectral_radius = radius
        self.mass = -float(np.log1p(-mu).sum())

        cutoff = 2
        while (
            n * radius ** (cutoff + 1) / ((cutoff + 1) * (1.0 - radius))
            >= LENGTH_CUTOFF_EPS * self.mass
        ):
            cutoff += 1
            if cutoff > MAX_LENGTH_CUTOFF:
                raise ValueError("length cutoff exceeds limit; spectral radius too close to 1")
        self.length_cutoff = cutoff

        # diag(P^k), 64 lengths k per product.  Rows of U o U sum to 1 and mu has
        # errors of about n eps, so entries up to n k eps r^(k - 1) are rounding
        # noise: zero, as are a bipartite net's odd lengths, which get no root law
        lengths = np.arange(2, cutoff + 1)
        weights = np.square(u, out=u).T
        q = np.empty(cutoff - 1)
        self._root_cdfs = {}
        for a in range(0, cutoff - 1, 64):
            ks = lengths[a : a + 64]
            block = mu ** ks[:, None] @ weights
            block[block <= n * np.finfo(float).eps * (ks * radius ** (ks - 1))[:, None]] = 0.0
            np.cumsum(block, axis=1, out=block)
            sums = block[:, -1]
            q[a : a + 64] = sums / ks
            kept = np.flatnonzero(sums)
            self._root_cdfs.update(zip(ks[kept].tolist(), block[kept] / sums[kept, None]))
        total = float(q.sum())
        self.truncated_tail = max(self.mass - total, 0.0)
        self._length_cdf = np.cumsum(q) / total
        # a uniform at or above cdf[-1] takes the last length of positive mass:
        # a bipartite network's odd cutoff has no root law
        self._last_length_index = int(np.flatnonzero(q)[-1])

    @cached_property
    def values_per_replica(self) -> int:
        """About how much memory one replica's draws and its share of a block
        take, in doubles: the Gammas, each visit's two draws and five block
        arrays, and the five small Python objects of a ``draw`` result.  It
        sizes replica chunks; no draw depends on it."""
        visits = 0.0
        if self.mass > 0:
            pmf = np.diff(self._length_cdf, prepend=0.0)
            visits = self.alpha * self.mass * float(pmf @ np.arange(2, pmf.size + 2))
        return self._lambda_alive.size + 5 * _OBJECT_VALUES + math.ceil(7 * visits)

    def draw(self, rng: np.random.Generator) -> tuple:
        """The draw pass of one replica: ``(lengths, uniforms, exponentials,
        gammas)``, the loop lengths, the uniforms and standard exponentials of
        all its loops, one per visit and loop after loop (a loop's first
        uniform picks its root), and one standard Gamma per alive vertex,
        drawn in the order of the module docstring.  ``assemble`` builds the
        soups."""
        lengths, uniforms, exponentials = [], [], []
        if self.mass > 0:
            cdf, last = self._length_cdf_list, self._last_length_index
            for _ in range(int(rng.poisson(self.alpha * self.mass))):
                # bisect_right on the list is searchsorted(side="right") on the array
                length = min(bisect_right(cdf, rng.random()), last) + 2
                lengths.append(length)
                uniforms.append(rng.random(length))
                exponentials.append(rng.standard_exponential(length))
        gammas = rng.standard_gamma(self.alpha, size=self._lambda_alive.size)
        # one array of each per replica, shared when empty, keeps a chunk's draws small
        if not lengths:
            return (), _NO_VISITS, _NO_VISITS, gammas
        return lengths, np.concatenate(uniforms), np.concatenate(exponentials), gammas

    def assemble(self, draws) -> LoopSoupSample:
        """The block pass: the soups of a sequence of ``draw`` results, one
        block with replicas in the order given."""
        net, lam = self.network, self._lambda_alive
        lengths = np.array([length for d in draws for length in d[0]], dtype=np.int64)
        replica_starts = np.zeros(len(draws) + 1, dtype=np.int64)
        np.array([len(d[0]) for d in draws]).cumsum(out=replica_starts[1:])
        starts = np.zeros(lengths.size + 1, dtype=np.int64)
        lengths.cumsum(out=starts[1:])
        gammas = np.array([d[3] for d in draws])
        positions = np.empty(starts[-1], dtype=np.int64)
        holds = np.empty(0)
        if lengths.size:
            self._skeletons(lengths, starts, np.concatenate([d[1] for d in draws]), positions)
            # scale * standard draw is how numpy computes exponential(scale),
            # bit for bit, without its slow broadcasting path
            holds = np.concatenate([d[2] for d in draws]) * (1.0 / lam[positions])
        trivial = np.zeros((len(draws), net.vertex_count))
        trivial[:, net.alive] = gammas * (1.0 / lam)
        return LoopSoupSample(
            net.alive[positions], starts, holds, trivial, self.alpha, replica_starts
        )

    def _skeletons(self, lengths, starts, u, positions) -> None:
        """Write into ``positions`` the alive positions of the visits of all
        loops, from their ``lengths``, their CSR ``starts`` and the visits'
        uniforms ``u``: a loop's first uniform picks its root, each other one
        step.  Loops are walked longest first, in batches whose skeleton
        columns hold at most ``_SKELETON_VALUES`` doubles, or of one loop that
        needs more."""
        n = self._p.shape[0]
        order = (-lengths).argsort(kind="stable")
        lengths, firsts = lengths[order], starts[order]
        sizes = lengths.tolist()
        # loops of one length are a run of the order: one root law each
        runs = [0, *(np.flatnonzero(lengths[1:] != lengths[:-1]) + 1).tolist(), len(sizes)]
        roots = np.empty(len(sizes), dtype=np.int64)
        for a, b in zip(runs[:-1], runs[1:]):
            roots[a:b] = self._root_cdfs[sizes[a]].searchsorted(u[firsts[a:b]], side="right")
        positions[firsts] = roots
        ends = firsts + lengths
        # a batch's columns take n doubles per visit
        visits = lengths.cumsum()
        first = 0
        while first < len(sizes):
            limit = visits[first] - sizes[first] + _SKELETON_VALUES // n
            last = max(first + 1, int(visits.searchsorted(limit, side="right")))
            self._walk(lengths[first:last], ends[first:last], roots[first:last], u, positions)
            first = last

    def _walk(self, lengths, ends, roots, u, positions) -> None:
        """Walk one batch of loops, ``lengths`` non-increasing, from their
        ``roots``; a loop's visits end before ``ends``.  The loops are aligned
        at their last step: with m steps left, loop j takes its step
        ``lengths[j] - m``, and the loops that have one are a prefix."""
        p = self._p
        k, top = lengths.size, int(lengths[0])
        # active[m]: the loops longer than m
        active = (-lengths).searchsorted(-np.arange(top)).tolist()
        loops = np.arange(k)
        # cols[m] = P^m E_roots for the first active[m] roots: column j holds
        # the weights of the m-step paths ending at root j; CSR times a dense
        # block sums each column as a mat-vec does, so a loop's columns are
        # the same whatever batch it is walked in
        cols = [np.zeros((p.shape[0], k))]
        cols[0][roots, loops] = 1.0
        for m in range(1, top):
            cols.append(p @ cols[-1][:, : active[m]])
        nbrs, weights = self._neighbour_table
        cur = roots.copy()
        for m in range(top - 1, 0, -1):
            a = active[m]
            at, visit = cur[:a], ends[:a] - m
            # each row lists the current vertex's neighbours in CSR order,
            # zero-padded; trailing zeros leave a row's partial sums unchanged
            row = nbrs[at]
            cs = (weights[at] * cols[m][row, loops[:a, None]]).cumsum(axis=1)
            # the count of partial sums <= the threshold is searchsorted(side="right")
            pick = (cs <= (u[visit] * cs[:, -1])[:, None]).sum(axis=1)
            positions[visit] = cur[:a] = row[loops[:a], pick]

    @cached_property
    def _neighbour_table(self) -> tuple[np.ndarray, np.ndarray]:
        """Each alive vertex's neighbours and one-step weights in CSR order,
        as (n, max degree) arrays padded with vertex 0 at weight 0."""
        p = self._p
        degree = np.diff(p.indptr)
        rows = np.repeat(np.arange(p.shape[0]), degree)
        slots = np.arange(p.nnz) - p.indptr[rows]
        nbrs = np.zeros((p.shape[0], degree.max()), dtype=np.int64)
        weights = np.zeros(nbrs.shape)
        nbrs[rows, slots] = p.indices
        weights[rows, slots] = p.data
        return nbrs, weights

    @cached_property
    def _length_cdf_list(self) -> list[float]:
        return self._length_cdf.tolist()

    def blocks(self, replicas: int, seed: int):
        """The soups of replicas ``0 .. replicas - 1`` of ``seed``, one block
        per chunk of ``replicate_chunks``; replica r's soup is
        ``sample(derive_stream(seed, r))``."""
        chunks = replicate_chunks(
            replicas, seed, lambda _i, rng: self.draw(rng), self.values_per_replica
        )
        # map lets go of a chunk's draws once its block is built
        return map(self.assemble, chunks)

    def sample(self, rng: np.random.Generator) -> LoopSoupSample:
        """One soup: the one-replica block of ``draw(rng)``."""
        block = self.assemble([self.draw(rng)])
        return LoopSoupSample(
            block.vertices, block.starts, block.holds, block.trivial_occupation[0], self.alpha
        )


def _row_offsets(sample: LoopSoupSample, width: int):
    """Offset of each visit's row in a flattened (replicas, width) array: 0
    for a single soup, ``r * width`` for a visit of replica r of a block."""
    if sample.replica_starts is None:
        return 0
    visits = sample.starts[sample.replica_starts]
    return np.repeat(np.arange(0, (visits.size - 1) * width, width), np.diff(visits))


def occupation_field(sample: LoopSoupSample) -> np.ndarray:
    """Total time the soup spends at each vertex, trivial loops included;
    shape (R, vertex_count) for a block of R replicas."""
    values = sample.trivial_occupation.copy()
    # add.at sums in visit order, loop after loop
    flat = _row_offsets(sample, values.shape[-1]) + sample.vertices
    np.add.at(values.reshape(-1), flat, sample.holds)
    return values


def traversed_edges(sample: LoopSoupSample, net: Network) -> np.ndarray:
    """Boolean mask of the edges crossed by some loop, including each loop's
    closing step from its last vertex back to its first; shape (R,
    edge_count) for a block of R replicas."""
    verts, starts = sample.vertices, sample.starts
    crossed = np.zeros(sample.trivial_occupation.shape[:-1] + (net.edge_count,), dtype=bool)
    # most soups on small networks are empty; skip the lookup for those
    if verts.size:
        # position of the next visit in the same loop; a loop's last visit steps to its first
        nxt = np.arange(1, verts.size + 1)
        nxt[starts[1:] - 1] = starts[:-1]
        ids = _row_offsets(sample, net.edge_count) + net.edge_ids(verts, verts[nxt])
        crossed.reshape(-1)[ids] = True
    return crossed


def loop_clusters(sample: LoopSoupSample, net: Network) -> ClusterPartition:
    """Merge the ends of every traversed edge, so all vertices visited by a
    common loop share a cluster; the partition's edges are the traversed ones.

    Vertices visited by no loop stay singletons: trivial loops never traverse
    an edge and so never merge anything.
    """
    return cluster_edges(traversed_edges(sample, net), net)
