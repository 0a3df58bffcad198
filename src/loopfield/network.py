"""Finite weighted networks with killing.

A network is an undirected graph with positive edge conductances and a
non-negative killing rate per vertex.  The continuous-time walk jumps across
an edge at its conductance rate and dies at a vertex at its killing rate, so
the total rate at a vertex is ``lambda(x) = kappa(x) + sum_y C(x, y)``.  A
killing rate of ``inf`` marks an absorbing vertex: jumping into it kills the
walk instantly, and the vertex is excluded from all linear algebra.

A network holds its graph once, as two arrays in edge-id order: ``edge_ends``
(E x 2, ``u < v`` in each row) and ``conductances``.  Everything else is
derived from them with numpy.  Edge-id order is part of the contract: it is
the order of each vertex's slots in the batched walker, and every float sum
over a vertex's edges (``lambda``, the killing that ``modified_network``
moves) adds the conductances in that order.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import InitVar, dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .clusters import build_partition

__all__ = [
    "Network",
    "NetworkError",
    "build_box_network",
    "grid_network",
    "path_network",
    "two_vertex_network",
    "modified_network",
    "network_from_json",
    "box_vertex_index",
    "box_vertex_coords",
]

BOUNDARY_MODES = ("absorbing", "killed_uniform", "halfplane_floor")

# the keys of a network document
DOCUMENT_KEYS = ("vertices", "edges", "killing")


class NetworkError(ValueError):
    """Raised for invalid network construction or modification."""


@dataclass(frozen=True, eq=False)
class Network:
    """Immutable weighted graph with per-vertex killing rates.

    Vertices are indexed densely ``0 .. vertex_count - 1``.  ``edges`` is an
    iterable of ``(u, v, conductance)`` or an (E, 3) array; it is stored as
    ``edge_ends`` (E x 2, each row ordered ``u < v``) and ``conductances``,
    in the order given, which is the edge-id order.  Self-loops and parallel
    edges are rejected.  ``killing[x] == inf`` marks ``x`` as absorbing.

    The constructor validates connectivity, positive rates and a transience
    certificate: the killing must not vanish identically unless an absorbing
    boundary is present (otherwise the walk is recurrent and has no Green
    function).  ``allow_disconnected`` relaxes the connectivity and minimum
    degree checks; it is used for edge-removed networks, which may fall apart
    into components or isolated vertices while every ``lambda(x)`` stays
    positive.
    """

    vertex_count: int
    edges: InitVar[Iterable]
    killing: np.ndarray
    allow_disconnected: bool = False

    # derived, filled in __post_init__
    alive: np.ndarray = field(init=False, repr=False)
    alive_pos: np.ndarray = field(init=False, repr=False)
    lambda_total: np.ndarray = field(init=False, repr=False)
    edge_ends: np.ndarray = field(init=False, repr=False)
    conductances: np.ndarray = field(init=False, repr=False)

    def __post_init__(self, edges) -> None:
        n = self.vertex_count
        if n < 1:
            raise NetworkError("vertex_count must be positive")
        killing = np.asarray(self.killing, dtype=float).copy()
        if killing.shape != (n,):
            raise NetworkError(f"killing must have length {n}")
        if np.isnan(killing).any() or (killing < 0).any():
            raise NetworkError("killing rates must be >= 0 (inf marks absorbing)")
        alive = np.flatnonzero(np.isfinite(killing))

        try:
            table = np.array(edges if isinstance(edges, np.ndarray) else list(edges), dtype=float)
        except (TypeError, ValueError) as exc:
            raise NetworkError(f"edges must be (u, v, conductance) triples: {exc}") from exc
        table = table.reshape(0, 3) if table.size == 0 else table
        if table.ndim != 2 or table.shape[1] != 3:
            raise NetworkError("edges must be (u, v, conductance) triples")
        raw, conductances = table[:, :2], table[:, 2].copy()
        ordered = np.sort(raw, axis=1)
        lo, hi = ordered.T
        keys = lo * n + hi
        order = np.argsort(keys, kind="stable")  # equal keys stay in edge-id order
        repeated = np.zeros(len(table), dtype=bool)
        repeated[order[1:][keys[order[1:]] == keys[order[:-1]]]] = True
        # the per-edge checks, in the order each edge meets them; the first
        # edge failing any check is reported (.15g writes integral floats as ints)
        checks = [
            ((raw != np.floor(raw)).any(axis=1), "edge ({u:.15g}, {v:.15g}) needs integer ends"),
            (lo == hi, "self-loop at vertex {u:.15g}"),
            ((lo < 0) | (hi >= n), "edge ({u:.15g}, {v:.15g}) out of range"),
            (~(np.isfinite(conductances) & (conductances > 0)),
             "edge ({u:.15g}, {v:.15g}) needs finite conductance > 0"),
            (repeated, "parallel edge ({lo:.15g}, {hi:.15g})"),
        ]
        bad = functools.reduce(np.logical_or, [mask for mask, _ in checks])
        if bad.any():
            e = int(np.argmax(bad))
            message = next(text for mask, text in checks if mask[e])
            raise NetworkError(message.format(u=raw[e, 0], v=raw[e, 1], lo=lo[e], hi=hi[e]))
        ends = ordered.astype(np.int64)

        # each vertex's conductances summed in edge-id order, then its killing
        degree = np.bincount(ends.ravel(), minlength=n)
        lam = np.bincount(ends.ravel(), weights=np.repeat(conductances, 2), minlength=n) + killing
        alive_pos = np.full(n, -1, dtype=int)
        alive_pos[alive] = np.arange(alive.size)

        if not self.allow_disconnected and n > 1:
            if not degree.all():
                x = np.argmin(degree)
                raise NetworkError(f"every vertex must have degree >= 1; vertex {x} has none")
            if build_partition(n, ends).any():
                raise NetworkError("graph must be connected")
        if (lam[alive] <= 0).any():
            x = int(alive[np.argmax(lam[alive] <= 0)])
            raise NetworkError(f"total rate lambda(x) must be positive at alive vertex {x}")
        if alive.size == 0:
            raise NetworkError("at least one vertex must be alive")
        # transience certificate: some killing, or an absorbing boundary
        if alive.size == n and not (killing > 0).any():
            raise NetworkError(
                "killing is identically zero and no vertex is absorbing: "
                "the walk on a finite graph would be recurrent"
            )

        for arr in (killing, ends, conductances, lam):
            arr.flags.writeable = False
        object.__setattr__(self, "killing", killing)
        object.__setattr__(self, "alive", alive)
        object.__setattr__(self, "alive_pos", alive_pos)
        object.__setattr__(self, "lambda_total", lam)
        object.__setattr__(self, "edge_ends", ends)
        object.__setattr__(self, "conductances", conductances)

    # -- lookups -----------------------------------------------------------

    @property
    def edge_count(self) -> int:
        return self.conductances.size

    def edge_id(self, u: int, v: int) -> int:
        return int(self.edge_ids([u], [v])[0])

    @functools.cached_property
    def _edge_key_index(self) -> tuple[np.ndarray, np.ndarray]:
        # edge keys u * vertex_count + v (u < v), sorted, and their edge ids
        keys = self.edge_ends[:, 0] * self.vertex_count + self.edge_ends[:, 1]
        order = np.argsort(keys)
        return keys[order], order

    def edge_ids(self, u, v) -> np.ndarray:
        """Ids of the edges ``{u[i], v[i]}``, elementwise, by one ``searchsorted``
        against the sorted edge keys; a pair that is no edge is a NetworkError."""
        u, v = np.asarray(u), np.asarray(v)
        keys, order = self._edge_key_index
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        want = lo * self.vertex_count + hi
        pos = keys.searchsorted(want)
        # a pair outside 0 .. vertex_count - 1 could alias another pair's key
        found = (pos < keys.size) & (lo >= 0) & (hi < self.vertex_count)
        found[found] = keys[pos[found]] == want[found]
        if not found.all():
            bad = np.flatnonzero(~found)[0]
            raise NetworkError(f"no edge between {u.flat[bad]} and {v.flat[bad]}")
        return order[pos]

    # -- serialization -----------------------------------------------------

    @classmethod
    def from_dict(cls, doc: dict) -> "Network":
        """The network of a document with exactly the keys ``vertices``,
        ``edges`` and ``killing``; any other key is a NetworkError."""
        try:
            vertices = float(doc["vertices"])
            edges = doc["edges"]
            killing = np.array([float(k) for k in doc["killing"]])
        except (KeyError, TypeError, ValueError) as exc:
            raise NetworkError(f"malformed network document: {exc}") from exc
        for key in doc:
            if key not in DOCUMENT_KEYS:
                raise NetworkError(f"network key {key!r}: not one of {list(DOCUMENT_KEYS)}")
        if not vertices.is_integer():
            raise NetworkError(f"vertices must be an integer, not {doc['vertices']!r}")
        return cls(int(vertices), edges, killing, allow_disconnected=True)


# -- lattice coordinate bijection -----------------------------------------
#
# Box vertices are indexed row-major with the first coordinate most
# significant: index = sum_i (x_i + n) * (2n+1)^(d-1-i).  The bijection is
# part of the contract so that seeded experiments are reproducible.


def box_vertex_index(dimension: int, half_width: int, coords: Sequence[int]) -> int:
    if len(coords) != dimension:
        raise NetworkError(f"point {tuple(coords)} needs {dimension} coordinates")
    side = 2 * half_width + 1
    idx = 0
    for c in coords:
        if abs(c) > half_width:
            raise NetworkError(f"coordinate {c} outside [-{half_width}, {half_width}]")
        idx = idx * side + (c + half_width)
    return idx


def box_vertex_coords(dimension: int, half_width: int, index: int) -> tuple[int, ...]:
    side = 2 * half_width + 1
    coords = []
    for _ in range(dimension):
        coords.append(index % side - half_width)
        index //= side
    return tuple(reversed(coords))


def build_box_network(
    dimension: int,
    half_width: int,
    conductance: float,
    killing: float,
    boundary_mode: str,
) -> Network:
    """Build the lattice box ``[-n, n]^d`` as a network.

    Boundary modes:

    * ``killed_uniform``: every vertex alive with the uniform killing rate,
      which must be positive (otherwise the box is recurrent).
    * ``absorbing``: the outer layer (any coordinate at ``+-n``) is absorbing,
      approximating the infinite lattice; interior killing may be zero.
    * ``halfplane_floor``: only the floor layer (last coordinate ``-n``) is
      absorbing, modelling a half-space with an instantly killing boundary.
    """
    if dimension < 1 or half_width < 1:
        raise NetworkError("dimension and half_width must be positive")
    if boundary_mode not in BOUNDARY_MODES:
        raise NetworkError(f"boundary_mode must be one of {BOUNDARY_MODES}")
    if killing < 0:
        raise NetworkError("killing must be >= 0")
    if boundary_mode == "killed_uniform" and killing == 0:
        raise NetworkError("killing = 0 with no absorbing boundary gives a recurrent network")

    side = 2 * half_width + 1
    offsets = np.indices((side,) * dimension).reshape(dimension, -1)
    kappa = np.full(side**dimension, float(killing))
    if boundary_mode == "absorbing":
        kappa[np.any((offsets == 0) | (offsets == side - 1), axis=0)] = math.inf
    if boundary_mode == "halfplane_floor":
        kappa[offsets[-1] == 0] = math.inf

    edges = _lattice_edges((side,) * dimension, range(dimension), conductance)
    return Network(kappa.size, edges, kappa)


def _lattice_edges(shape: tuple[int, ...], axes, conductance: float) -> np.ndarray:
    """The (E, 3) edge table of the row-major lattice ``shape``: each vertex's
    edges to its successors along ``axes``, vertex ascending, then in the
    order of ``axes``."""
    axes = list(axes)
    offsets = np.indices(shape).reshape(len(shape), -1)[axes].T
    # nonzero lists the (vertex, axis) pairs vertex-major, as wanted
    vertex, k = np.nonzero(offsets + 1 < np.array(shape)[axes])
    strides = np.array([math.prod(shape[a + 1 :]) for a in axes], dtype=np.int64)
    return np.column_stack([vertex, vertex + strides[k], np.full(vertex.size, float(conductance))])


def grid_network(rows: int, cols: int, conductance: float = 1.0, killing: float = 1.0) -> Network:
    """Rectangular grid, row-major indexing, uniform positive killing.  Each
    vertex lists its edge to the right before its edge down."""
    if rows < 1 or cols < 1:
        raise NetworkError("grid dimensions must be positive")
    if killing <= 0:
        raise NetworkError("grid_network needs killing > 0 for transience")
    edges = _lattice_edges((rows, cols), (1, 0), conductance)
    return Network(rows * cols, edges, np.full(rows * cols, float(killing)))


def path_network(length: int, conductance: float = 1.0, killing: float = 1.0) -> Network:
    """Path on ``length`` vertices with uniform conductance and killing."""
    if length < 2:
        raise NetworkError("path needs at least 2 vertices")
    edges = _lattice_edges((length,), (0,), conductance)
    return Network(length, edges, np.full(length, float(killing)))


def two_vertex_network(conductance: float = 1.0, killing: float = 1.0) -> Network:
    """The smallest nontrivial network: one edge, uniform killing."""
    return path_network(2, conductance, killing)


def modified_network(net: Network, removed_edges: Iterable) -> Network:
    """Delete edges and transfer their conductances into endpoint killing.

    Each removed edge ``{x, y}`` adds ``C(x, y)`` to the killing rate of both
    endpoints, so the total rate ``lambda`` is unchanged at every vertex.  The
    result may be disconnected.  Edges are given either all as ids or all as
    ``(u, v)`` pairs.
    """
    malformed = "removed edges must be all edge ids or all (u, v) pairs"
    try:
        removed = np.asarray(list(removed_edges))
    except ValueError as exc:  # ids mixed with pairs
        raise NetworkError(malformed) from exc
    if removed.size == 0:
        removed = np.empty(0, dtype=np.int64)
    if removed.dtype.kind not in "iu" or (removed.ndim > 1 and removed.shape[1:] != (2,)):
        raise NetworkError(malformed)
    if removed.ndim == 2:
        ids = net.edge_ids(removed[:, 0], removed[:, 1])
    else:
        outside = (removed < 0) | (removed >= net.edge_count)
        if outside.any():
            raise NetworkError(f"unknown edge id {removed[np.argmax(outside)]}")
        ids = removed
    cut = np.zeros(net.edge_count, dtype=bool)
    cut[ids] = True

    # in edge-id order, u before v
    kappa = np.array(net.killing, dtype=float)
    np.add.at(kappa, net.edge_ends[cut].ravel(), np.repeat(net.conductances[cut], 2))
    kept = np.column_stack([net.edge_ends[~cut], net.conductances[~cut]])
    return Network(net.vertex_count, kept, kappa, allow_disconnected=True)


def network_from_json(text: str) -> Network:
    return Network.from_dict(json.loads(text))
