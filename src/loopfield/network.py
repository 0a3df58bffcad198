"""Finite weighted networks with killing.

A network is an undirected graph with positive edge conductances and a
non-negative killing rate per vertex.  The continuous-time walk jumps across
an edge at its conductance rate and dies at a vertex at its killing rate, so
the total rate at a vertex is ``lambda(x) = kappa(x) + sum_y C(x, y)``.  A
killing rate of ``inf`` marks an absorbing vertex: jumping into it kills the
walk instantly, and the vertex is excluded from all linear algebra.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Network",
    "NetworkError",
    "build_box_network",
    "grid_network",
    "path_network",
    "two_vertex_network",
    "modified_network",
    "network_to_json",
    "network_from_json",
    "box_vertex_index",
    "box_vertex_coords",
]

BOUNDARY_MODES = ("absorbing", "killed_uniform", "halfplane_floor")


class NetworkError(ValueError):
    """Raised for invalid network construction or modification."""


@dataclass(frozen=True, eq=False)
class Network:
    """Immutable weighted graph with per-vertex killing rates.

    Vertices are indexed densely ``0 .. vertex_count - 1``.  Edges are stored
    as ``(u, v, conductance)`` with ``u < v``; self-loops and parallel edges
    are rejected.  ``killing[x] == inf`` marks ``x`` as absorbing.
    ``edge_ends`` (E x 2) and ``conductances`` hold the edges as arrays, in
    edge-id order.

    The constructor validates connectivity, positive rates and a transience
    certificate: the killing must not vanish identically unless an absorbing
    boundary is present (otherwise the walk is recurrent and has no Green
    function).  ``allow_disconnected`` relaxes the connectivity and minimum
    degree checks; it is used for edge-removed networks, which may fall apart
    into components or isolated vertices while every ``lambda(x)`` stays
    positive.
    """

    vertex_count: int
    edges: tuple[tuple[int, int, float], ...]
    killing: np.ndarray
    meta: dict | None = None
    allow_disconnected: bool = False

    # derived, filled in __post_init__
    alive: np.ndarray = field(init=False, repr=False)
    alive_pos: np.ndarray = field(init=False, repr=False)
    lambda_total: np.ndarray = field(init=False, repr=False)
    edge_ends: np.ndarray = field(init=False, repr=False)
    conductances: np.ndarray = field(init=False, repr=False)
    neighbors: tuple = field(init=False, repr=False)

    def __post_init__(self) -> None:
        n = self.vertex_count
        if n < 1:
            raise NetworkError("vertex_count must be positive")
        killing = np.asarray(self.killing, dtype=float).copy()
        killing.flags.writeable = False
        if killing.shape != (n,):
            raise NetworkError(f"killing must have length {n}")
        if np.any(np.isnan(killing)) or np.any(killing < 0):
            raise NetworkError("killing rates must be >= 0 (inf marks absorbing)")

        norm_edges = []
        seen: set[tuple[int, int]] = set()
        for u, v, c in self.edges:
            u, v, c = int(u), int(v), float(c)
            if u == v:
                raise NetworkError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise NetworkError(f"edge ({u}, {v}) out of range")
            if c <= 0 or not math.isfinite(c):
                raise NetworkError(f"edge ({u}, {v}) needs finite conductance > 0")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise NetworkError(f"parallel edge {key}")
            seen.add(key)
            norm_edges.append((key[0], key[1], c))
        edges = tuple(norm_edges)

        adj: list[list[tuple[int, float, int]]] = [[] for _ in range(n)]
        for eid, (u, v, c) in enumerate(edges):
            adj[u].append((v, c, eid))
            adj[v].append((u, c, eid))

        lam = killing.copy()
        for x in range(n):
            lam[x] = killing[x] + sum(c for _, c, _ in adj[x])

        alive = np.flatnonzero(np.isfinite(killing))
        alive_pos = np.full(n, -1, dtype=int)
        alive_pos[alive] = np.arange(alive.size)

        if not self.allow_disconnected and n > 1:
            if any(len(adj[x]) == 0 for x in range(n)):
                raise NetworkError("every vertex must have degree >= 1")
            if not _connected(n, adj):
                raise NetworkError("graph must be connected")
        if np.any(lam[alive] <= 0):
            raise NetworkError("total rate lambda(x) must be positive at every alive vertex")
        # transience certificate: some killing, or an absorbing boundary
        if alive.size == n and not np.any(killing > 0):
            raise NetworkError(
                "killing is identically zero and no vertex is absorbing: "
                "the walk on a finite graph would be recurrent"
            )

        table = np.array(edges, dtype=float).reshape(-1, 3)
        ends = table[:, :2].astype(np.int64)
        conductances = table[:, 2].copy()
        for arr in (ends, conductances):
            arr.flags.writeable = False
        lam.flags.writeable = False

        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "killing", killing)
        object.__setattr__(self, "alive", alive)
        object.__setattr__(self, "alive_pos", alive_pos)
        object.__setattr__(self, "lambda_total", lam)
        object.__setattr__(self, "edge_ends", ends)
        object.__setattr__(self, "conductances", conductances)
        object.__setattr__(self, "neighbors", tuple(tuple(a) for a in adj))

    # -- lookups -----------------------------------------------------------

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def is_absorbing(self, x: int) -> bool:
        return not math.isfinite(self.killing[x])

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

    def to_dict(self) -> dict:
        doc = {
            "vertices": self.vertex_count,
            "edges": [[u, v, c] for u, v, c in self.edges],
            "killing": [float(k) for k in self.killing],
        }
        if self.meta is not None:
            doc["box"] = dict(self.meta)
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "Network":
        try:
            vertices = int(doc["vertices"])
            edges = tuple((int(u), int(v), float(c)) for u, v, c in doc["edges"])
            killing = np.array([float(k) for k in doc["killing"]])
        except (KeyError, TypeError, ValueError) as exc:
            raise NetworkError(f"malformed network document: {exc}") from exc
        meta = doc.get("box")
        return cls(vertices, edges, killing, meta=meta, allow_disconnected=True)


def _connected(n: int, adj: list[list[tuple[int, float, int]]]) -> bool:
    seen = [False] * n
    stack = [0]
    seen[0] = True
    count = 1
    while stack:
        x = stack.pop()
        for y, _, _ in adj[x]:
            if not seen[y]:
                seen[y] = True
                count += 1
                stack.append(y)
    return count == n


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

    n = half_width
    side = 2 * n + 1
    total = side**dimension

    kappa = np.full(total, float(killing))
    edges = []
    for idx in range(total):
        coords = box_vertex_coords(dimension, n, idx)
        if boundary_mode == "absorbing" and max(abs(c) for c in coords) == n:
            kappa[idx] = math.inf
        if boundary_mode == "halfplane_floor" and coords[-1] == -n:
            kappa[idx] = math.inf
        for axis in range(dimension):
            if coords[axis] + 1 <= n:
                nb = list(coords)
                nb[axis] += 1
                edges.append((idx, box_vertex_index(dimension, n, nb), float(conductance)))

    meta = {
        "kind": "box",
        "dimension": dimension,
        "half_width": half_width,
        "conductance": float(conductance),
        "killing": float(killing),
        "boundary_mode": boundary_mode,
    }
    return Network(total, tuple(edges), kappa, meta=meta)


def grid_network(rows: int, cols: int, conductance: float = 1.0, killing: float = 1.0) -> Network:
    """Rectangular grid, row-major indexing, uniform positive killing."""
    if rows < 1 or cols < 1:
        raise NetworkError("grid dimensions must be positive")
    if killing <= 0:
        raise NetworkError("grid_network needs killing > 0 for transience")
    edges = []
    for r in range(rows):
        for c in range(cols):
            idx = r * cols + c
            if c + 1 < cols:
                edges.append((idx, idx + 1, float(conductance)))
            if r + 1 < rows:
                edges.append((idx, idx + cols, float(conductance)))
    return Network(rows * cols, tuple(edges), np.full(rows * cols, float(killing)))


def path_network(length: int, conductance: float = 1.0, killing: float = 1.0) -> Network:
    """Path on ``length`` vertices with uniform conductance and killing."""
    if length < 2:
        raise NetworkError("path needs at least 2 vertices")
    edges = tuple((i, i + 1, float(conductance)) for i in range(length - 1))
    return Network(length, edges, np.full(length, float(killing)))


def two_vertex_network(conductance: float = 1.0, killing: float = 1.0) -> Network:
    """The smallest nontrivial network: one edge, uniform killing."""
    return path_network(2, conductance, killing)


def modified_network(net: Network, removed_edges: Iterable) -> Network:
    """Delete edges and transfer their conductances into endpoint killing.

    Each removed edge ``{x, y}`` adds ``C(x, y)`` to the killing rate of both
    endpoints, so the total rate ``lambda`` is unchanged at every vertex.  The
    result may be disconnected.  Edges may be given as ids or ``(u, v)`` pairs.
    """
    ids = set()
    for e in removed_edges:
        if isinstance(e, (tuple, list)):
            ids.add(net.edge_id(e[0], e[1]))
        else:
            eid = int(e)
            if not (0 <= eid < net.edge_count):
                raise NetworkError(f"unknown edge id {eid}")
            ids.add(eid)

    kappa = np.array(net.killing, dtype=float)
    kept = []
    for eid, (u, v, c) in enumerate(net.edges):
        if eid in ids:
            kappa[u] += c
            kappa[v] += c
        else:
            kept.append((u, v, c))
    return Network(net.vertex_count, tuple(kept), kappa, allow_disconnected=True)


def network_to_json(net: Network) -> str:
    return json.dumps(net.to_dict())


def network_from_json(text: str) -> Network:
    return Network.from_dict(json.loads(text))
