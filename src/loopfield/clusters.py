"""Union-find and deterministic cluster partitions.

A partition is two arrays: ``labels``, the smallest vertex id in each
vertex's cluster, and ``edges``, a boolean mask of the edges whose ends were
merged.  Labels are canonical, so a partition built from the same merges is
identical across runs whatever the merge order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["UnionFind", "ClusterPartition", "build_partition"]


class UnionFind:
    """Array-based union-find with path compression."""

    def __init__(self, size: int):
        self.parent = list(range(size))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            # keep the smaller id as root so labels are canonical
            if ra < rb:
                self.parent[rb] = ra
            else:
                self.parent[ra] = rb

    def labels(self) -> np.ndarray:
        return np.array([self.find(x) for x in range(len(self.parent))])


@dataclass(frozen=True, eq=False)
class ClusterPartition:
    """Partition of vertices by a set of merged edges.

    ``labels[x]`` is the smallest vertex id in the cluster of ``x``, so the
    cluster roots are the vertices with ``labels[x] == x``, in increasing
    order.  ``edges[e]`` is True for the edges whose ends were merged
    (the edges traversed by loops, or the open edges of a percolation).
    """

    labels: np.ndarray
    edges: np.ndarray

    @property
    def cluster_count(self) -> int:
        return int(np.count_nonzero(self.labels == np.arange(self.labels.size)))

    def same_cluster(self, x: int, y: int) -> bool:
        return bool(self.labels[x] == self.labels[y])


def build_partition(vertex_count: int, merges) -> np.ndarray:
    """Cluster labels after uniting every ``(x, y)`` pair of ``merges``:
    ``labels[x]`` is the smallest vertex id in the component of ``x``."""
    uf = UnionFind(vertex_count)
    for x, y in merges:
        uf.union(x, y)
    return uf.labels()
