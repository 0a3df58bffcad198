"""Deterministic cluster partitions from edge arrays.

A partition is two arrays: ``labels``, the smallest vertex id in each
vertex's cluster, and ``edges``, a boolean mask of the edges whose ends were
merged.  Labels are canonical, so a partition built from the same merges is
identical across runs whatever the merge order.

``build_partition`` is the one labeller.  It works on whole arrays, so a
block of replica graphs is labelled in one call: give replica r's vertex ids
an offset of ``r * V`` and its labels come back as ``r * V`` plus the labels
of that graph alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ClusterPartition", "build_partition"]


@dataclass(frozen=True, eq=False)
class ClusterPartition:
    """Partition of vertices by a set of merged edges.

    ``labels[x]`` is the smallest vertex id in the cluster of ``x``, so the
    cluster roots are the vertices with ``labels[x] == x``, in increasing
    order.  ``edges[e]`` is True for the edges whose ends were merged
    (the edges traversed by loops, or the open edges of a percolation).
    A partition of a replica block carries a leading replica axis on both
    arrays, and its queries answer per replica.
    """

    labels: np.ndarray
    edges: np.ndarray

    @property
    def cluster_count(self):
        counts = np.count_nonzero(self.labels == np.arange(self.labels.shape[-1]), axis=-1)
        return counts if counts.ndim else int(counts)

    def same_cluster(self, x: int, y: int):
        return self.labels[..., x] == self.labels[..., y]


def build_partition(vertex_count: int, ends) -> np.ndarray:
    """Cluster labels after uniting the two ends of every row of the (m, 2)
    array ``ends``: ``labels[x]`` is the smallest vertex id in the component
    of ``x``.

    Hook and shortcut (Shiloach and Vishkin): each round hooks the larger
    root of every edge across two trees onto the smaller (onto one of them,
    where edges offer several), then points every vertex at its root.  Roots
    only hook onto smaller ids, so each tree's root is its smallest vertex.
    """
    a, b = np.asarray(ends, dtype=np.int64).reshape(-1, 2).T
    labels = np.arange(vertex_count)
    while a.size:
        la, lb = labels[a], labels[b]
        # an edge within one tree stays within one tree
        split = la != lb
        a, b, la, lb = a[split], b[split], la[split], lb[split]
        labels[np.maximum(la, lb)] = np.minimum(la, lb)
        jumped = labels[labels]
        while (jumped != labels).any():
            labels, jumped = jumped, jumped[jumped]
    return labels
