"""Span tracing of loopfield's layers from outside the package.

``Tracer.patched()`` wraps the public functions listed in ``WRAPPED`` for the
duration of a ``with`` block.  Each call becomes a span (name, start, end,
parent span id) kept in memory; ``spans_doc()`` returns them for writing when
the run ends.  A layer's self time is its span's duration minus the time its
child spans cover, accumulated per metric bucket as the spans close, so the
self times of all buckets add up to the root span's duration.

Several modules import these functions with ``from .x import y``, so a
wrapper replaces the attribute in every ``loopfield`` module namespace that
holds the same function object; patching only the defining module would miss
those calls.  Methods are wrapped on their class.  Private helpers
(``_sample_skeleton``, ``_run_batch``), ``UnionFind.union`` and cheap public
helpers (``normalized_green``, ``z_score``, ``parse_network_spec``, ...) are
not wrapped: their time is self time of the public caller.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

ROOT_BUCKET = "harness.self_s"

# (module, public function or Class.method, bucket whose self time it adds to)
WRAPPED = [
    ("network", "grid_network", "network.build_s"),
    ("network", "path_network", "network.build_s"),
    ("network", "two_vertex_network", "network.build_s"),
    ("network", "build_box_network", "network.build_s"),
    ("network", "modified_network", "network.build_s"),
    ("network", "network_from_json", "network.build_s"),
    # a star graph is a box network with its boundary identified
    ("interlacement", "build_star_graph", "network.build_s"),
    ("green", "compute_green", "green.factorize_s"),
    ("green", "sqrt_det_ratio", "green.det_ratio_s"),
    ("streams", "derive_stream", "streams.derive_s"),
    ("gff", "sample_gff", "gff.sample_s"),
    ("gff", "sample_edge_configuration", "gff.open_s"),
    ("gff", "cluster_edges", "gff.cluster_s"),
    ("loopsoup", "LoopSoupSampler.__init__", "loopsoup.build_s"),
    ("loopsoup", "LoopSoupSampler.sample", "loopsoup.sample_s"),
    ("loopsoup", "occupation_field", "loopsoup.occupation_s"),
    ("loopsoup", "loop_clusters", "loopsoup.clusters_s"),
    ("coupling", "couple", "coupling.couple_s"),
    ("coupling", "field_law_records", "coupling.field_law_s"),
    ("clusters", "build_partition", "clusters.partition_s"),
    ("interlacement", "compute_capacity", "interlacement.capacity_s"),
    ("interlacement", "trace_occupation_batch", "interlacement.trace_s"),
    ("interlacement", "star_excursion_batch", "interlacement.star_s"),
    ("interlacement", "isomorphism_check", "interlacement.isomorphism_self_s"),
    ("interlacement", "levelset_containment_check", "interlacement.levelset_self_s"),
    ("bridges", "zero_probability_quadrature", "bridges.quadrature_s"),
    ("bridges", "LastZeroSampler.__init__", "bridges.grid_build_s"),
    ("bridges", "three_process_zero_mc", "bridges.mc_s"),
    ("stats", "mc_mean", "stats.mean_s"),
    ("stats", "ks_pvalue", "stats.ks_s"),
    ("harness", "run_experiment", ROOT_BUCKET),
    ("harness", "Report.to_json", "harness.report_s"),
]

# call counts: number of calls entering the bucket from another bucket
CALL_COUNTS = {
    "network.builds": "network.build_s",
    "green.factorizations": "green.factorize_s",
    "streams.derives": "streams.derive_s",
    "gff.samples": "gff.sample_s",
    "loopsoup.samples": "loopsoup.sample_s",
    "coupling.couples": "coupling.couple_s",
    "clusters.partitions": "clusters.partition_s",
    "stats.mean_calls": "stats.mean_s",
    "stats.ks_calls": "stats.ks_s",
}

BUCKETS = sorted({bucket for _, _, bucket in WRAPPED})


class Tracer:
    """Span recorder and per-bucket self-time accumulator for one traced run."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.entered: dict[str, int] = defaultdict(int)
        # sampler-level counts taken from arguments and results
        self.alive_n_max = 0
        self.cutoff_max = 0
        self.power_cache_mb = 0.0
        self.loops = 0
        self.loop_steps = 0
        self.max_len_over_cutoff = 0.0
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_id = array("q")
        self.span_parent = array("q")
        self.span_name = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self._next_id = 0
        self._stack: list[list] = []  # frames: [span id, bucket, child time]
        self.wall_s = 0.0

    @contextmanager
    def root(self, name: str):
        """Root span over the traced work; its duration is ``wall_s``."""
        frame = [self._new_id(), ROOT_BUCKET, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.wall_s = end - start
            self.self_s[ROOT_BUCKET] += self.wall_s - frame[2]
            self._record(frame[0], -1, name, start, end)

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id - 1

    def _record(self, span_id, parent, name, start, end) -> None:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        self.span_id.append(span_id)
        self.span_parent.append(parent)
        self.span_name.append(name_id)
        self.span_start.append(start)
        self.span_end.append(end)

    def wrap(self, fn, name: str, bucket: str, after=None):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [self._new_id(), bucket, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                parent[2] += duration
                self.self_s[bucket] += duration - frame[2]
                if parent[1] != bucket:
                    self.entered[bucket] += 1
                self._record(frame[0], parent[0], name, start, end)
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- counts read from arguments and results -------------------------------
    # These run after the span has closed, so their cost is self time of the
    # caller's bucket and part of trace.overhead_frac.

    def _after_green(self, args, gop) -> None:
        self.alive_n_max = max(self.alive_n_max, gop.matrix_a.shape[0])

    def _after_sampler_build(self, args, _result) -> None:
        sampler = args[0]
        n = sampler.network.alive.size
        self.cutoff_max = max(self.cutoff_max, sampler.length_cutoff)
        # computed, not measured: (cutoff + 1) cached dense n x n float64 powers
        self.power_cache_mb = max(
            self.power_cache_mb, (sampler.length_cutoff + 1) * n * n * 8 / 1e6
        )

    def _after_sample(self, args, soup) -> None:
        lengths = [len(skeleton) for skeleton, _ in soup.loops]
        self.loops += len(lengths)
        self.loop_steps += sum(lengths)
        if lengths:
            ratio = max(lengths) / args[0].length_cutoff
            self.max_len_over_cutoff = max(self.max_len_over_cutoff, ratio)

    @contextmanager
    def patched(self):
        """Install the wrappers in every loopfield namespace, then restore."""
        after = {
            "compute_green": self._after_green,
            "LoopSoupSampler.__init__": self._after_sampler_build,
            "LoopSoupSampler.sample": self._after_sample,
        }
        namespaces = [m for n, m in sys.modules.items() if n.split(".")[0] == "loopfield"]
        undo = []
        try:
            for module_name, qualname, bucket in WRAPPED:
                module = importlib.import_module(f"loopfield.{module_name}")
                owner_name, _, attr = qualname.rpartition(".")
                if owner_name:
                    owner = getattr(module, owner_name)
                    original = owner.__dict__[attr]
                    wrapper = self.wrap(original, qualname, bucket, after.get(qualname))
                    setattr(owner, attr, wrapper)
                    undo.append((owner, attr, original))
                    continue
                original = getattr(module, attr)
                wrapper = self.wrap(original, qualname, bucket, after.get(qualname))
                for ns in namespaces:
                    if ns.__dict__.get(attr) is original:
                        setattr(ns, attr, wrapper)
                        undo.append((ns, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def metrics(self) -> dict:
        """Per-layer self times, call counts and sampler counts of this run."""
        out: dict = {bucket: self.self_s.get(bucket, 0.0) for bucket in BUCKETS}
        for name, bucket in CALL_COUNTS.items():
            out[name] = self.entered.get(bucket, 0)
        out.update(
            {
                "green.alive_n_max": self.alive_n_max,
                "loopsoup.cutoff_max": self.cutoff_max,
                "loopsoup.power_cache_mb": self.power_cache_mb,
                "loopsoup.loops": self.loops,
                "loopsoup.loop_steps": self.loop_steps,
                "loopsoup.max_len_over_cutoff": self.max_len_over_cutoff,
                "trace.wall_s": self.wall_s,
            }
        )
        return out

    def spans_doc(self) -> dict:
        """The recorded spans as parallel lists, ready for ``json.dump``."""
        return {
            "names": self.names,
            "id": self.span_id.tolist(),
            "parent": self.span_parent.tolist(),
            "name": self.span_name.tolist(),
            "start": self.span_start.tolist(),
            "end": self.span_end.tolist(),
        }
