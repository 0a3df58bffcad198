"""Experiment configuration, replication discipline and report emission.

Each experiment verifies a family of closed-form identities by seeded Monte
Carlo and returns one record per identity.  A report is a pure function of
(experiment, seed, parameters): rerunning with the same seed reproduces it
byte for byte, which is itself one of the acceptance checks.  Wall-clock
timing is therefore never written into a report.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import bridges
from .coupling import collect_coupled_fields, field_law_records
from .gff import (
    cluster_edges,
    connectivity_probability,
    sample_edge_configuration,
    sample_gff,
)
from .green import compute_green, sqrt_det_ratio
from .interlacement import (
    build_star_graph,
    compute_capacity,
    isomorphism_check,
    levelset_containment_check,
    star_excursion_batch,
    trace_occupation_batch,
)
from .loopsoup import LoopSoupSampler, occupation_field, traversed_edges
from .network import (
    Network,
    NetworkError,
    box_vertex_index,
    build_box_network,
    grid_network,
    network_from_json,
    path_network,
    two_vertex_network,
)
from .stats import TestRecord, half_square_cdf, ks_record, mc_mean, z_record
from .streams import derive_stream, replicate_chunks

__all__ = [
    "ExperimentConfig",
    "Report",
    "check_output",
    "check_seed_and_replicas",
    "check_statistic_replicas",
    "run_experiment",
    "parse_network_spec",
    "EXPERIMENTS",
    "Experiment",
    "Param",
]


class ConfigError(ValueError):
    """Configuration document does not validate."""


def check_seed_and_replicas(seed, replicas) -> tuple[int, int]:
    """``(seed, replicas)`` as integers; a seed outside 0..2^64 - 1 or fewer
    than one replica is a ConfigError."""
    try:
        seed, replicas = int(seed), int(replicas)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"fields 'seed' and 'replicas': must be integers ({exc})") from exc
    if replicas < 1:
        raise ConfigError("field 'replicas': must be >= 1")
    if not (0 <= seed < 2**64):
        raise ConfigError("field 'seed': must be a 64-bit value")
    return seed, replicas


def check_statistic_replicas(replicas: int) -> None:
    """A ConfigError for one replica, whose z-records would pass by construction."""
    if replicas < 2:
        raise ConfigError("field 'replicas': must be >= 2, as one replica has no standard error")


def check_output(path: str) -> None:
    """A ConfigError unless ``path`` names a file in an existing directory, so
    that a run never ends on an output it cannot write."""
    if Path(path).is_dir() or not Path(path).parent.is_dir():
        raise ConfigError(f"output {path!r}: not a file in an existing directory")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to rerun one experiment deterministically."""

    experiment: str
    seed: int
    replicas: int = 100_000
    network: str | dict | None = None
    parameters: dict = field(default_factory=dict)
    output: str | None = None

    def __post_init__(self) -> None:
        # the echoed config holds the integers the experiment runs with
        seed, replicas = check_seed_and_replicas(self.seed, self.replicas)
        check_statistic_replicas(replicas)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "replicas", replicas)
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(
                f"field 'experiment': unknown id {self.experiment!r}; "
                f"known: {sorted(EXPERIMENTS)}"
            )
        entry = EXPERIMENTS[self.experiment]
        if self.network is not None and not entry.network:
            raise ConfigError(
                f"field 'network': not read by experiment {self.experiment!r}; "
                f"only by {sorted(name for name, e in EXPERIMENTS.items() if e.network)}"
            )
        if self.output is not None:
            if not isinstance(self.output, str):
                raise ConfigError("field 'output': must be a string")
            if self.output:
                check_output(self.output)
        if not isinstance(self.parameters, dict):
            raise ConfigError("field 'parameters': must be an object")
        accepted = {param.name for param in entry.params}
        for name in self.parameters:
            if name not in accepted:
                raise ConfigError(
                    f"parameter {name!r}: not accepted by experiment {self.experiment!r}; "
                    f"accepted: {sorted(accepted)}"
                )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        if not isinstance(doc, dict):
            raise ConfigError(f"config must be a JSON object, not {type(doc).__name__}")
        if "experiment" not in doc or "seed" not in doc:
            raise ConfigError("config needs at least 'experiment' and 'seed'")
        known = {f.name for f in fields(cls)}
        for key in doc:
            if key not in known:
                raise ConfigError(f"field {key!r}: not a config field")
        return cls(**{**doc, "experiment": str(doc["experiment"])})

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
        try:
            doc = json.loads(Path(path).read_text())
        except OSError as exc:
            raise ConfigError(f"config file {str(path)!r}: {exc.strerror}") from exc
        except ValueError as exc:
            raise ConfigError(f"config file {str(path)!r}: not JSON ({exc})") from exc
        return cls.from_dict(doc)


@dataclass(frozen=True)
class Report:
    experiment: str
    seed: int
    config: dict
    records: tuple[TestRecord, ...]

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.records)

    def to_json(self) -> str:
        doc = {
            "experiment": self.experiment,
            "seed": self.seed,
            "config": self.config,
            "records": [r.to_dict() for r in self.records],
            "all_passed": self.all_passed,
        }
        return json.dumps(doc, indent=2)

    def csv_rows(self):
        yield ["test", "formula", "exact", "estimate", "stderr", "z", "p", "pass"]
        for r in self.records:
            values = (r.exact, r.estimate, r.stderr, r.z, r.p_value)
            yield [r.test_id, r.formula, *map(_fmt, values), str(r.passed).lower()]

    def write(self, out: str | Path) -> tuple[Path, Path]:
        """Write the CSV rows and the JSON report next to each other."""
        out = Path(out)
        csv_path = out if out.suffix == ".csv" else out.with_suffix(out.suffix + ".csv")
        json_path = csv_path.with_suffix(".json")
        with csv_path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerows(self.csv_rows())
        json_path.write_text(self.to_json() + "\n")
        return csv_path, json_path


def _fmt(value) -> str:
    # 17 significant digits round-trips doubles exactly
    return "" if value is None else format(float(value), ".17g")


# -- network shorthand -------------------------------------------------------

# the options each shorthand accepts
_SHORTHAND_OPTIONS = {
    "two-vertex": {"c", "k"},
    "path": {"c", "k"},
    "grid": {"c", "k"},
    "box": {"d", "n", "c", "k", "mode"},
}


def parse_network_spec(spec) -> Network:
    """Accept a dict, inline JSON, a file path or a shorthand string.

    Shorthands: ``two-vertex[:c=..][:k=..]``, ``path:N[:c=..][:k=..]``,
    ``grid:RxC[:c=..][:k=..]`` and
    ``box:d=..,n=..[,c=..][,k=..][,mode=killed_uniform|absorbing|halfplane_floor]``.
    An unknown or repeated option is a ConfigError.
    """
    if isinstance(spec, dict):
        return Network.from_dict(spec)
    if not isinstance(spec, str):
        raise ConfigError("field 'network': must be a dict or string")
    text = spec.strip()
    if text.startswith("{"):
        return network_from_json(text)
    if Path(text).is_file():
        return network_from_json(Path(text).read_text())

    parts = text.split(":")
    kind = parts[0]
    if kind not in _SHORTHAND_OPTIONS:
        raise ConfigError(f"field 'network': no such file and not a shorthand: {spec!r}")
    if kind == "box":
        items = ":".join(parts[1:]).split(",")
    else:
        # path and grid give their size before the options
        items = parts[1:] if kind == "two-vertex" else parts[2:]
    opts: dict[str, str] = {}
    for item in filter(None, items):
        key, _, val = item.partition("=")
        if key not in _SHORTHAND_OPTIONS[kind]:
            raise ConfigError(
                f"field 'network': unknown option {key!r} in {spec!r}; "
                f"known: {sorted(_SHORTHAND_OPTIONS[kind])}"
            )
        if key in opts:
            raise ConfigError(f"field 'network': option {key!r} repeated in {spec!r}")
        opts[key] = val
    try:
        if kind == "two-vertex":
            return two_vertex_network(float(opts.get("c", 1.0)), float(opts.get("k", 1.0)))
        if kind == "path":
            return path_network(int(parts[1]), float(opts.get("c", 1.0)), float(opts.get("k", 1.0)))
        if kind == "grid":
            rows, cols = parts[1].lower().split("x")
            return grid_network(
                int(rows), int(cols), float(opts.get("c", 1.0)), float(opts.get("k", 1.0))
            )
        return build_box_network(
            int(opts["d"]),
            int(opts["n"]),
            float(opts.get("c", 1.0)),
            float(opts.get("k", 0.0)),
            opts.get("mode", "killed_uniform"),
        )
    except (IndexError, KeyError, ValueError, NetworkError) as exc:
        raise ConfigError(f"field 'network': bad shorthand {spec!r}: {exc}") from exc


# -- parameters ----------------------------------------------------------------

# the default of a parameter that has none
REQUIRED = object()


class Param(NamedTuple):
    """One experiment parameter.  ``parse`` turns the text of its flag into
    the raw value a config holds (a parser of this module's own has the flag's
    help text as its docstring), ``convert`` turns a raw value into the one
    the experiment runs with (a ValueError or TypeError rejects it), and
    ``default`` is a raw value, ``REQUIRED``, or None for a default the
    experiment computes itself."""

    name: str
    parse: Callable[[str], object]
    convert: Callable[[object], object]
    default: object = REQUIRED

    def from_text(self, text: str):
        """``parse(text)``; a text it rejects is a ConfigError naming the parameter."""
        try:
            return self.parse(text)
        except ValueError as exc:
            raise ConfigError(f"parameter {self.name!r}: bad value {text!r} ({exc})") from exc

    def value(self, cfg: ExperimentConfig):
        """The parameter of ``cfg`` (or the default) passed through ``convert``;
        None for a computed default.  A missing required parameter or a value
        that ``convert`` rejects is a ConfigError."""
        if self.name not in cfg.parameters:
            if self.default is REQUIRED:
                raise ConfigError(
                    f"parameter {self.name!r}: required by experiment {cfg.experiment!r}"
                )
            return None if self.default is None else self.convert(self.default)
        value = cfg.parameters[self.name]
        try:
            return self.convert(value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"parameter {self.name!r}: bad value {value!r} ({exc})") from exc


def _integer(value) -> int:
    """``value`` as an int: an integral float such as ``2.0`` is accepted, a
    fractional one is rejected rather than truncated."""
    if isinstance(value, float) and not value.is_integer():
        raise ValueError("must be an integer")
    return int(value)


def _positive(convert):
    """``convert`` followed by a check that the value is finite and > 0."""

    def checked(value):
        value = convert(value)
        if not 0 < value < math.inf:
            raise ValueError("must be positive and finite")
        return value

    return checked


def edge_pairs(text: str) -> list[list[int]]:
    """edges, e.g. '0-1;1-2'"""
    pairs = []
    for chunk in text.replace(";", " ").split():
        a, _, b = chunk.partition("-")
        pairs.append([int(a), int(b)])
    return pairs


def _edges(values) -> list[tuple[int, int]]:
    """At least one edge, as integer pairs: with none, every replica avoids
    the edges and the record passes by construction."""
    edges = [(_integer(a), _integer(b)) for a, b in values]
    if not edges:
        raise ValueError("no edge given")
    return edges


def _points(text: str) -> list[list[int]]:
    """vertex coordinates, e.g. '0,0,0;1,0,0' (default: the origin)"""
    return [[int(c) for c in chunk.split(",")] for chunk in text.split(";") if chunk]


def _floats(text: str) -> list[float]:
    """comma-separated values, e.g. '0.25,1,4'"""
    return [float(v) for v in text.split(",") if v]


def _lambda_grid(values) -> list[float]:
    """At least one finite positive lambda; record ids ``f"{lam:g}"`` distinct."""
    grid = [_positive(float)(v) for v in values]
    if not grid:
        raise ValueError("no value given")
    if len({f"{lam:g}" for lam in grid}) < len(grid):
        raise ValueError("two values print alike under %g, so their record ids repeat")
    return grid


def _at_least_two(value) -> int:
    """An integer of at least 2: a star graph's box size, or a replica count."""
    n = _positive(_integer)(value)
    if n < 2:
        raise ValueError("must be >= 2")
    return n


def _box_params(d: int, n: int, u: float) -> tuple[Param, ...]:
    """Dimension ``d``, box size ``n`` and intensity ``u`` with these defaults."""
    return (
        Param("d", int, _positive(_integer), d),
        Param("n", int, _at_least_two, n),
        Param("u", float, _positive(float), u),
    )


# -- experiments ---------------------------------------------------------------


def _exp_connectivity(cfg: ExperimentConfig, net: Network, x: int, y: int) -> list[TestRecord]:
    """cable-cluster connectivity vs the arcsine law"""
    for name, vertex in (("x", x), ("y", y)):
        if not 0 <= vertex < net.vertex_count:
            raise ConfigError(
                f"parameter {name!r}: vertex {vertex} outside the network's "
                f"{net.vertex_count} vertices"
            )
    if x == y:
        raise ConfigError("parameter 'y': equals 'x', so P(x <-> y) = 1 holds by construction")
    gop = compute_green(net)
    exact = connectivity_probability(gop, x, y)

    # a replica draws what sample_gff(gop, rng) and then
    # sample_edge_configuration(field, net, rng) draw; a chunk of replicas gets
    # its fields, open masks and clusters from one call of each on the stacked draws
    n, edge_count = net.alive.size, net.edge_count

    def one(_i, rng):
        return rng.standard_normal(n), rng.random(edge_count)

    hits = []
    for draws in replicate_chunks(cfg.replicas, cfg.seed, one, net.vertex_count + edge_count):
        z, u = (np.array(block) for block in zip(*draws))
        is_open = sample_edge_configuration(sample_gff(gop, normals=z), net, uniforms=u)
        hits.append(cluster_edges(is_open, net).same_cluster(x, y))
    return [
        z_record(
            f"connectivity-v{x}-v{y}",
            "P(x <-> y) = (2/pi) arcsin(g(x,y))",
            exact,
            *mc_mean(np.concatenate(hits).astype(float)),
        )
    ]


def _exp_det_ratio(cfg: ExperimentConfig, net: Network, edges: list) -> list[TestRecord]:
    """loop edge-avoidance vs the determinant ratio"""
    gop = compute_green(net)
    edge_ids = sorted(net.edge_id(u, v) for u, v in edges)
    exact = sqrt_det_ratio(net, edge_ids)
    sampler = LoopSoupSampler(net, gop, 0.5)
    crossed = [
        traversed_edges(soups, net)[:, edge_ids].any(axis=1)
        for soups in sampler.blocks(cfg.replicas, cfg.seed)
    ]
    hits = np.where(np.concatenate(crossed), 0.0, 1.0)
    return [
        z_record(
            "edge-avoidance",
            "P(no loop crosses removed edges) = sqrt(det G_removed / det G)",
            exact,
            *mc_mean(hits),
        )
    ]


def _exp_coupling_law(cfg: ExperimentConfig, net: Network) -> list[TestRecord]:
    """coupled soup-and-sign field vs the free-field law"""
    gop = compute_green(net)
    fields, violations = collect_coupled_fields(net, gop, cfg.replicas, cfg.seed)
    return field_law_records(net, gop, fields, violations)


def _exp_occupation(cfg: ExperimentConfig, net: Network, alpha: float) -> list[TestRecord]:
    """loop-soup occupation field vs alpha G and, at alpha 1/2, phi^2/2"""
    gop = compute_green(net)
    sampler = LoopSoupSampler(net, gop, alpha)
    alive = net.alive
    occ = np.concatenate(
        [occupation_field(soups)[:, alive] for soups in sampler.blocks(cfg.replicas, cfg.seed)]
    )

    records = [
        z_record(
            f"occupation-mean-v{x}",
            "E[L^x] = alpha G(x,x)",
            alpha * gop.entry(x, x),
            *mc_mean(occ[:, i]),
        )
        for i, x in enumerate(alive)
    ]
    if alpha == 0.5:
        for i, x in enumerate(alive):
            var = gop.entry(x, x)
            records.append(
                ks_record(
                    f"occupation-half-square-v{x}",
                    "L^x =law= phi_x^2 / 2",
                    occ[:, i],
                    lambda t, v=var: half_square_cdf(t, v),
                )
            )
        for i in range(alive.size):
            for j in range(i + 1, alive.size):
                x, y = int(alive[i]), int(alive[j])
                gxx, gyy, gxy = gop.entry(x, x), gop.entry(y, y), gop.entry(x, y)
                records.append(
                    z_record(
                        f"occupation-cross-v{x}-v{y}",
                        "E[L^x L^y] = (G(x,x)G(y,y) + 2 G(x,y)^2) / 4",
                        (gxx * gyy + 2.0 * gxy**2) / 4.0,
                        *mc_mean(occ[:, i] * occ[:, j]),
                    )
                )
    return records


# relative error below which the bridge quadrature matches its closed form
QUAD_REL_ERR = 1e-8


def _exp_bridge(cfg: ExperimentConfig, lambda_grid: list[float]) -> list[TestRecord]:
    """zero-probability closed form vs quadrature and MC"""
    records = []
    for idx, lam in enumerate(lambda_grid):
        # realize lambda with T = 1/2 and l1 = l2 = sqrt(lam)
        problem = bridges.BridgeProblem(0.5, math.sqrt(lam), math.sqrt(lam))
        closed = bridges.zero_probability_closed_form(problem)
        quad = bridges.zero_probability_quadrature(problem, rel_tol=1e-11)
        rel = abs(quad - closed) / closed
        records.append(
            TestRecord(
                test_id=f"bridge-quadrature-lambda-{lam:g}",
                formula="integral exp(-lam/s - s) ds/sqrt(s) = sqrt(pi) exp(-2 sqrt(lam))",
                passed=rel < QUAD_REL_ERR,
                exact=closed,
                estimate=quad,
                stderr=rel,
            )
        )
        rng = derive_stream(cfg.seed, idx)
        records.append(
            z_record(
                f"bridge-first-vs-last-zero-lambda-{lam:g}",
                "P(t1 <= t2) = exp(-2 sqrt(lam))",
                closed,
                *bridges.three_process_zero_mc(problem, cfg.replicas, rng),
            )
        )
    return records


# layers that K keeps from the absorbing boundary, so the box stands for Z^d
CAPACITY_MARGIN = 2


def _exp_interlacement(
    cfg: ExperimentConfig, d: int, n: int, u: float, k: list | None, star_replicas: int | None
) -> list[TestRecord]:
    """vacant-set and occupation laws on a box"""
    coords = [[0] * d] if k is None else k
    if not coords or any(len(point) != d for point in coords):
        raise ConfigError(f"parameter 'k': needs one or more points of {d} coordinates")
    star = build_star_graph(d, n)
    reach = n - CAPACITY_MARGIN
    if any(abs(c) > reach for point in coords for c in point):
        raise ConfigError(
            f"parameter 'k': every coordinate must lie in [-{reach}, {reach}], "
            f"{CAPACITY_MARGIN} layers inside the absorbing boundary"
        )
    if star_replicas is None:
        star_replicas = max(cfg.replicas // 4, 2)

    net = star.network
    cap = compute_capacity(net, [box_vertex_index(d, n, c) for c in coords])
    occ_trace, visited_trace = trace_occupation_batch(net, cap, u, cfg.replicas, cfg.seed)
    occ_star, _, hit_star = star_excursion_batch(star, u, star_replicas, cfg.seed + 1)
    k_alive = net.alive_pos[list(cap.vertices)]
    occ_star, hit_star = occ_star[:, k_alive], hit_star[:, k_alive]

    means_trace = [mc_mean(column) for column in occ_trace.T]
    means_star = [mc_mean(column) for column in occ_star.T]
    records = [
        z_record(f"occupation-mean-u-v{x}", "E[L^x(I^u)] = u", u, *mean)
        for x, mean in zip(cap.vertices, means_trace)
    ]

    target_void = math.exp(-u * cap.capacity)
    vacant = "P(K in V^u) = exp(-u cap(K))"
    est_star, sem_star = mc_mean((~hit_star.any(axis=1)).astype(float))
    est_tr, sem_tr = mc_mean((~visited_trace.any(axis=1)).astype(float))
    records.append(z_record("vacant-probability-star", vacant, target_void, est_star, sem_star))
    records.append(z_record("vacant-probability-trace", vacant, target_void, est_tr, sem_tr))

    # the two finite-volume samplers must agree with each other
    records.append(
        z_record(
            "sampler-agreement-vacancy",
            "trace and star samplers give the same P(K vacant)",
            est_tr,
            est_star,
            math.hypot(sem_star, sem_tr),
        )
    )
    for x, (m_tr, s_tr), (m_star, s_star) in zip(cap.vertices, means_trace, means_star):
        records.append(
            z_record(
                f"sampler-agreement-occupation-v{x}",
                "trace and star samplers give the same E[L^x]",
                m_tr,
                m_star,
                math.hypot(s_star, s_tr),
            )
        )
    return records


def _exp_isomorphism(cfg: ExperimentConfig, d: int, n: int, u: float) -> list[TestRecord]:
    """occupation-plus-field identity on the star graph"""
    star = build_star_graph(d, n)
    return isomorphism_check(star, u, cfg.replicas, cfg.seed)


def _exp_levelset(cfg: ExperimentConfig, d: int, n: int, u: float) -> list[TestRecord]:
    """structural containment of the visited set"""
    star = build_star_graph(d, n)
    return levelset_containment_check(star, u, cfg.replicas, cfg.seed)


class Experiment(NamedTuple):
    """One experiment id: its run function, whether it reads the config's
    ``network``, the command line's default replica count and its parameters.
    The config check, the parameter conversion and the subcommand read it."""

    run: Callable[..., list[TestRecord]]
    network: bool
    replicas: int
    params: tuple[Param, ...] = ()


EXPERIMENTS = {
    "connectivity": Experiment(
        _exp_connectivity, True, 100_000, (Param("x", int, _integer), Param("y", int, _integer))
    ),
    "det-ratio": Experiment(_exp_det_ratio, True, 100_000, (Param("edges", edge_pairs, _edges),)),
    "coupling-law": Experiment(_exp_coupling_law, True, 100_000),
    "occupation-field": Experiment(
        _exp_occupation, True, 100_000, (Param("alpha", float, _positive(float), 0.5),)
    ),
    "bridge-check": Experiment(
        _exp_bridge,
        False,
        100_000,
        (Param("lambda_grid", _floats, _lambda_grid, [1e-4, 1e-2, 0.25, 1.0, 4.0, 25.0]),),
    ),
    "interlacement": Experiment(
        _exp_interlacement,
        False,
        20_000,
        (
            *_box_params(3, 6, 0.25),
            Param("k", _points, lambda v: [[_integer(c) for c in point] for point in v], None),
            Param("star_replicas", int, _at_least_two, None),
        ),
    ),
    "isomorphism-check": Experiment(_exp_isomorphism, False, 20_000, _box_params(2, 5, 0.5)),
    "levelset-check": Experiment(_exp_levelset, False, 10_000, _box_params(2, 5, 1.0)),
}


def run_experiment(config: ExperimentConfig) -> Report:
    """Convert the parameters, run the experiment on them, aggregate its
    records and optionally write files."""
    entry = EXPERIMENTS[config.experiment]
    values = {param.name: param.value(config) for param in entry.params}
    if entry.network:
        values["net"] = parse_network_spec(config.network)
    report = Report(
        experiment=config.experiment,
        seed=config.seed,
        config=config.to_dict(),
        records=tuple(entry.run(config, **values)),
    )
    if config.output:
        report.write(config.output)
    return report
