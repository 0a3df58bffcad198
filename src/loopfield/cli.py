"""Command-line surface.

Every verification subcommand builds an experiment config, runs it and emits
CSV rows plus a JSON report; the exit code is 0 exactly when every check
passed.  The sampling subcommands (``sample-gff``, ``sample-loops``,
``couple``) emit per-replica CSV rows instead.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from pathlib import Path

import numpy as np

from .coupling import collect_coupled_fields, field_law_records
from .gff import sample_gff
from .green import compute_green, normalized_green, sqrt_det_ratio
from .harness import (
    ConfigError,
    ExperimentConfig,
    check_seed_and_replicas,
    parse_network_spec,
    run_experiment,
)
from .loopsoup import LoopSoupSampler, loop_clusters, occupation_field
from .network import NetworkError
from .streams import replicate

FMT = ".17g"


def _emit(lines, out: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _fmt(v) -> str:
    return format(float(v), FMT)


def _parse_pairs(text: str) -> list[tuple[int, int]]:
    pairs = []
    for chunk in text.replace(";", " ").split():
        a, _, b = chunk.partition("-")
        pairs.append((int(a), int(b)))
    return pairs


def _add_common(sub, replicas_default=100_000):
    sub.add_argument("--seed", type=int, default=1, help="master seed, 0..2^64 - 1")
    sub.add_argument("--replicas", type=int, default=replicas_default)
    sub.add_argument("--out", default=None, help="output path (CSV; report JSON alongside)")


def _run_and_report(args, experiment: str, network=None, parameters=None) -> int:
    cfg = ExperimentConfig(
        experiment=experiment,
        seed=args.seed,
        replicas=args.replicas,
        network=network,
        parameters=parameters or {},
        output=args.out,
    )
    started = time.perf_counter()
    report = run_experiment(cfg)
    # runtime goes to stderr only; report files stay byte-identical per seed
    print(f"runtime: {time.perf_counter() - started:.2f}s", file=sys.stderr)
    if not args.out:
        _print_report(report)
    return 0 if report.all_passed else 1


def _print_report(report) -> None:
    writer = csv.writer(sys.stdout)
    writer.writerows(report.csv_rows())
    print(report.to_json())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="loopfield",
        description="Loop soups, free fields and interlacements on finite networks, "
        "with seeded statistical verification of their exact couplings.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("green", help="print Green matrix, correlations and det ratios as CSV")
    p.add_argument("--net", required=True)
    p.add_argument("--remove", default=None, help="edges to remove, e.g. '0-1;1-2'")
    p.add_argument("--out", default=None)

    p = subs.add_parser("sample-gff", help="emit sampled free fields, one CSV row per replica")
    p.add_argument("--net", required=True)
    _add_common(p, replicas_default=10)

    p = subs.add_parser("sample-loops", help="emit per-replica loop soup summaries")
    p.add_argument("--net", required=True)
    p.add_argument("--alpha", type=float, default=0.5)
    _add_common(p, replicas_default=10)

    p = subs.add_parser("couple", help="emit coupled fields and verify the field law")
    p.add_argument("--net", required=True)
    _add_common(p, replicas_default=20_000)

    p = subs.add_parser("connectivity", help="cable-cluster connectivity vs the arcsine law")
    p.add_argument("--net", required=True)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--y", type=int, required=True)
    _add_common(p)

    p = subs.add_parser("det-ratio", help="loop edge-avoidance vs the determinant ratio")
    p.add_argument("--net", required=True)
    p.add_argument("--edges", required=True, help="designated edges, e.g. '0-1;1-2'")
    _add_common(p)

    p = subs.add_parser("bridge-check", help="zero-probability closed form vs quadrature and MC")
    p.add_argument("--lambda-grid", default="1e-4,1e-2,0.25,1,4,25")
    _add_common(p)

    p = subs.add_parser("interlacement", help="vacant-set and occupation laws on a box")
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--n", type=int, default=6)
    p.add_argument("--u", type=float, default=0.25)
    p.add_argument(
        "--k", default=None, help="vertex coordinates, e.g. '0,0,0;1,0,0' (default: the origin)"
    )
    _add_common(p, replicas_default=20_000)

    p = subs.add_parser("isomorphism-check", help="occupation-plus-field identity on the star graph")
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--n", type=int, default=5)
    p.add_argument("--u", type=float, default=0.5)
    _add_common(p, replicas_default=20_000)

    p = subs.add_parser("levelset-check", help="structural containment of the visited set")
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--n", type=int, default=5)
    p.add_argument("--u", type=float, default=1.0)
    _add_common(p, replicas_default=10_000)

    p = subs.add_parser("run", help="run an experiment from a JSON config file")
    p.add_argument("--config", required=True)

    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except (ConfigError, NetworkError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    cmd = args.command
    # the sampling subcommands build no ExperimentConfig; check them by its rule
    if "seed" in args:
        check_seed_and_replicas(args.seed, args.replicas)

    if cmd == "green":
        net = parse_network_spec(args.net)
        gop = compute_green(net)
        lines = ["section,i,j,value"]
        alive = net.alive
        for i, x in enumerate(alive):
            for y in alive[i:]:
                lines.append(f"G,{x},{y},{_fmt(gop.entry(int(x), int(y)))}")
        for i, x in enumerate(alive):
            for y in alive[i:]:
                lines.append(f"g,{x},{y},{_fmt(normalized_green(gop, int(x), int(y)))}")
        if args.remove:
            pairs = _parse_pairs(args.remove)
            ids = [net.edge_id(u, v) for u, v in pairs]
            lines.append(f"det-ratio,,,{_fmt(sqrt_det_ratio(net, ids))}")
        _emit(lines, args.out)
        return 0

    if cmd == "sample-gff":
        net = parse_network_spec(args.net)
        gop = compute_green(net)
        header = "replica," + ",".join(f"phi_{x}" for x in range(net.vertex_count))

        def row(r, rng):
            return f"{r}," + ",".join(_fmt(v) for v in sample_gff(gop, rng).values)

        _emit([header] + replicate(args.replicas, args.seed, row), args.out)
        return 0

    if cmd == "sample-loops":
        net = parse_network_spec(args.net)
        gop = compute_green(net)
        sampler = LoopSoupSampler(net, gop, args.alpha)
        header = (
            "replica,loop_count,"
            + ",".join(f"occ_{x}" for x in range(net.vertex_count))
            + ",cluster_count"
        )

        def row(r, rng):
            soup = sampler.sample(rng)
            occ = occupation_field(soup)
            n_clusters = loop_clusters(soup, net).cluster_count
            return (
                f"{r},{len(soup.loops)},"
                + ",".join(_fmt(v) for v in occ.values)
                + f",{n_clusters}"
            )

        _emit([header] + replicate(args.replicas, args.seed, row), args.out)
        return 0

    if cmd == "couple":
        net = parse_network_spec(args.net)
        gop = compute_green(net)
        fields, violations = collect_coupled_fields(net, gop, args.replicas, args.seed)
        header = "replica," + ",".join(f"phi_{x}" for x in range(net.vertex_count))
        lines = [header]
        phi = np.zeros(net.vertex_count)
        for r, values in enumerate(fields):
            phi[net.alive] = values
            lines.append(f"{r}," + ",".join(_fmt(v) for v in phi))
        _emit(lines, args.out)
        records = field_law_records(net, gop, fields, violations)
        doc = json.dumps([rec.to_dict() for rec in records], indent=2)
        if args.out:
            Path(args.out).with_suffix(".verify.json").write_text(doc + "\n")
        else:
            print(doc)
        return 0 if all(rec.passed for rec in records) else 1

    if cmd == "connectivity":
        return _run_and_report(
            args, "connectivity", network=args.net, parameters={"x": args.x, "y": args.y}
        )

    if cmd == "det-ratio":
        return _run_and_report(
            args,
            "det-ratio",
            network=args.net,
            parameters={"edges": [list(p) for p in _parse_pairs(args.edges)]},
        )

    if cmd == "bridge-check":
        grid = [float(v) for v in args.lambda_grid.split(",") if v]
        cfg = ExperimentConfig(
            experiment="bridge-check",
            seed=args.seed,
            replicas=args.replicas,
            parameters={"lambda_grid": grid},
        )
        report = run_experiment(cfg)
        lines = ["lambda,closed,quadrature,mc,stderr,z"]
        for lam in grid:
            quad_rec = next(
                r for r in report.records if r.test_id == f"bridge-quadrature-lambda-{lam:g}"
            )
            mc_rec = next(
                r
                for r in report.records
                if r.test_id == f"bridge-first-vs-last-zero-lambda-{lam:g}"
            )
            lines.append(
                f"{_fmt(lam)},{_fmt(quad_rec.exact)},{_fmt(quad_rec.estimate)},"
                f"{_fmt(mc_rec.estimate)},{_fmt(mc_rec.stderr)},{_fmt(mc_rec.z)}"
            )
        _emit(lines, args.out)
        if args.out:
            Path(args.out).with_suffix(".json").write_text(report.to_json() + "\n")
        else:
            print(report.to_json())
        return 0 if report.all_passed else 1

    if cmd == "interlacement":
        parameters = {"d": args.d, "n": args.n, "u": args.u}
        if args.k is not None:
            parameters["k"] = [
                [int(c) for c in chunk.split(",")] for chunk in args.k.split(";") if chunk
            ]
        return _run_and_report(args, "interlacement", parameters=parameters)

    if cmd == "isomorphism-check":
        return _run_and_report(
            args, "isomorphism-check", parameters={"d": args.d, "n": args.n, "u": args.u}
        )

    if cmd == "levelset-check":
        return _run_and_report(
            args, "levelset-check", parameters={"d": args.d, "n": args.n, "u": args.u}
        )

    if cmd == "run":
        cfg = ExperimentConfig.from_file(args.config)
        report = run_experiment(cfg)
        if not cfg.output:
            _print_report(report)
        return 0 if report.all_passed else 1

    raise AssertionError(f"unhandled command {cmd}")


if __name__ == "__main__":
    raise SystemExit(main())
