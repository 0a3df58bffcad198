"""Benchmark of loopfield: time to verified reports, set-up time, peak RSS and
per-layer self times.

Run from the repository root:

    python3 bench/run.py --workload small-net --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all          # every workload, each in a fresh process

One run repeats its workload (the same experiment configs, derived from
``--seed``) until ``--seconds`` would be exceeded.  Times are medians over the
repetitions, taken per experiment and summed over the workload's experiments;
with ``--trace 1`` the layer figures come from the repetition of median traced
wall time.  Load is a closed loop with one client: each experiment starts
when the previous one has returned its report.

With ``--trace 0`` each repetition first times the construction calls of every
experiment (``setup_s``; repeated within the repetition while they total under
half a second), then runs the experiments through ``run_experiment`` with tracing
off (``wall_s``); ``peak_rss_mb`` is the process high-water mark.  Package
import is not timed.  With ``--trace 1`` each repetition runs the workload once
untraced and once traced, checks that both give byte-identical reports, and
reports per-layer self times and counts from the traced run.

A report must be byte-identical across repetitions and between traced and
untraced runs, no experiment may raise, and every exact record (one without a
z-score or p-value) must pass; otherwise the result reads ``correct: false``
and the run exits with code 1.  Experiments whose report has a failing
statistical record count in ``failed`` (``failed_frac`` = failed / attempted).

Metric names and units come from ``BENCHMARK.json``; the last line of
standard output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  Spans of the traced repetition the layer figures come from
are written to ``.bench_out/`` at the repository root.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_SECONDS_PER_REPETITION = 0.5


def _import_program():
    """Import loopfield from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import loopfield
    except ImportError as exc:
        sys.exit(f"bench: cannot import loopfield from {src}: {exc}")
    if Path(loopfield.__file__).resolve().parent != (src / "loopfield").resolve():
        sys.exit(f"bench: loopfield imported from {loopfield.__file__}, not from {src}")


def environment() -> dict:
    """What decides whether two runs are comparable: CPUs, BLAS threads, versions."""
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def _is_exact(record) -> bool:
    return record.z is None and record.p_value is None


class Outcome:
    """Reports of every repetition, checked against the first one."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.reference: list[str | None] | None = None
        self.records = 0
        self.records_failed = 0

    def error(self, message: str) -> None:
        print(f"bench: {message}", file=sys.stderr)
        self.correct = False

    def check(self, configs, texts: list[str | None], reports: list) -> None:
        """Count failed experiments; a changed report byte or a failed exact
        record makes the run incorrect."""
        if self.reference is None:
            self.reference = texts
        self.attempted += len(texts)
        for cfg, text, reference, report in zip(configs, texts, self.reference, reports):
            failed = report is None or not report.all_passed
            if text != reference:
                self.error(f"{cfg.experiment}: report bytes differ from the first run")
                failed = True
            for rec in report.records if report is not None else ():
                if _is_exact(rec) and not rec.passed:
                    self.error(f"{cfg.experiment}: exact record {rec.test_id} failed")
            self.failed += failed
        done = [r for r in reports if r is not None]
        self.records = sum(len(r.records) for r in done)
        self.records_failed = sum(not rec.passed for r in done for rec in r.records)


def run_workload(configs, harness, outcome: Outcome) -> list[float]:
    """Run every experiment, serialize its report; return each one's wall time.

    ``run_experiment`` is looked up on the module at each call, so a traced
    run calls the wrapper.
    """
    reports, texts, walls = [], [], []
    for cfg in configs:
        start = time.perf_counter()
        try:
            report = harness.run_experiment(cfg)
            text = report.to_json()
        except Exception:
            outcome.error(f"{cfg.experiment} raised:\n{traceback.format_exc()}")
            report = text = None
        walls.append(time.perf_counter() - start)
        reports.append(report)
        texts.append(text)
    outcome.check(configs, texts, reports)
    return walls


def time_setup(configs, construct) -> list[float]:
    times = []
    for cfg in configs:
        start = time.perf_counter()
        construct(cfg)  # dropped at once, so one experiment's objects live at a time
        times.append(time.perf_counter() - start)
    return times


def repeat(seconds: float, body) -> None:
    """Call ``body`` until another call as slow as the slowest so far would
    pass ``seconds``; at least once."""
    start = now = time.perf_counter()
    slowest = 0.0
    while True:
        body()
        gc.collect()
        last, now = now, time.perf_counter()
        slowest = max(slowest, now - last)
        if now - start + slowest > seconds:
            return


def sum_of_medians(repetitions: list[list[float]]) -> float:
    """Sum over experiments of each experiment's median time across repetitions.

    Each experiment is a sample of its own, so a slow spell of the machine
    during one experiment moves that experiment's median rather than every
    repetition's total; this reads steadier than the median of totals.
    """
    return sum(statistics.median(times) for times in zip(*repetitions))


def measure_end_to_end(configs, seconds, harness, construct, outcome) -> dict:
    walls, setups = [], []

    def body():
        # a cheap set-up is timed several times per repetition, for a steadier median
        spent = 0.0
        while spent < SETUP_SECONDS_PER_REPETITION:
            setups.append(time_setup(configs, construct))
            spent += sum(setups[-1])
        walls.append(run_workload(configs, harness, outcome))

    repeat(seconds, body)
    return {
        "wall_s": sum_of_medians(walls),
        "setup_s": sum_of_medians(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "failed_frac": outcome.failed / outcome.attempted,
        "samples": {"wall_s": walls, "setup_s": setups},
    }


def measure_layers(configs, seconds, harness, outcome, spans_path: Path) -> dict:
    from tracer import Tracer

    untraced, tracers = [], []

    def body():
        untraced.append(sum(run_workload(configs, harness, outcome)))
        tracer = Tracer()
        with tracer.patched(), tracer.root("workload"):
            run_workload(configs, harness, outcome)
        tracers.append(tracer)

    repeat(seconds, body)
    per_run = [t.metrics() for t in tracers]
    for name, value in per_run[0].items():
        values = [m[name] for m in per_run]
        if isinstance(value, int) and len(set(values)) != 1:
            outcome.error(f"count {name} differs between runs at the same seed: {values}")
    # every layer figure comes from the repetition of median traced wall time,
    # so the self times add up to that repetition's trace.wall_s
    median_run = sorted(range(len(per_run)), key=lambda i: per_run[i]["trace.wall_s"])[
        (len(per_run) - 1) // 2
    ]
    layers = per_run[median_run]
    layers["harness.records"] = outcome.records
    layers["harness.records_failed"] = outcome.records_failed
    layers["trace.overhead_frac"] = layers["trace.wall_s"] / statistics.median(untraced) - 1.0
    layers["samples"] = {"trace.wall_s": [m["trace.wall_s"] for m in per_run], "untraced wall_s": untraced}
    spans_path.parent.mkdir(exist_ok=True)
    spans = tracers[median_run].spans_doc()
    spans_path.write_text(json.dumps({"environment": environment(), **spans}))
    return layers


def run_one(args) -> int:
    _import_program()
    from loopfield import harness
    from workloads import WORKLOADS, construct, make_configs

    if args.workload not in WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = "per_layer" if args.trace else "end_to_end"
    print("env " + json.dumps(environment()))
    configs = make_configs(args.workload, args.seed, tiny=args.tiny)
    outcome = Outcome()
    if args.trace:
        spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        values = measure_layers(configs, args.seconds, harness, outcome, spans)
        print(f"spans written to {spans.relative_to(ROOT)}")
    else:
        values = measure_end_to_end(configs, args.seconds, harness, construct, outcome)
    samples = values.pop("samples")
    print(f"{args.workload} seed={args.seed}")
    for name, runs in samples.items():
        print(f"samples {name} ({len(runs)}): {json.dumps(runs)}")
    units = {m["name"]: m["unit"] for m in spec[section]}
    units.setdefault("failed_frac", "1")
    for name, value in values.items():
        print(f"  {name:34s} {value!r} {units.get(name, '')}")
    result = {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[section]
        },
    }
    print(json.dumps(result))
    return 0 if outcome.correct else 1


def run_all(args) -> int:
    """Every workload in a fresh process; the last line maps workload to result."""
    _import_program()
    from workloads import WORKLOADS

    results = {}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        status = status or proc.returncode
        if lines and lines[-1].startswith("{"):
            results[name] = json.loads(lines.pop())
        else:
            print(f"bench: workload {name} printed no result (exit code {proc.returncode})",
                  file=sys.stderr)
        print("\n".join(lines))
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="shrink every workload (smoke test)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
