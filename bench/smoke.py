"""Smoke test of the benchmark: every workload at a tiny size.

    python3 bench/smoke.py

Runs ``run.py --tiny`` once per workload with tracing off and once with it on,
each for a single repetition, and checks that

* the run exits 0 and prints the environment record;
* the last line has exactly ``correct``, ``attempted``, ``failed`` and
  ``metrics``, with ``correct`` true;
* every metric of the matching ``BENCHMARK.json`` section is in that line
  with its unit and is also printed by name and unit on a line of its own,
  as is ``failed_frac`` with tracing off;
* counts are integers;
* the layer self times (per-layer metrics in seconds, ``harness.self_s``
  among them) add up to ``trace.wall_s``.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def run(workload: str, trace: int) -> tuple[list[str], dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
           "--seconds", "0.01", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300, check=False)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stdout}")
    return lines, json.loads(lines[-1])


def check(workload: str, trace: int, spec: dict) -> None:
    lines, result = run(workload, trace)
    section = spec["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True, result
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, result
    env = json.loads(next(line for line in lines if line.startswith("env "))[4:])
    assert {"nproc", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "python", "numpy", "scipy"} <= set(env)

    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in section}, set(metrics) ^ {m["name"] for m in section}
    # metric lines read "  <name> <value> <unit>"
    printed = {line.split()[0]: line.split()[-1] for line in lines[:-1] if line.startswith("  ")}
    if not trace:
        assert printed.get("failed_frac") == "1", "failed_frac not printed with its unit"
    for m in section:
        entry = metrics[m["name"]]
        assert entry["unit"] == m["unit"], (m, entry)
        assert printed.get(m["name"]) == m["unit"], f"{m['name']} not printed with unit {m['unit']}"
        if m["unit"] == "count":
            assert isinstance(entry["value"], int), (m["name"], entry)
        assert math.isfinite(entry["value"]), (m["name"], entry)

    if trace:
        wall = metrics["trace.wall_s"]["value"]
        self_sum = sum(
            e["value"] for name, e in metrics.items() if e["unit"] == "s" and name != "trace.wall_s"
        )
        assert math.isclose(self_sum, wall, rel_tol=1e-6), (self_sum, wall)
        assert metrics["harness.self_s"]["value"] > 0.0
    print(f"ok  {workload:12s} trace={trace}  {len(metrics)} metrics")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in WORKLOADS:
        for trace in (0, 1):
            check(workload, trace, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
