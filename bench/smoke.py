"""Smoke test of the benchmark: every workload, untraced and traced, at seed 0.

    python3 bench/smoke.py

Each run is as short as the benchmark allows (one pass over its units). The
test checks that BENCHMARK.json declares the per-layer metrics tracing.py
reports, that each result line lists exactly the metrics declared for its
mode, with their units, that the outputs matched the stored references, and
that the benchmark refuses to run without the sources.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

from tracing import metric_specs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def check_result(spec, workload, trace) -> list[str]:
    proc = run(["--workload", workload, "--seed", "0", "--seconds", "0",
                "--trace", str(trace)])
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}\n{proc.stderr}"]
    *_, context_line, result_line = proc.stdout.splitlines()
    result = json.loads(result_line)
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append(f"{where}: correct={result.get('correct')} failed={result.get('failed')}")
    if json.loads(context_line).get("reference") != "match":
        errors.append(f"{where}: outputs do not match reference.json")
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = result.get("metrics", {})
    if set(metrics) != set(declared):
        errors.append(f"{where}: missing {sorted(set(declared) - set(metrics))}, "
                      f"undeclared {sorted(set(metrics) - set(declared))}")
    for name, m in metrics.items():
        value = m.get("value")
        if m.get("unit") != declared.get(name):
            errors.append(f"{where}: {name} unit {m.get('unit')!r}")
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            errors.append(f"{where}: {name} value {value!r}")
        elif not trace and value == 0:
            errors.append(f"{where}: end-to-end metric {name} is 0")
    return errors


def check_refuses_without_sources() -> list[str]:
    bare = ROOT / ".bench_tmp" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run(["--workload", "train-default", "--seed", "0", "--seconds", "1"],
                   cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass
    if proc.returncode == 0 or proc.stdout.strip():
        return ["bench/run.py ran without the sources"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = check_refuses_without_sources()
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    if declared != metric_specs():
        errors.append("BENCHMARK.json per_layer differs from tracing.metric_specs()")
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            found = check_result(spec, workload, trace)
            print(f"{workload} --trace {trace}: {'ok' if not found else 'FAILED'}",
                  flush=True)
            errors += found
    for e in errors:
        print(e, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
