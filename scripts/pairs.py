"""Alternating benchmark pairs of two commits, summarised per end-to-end metric.

    python3 scripts/pairs.py --workload train-default --pairs 5 --seconds 15 \
        --parent 80a1877 --out BENCH_31.json [--change HEAD] [--claim peak_rss_mb] \
        [--label NAME] [--env MALLOC_MMAP_THRESHOLD_=131072]

Both commits are extracted with `git archive` into a temporary directory, and
each side runs its own unedited `bench/run.py --workload W --seconds S --seed i`
for pair i = 0..n-1; the parent goes first in even pairs and the change in odd
ones. `--env` entries are set in the measured processes only.

The output file holds both commits and, under the label (the workload unless
`--label` is given), every run's last two output lines and a summary: per
end-to-end metric of BENCHMARK.json, and the unscaled interval rate of the
line before the result, the median and quartiles of each side, the pairs the
change won (strictly better in the metric's `better` direction), the parent's
IQR and the median's relative worsening against the metric's bound. A claimed
metric holds when the change won at least 9 of every 10 pairs, its median lies
beyond the parent's IQR in the better direction and every run of the change
was correct; a claim on intervals_per_s must also hold on the unscaled rate.
A run that exits non-zero is stored with its exit code and last stderr line; its
pair is left out of every metric, and `verdict.all_correct` is false, so a claim
fails; a series with no complete pair is neither correct nor a gain. A workload
BENCHMARK.json does not list, `--pairs` below 1 or a negative `--seconds` is
refused before anything is extracted.
Runs under other labels already in the file are kept when the commits match.

Once per output file, each side also runs the Tier-1 suite in its tree, and
the file holds each side's wall time, exit code and pytest summary line under
`tier1`; a file that already holds them for the same two commits keeps them.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
UNSCALED = {"name": "unscaled_intervals_per_s", "unit": "1/s", "better": "higher"}
CLAIM_WIN_SHARE = 0.9
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]


def quartiles(values):
    """(first quartile, median, third quartile), inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def metric_value(run, name):
    """The metric's value in one run: from the result line, or the unscaled rate
    from the line before it."""
    context, result = (json.loads(line) for line in run["lines"])
    if name == UNSCALED["name"]:
        return context[name]
    return result["metrics"][name]["value"]


def summarize(runs, end_to_end, claim=None) -> dict:
    """Per-metric medians, quartiles and wins of runs (dicts with `pair`, `side`
    and `lines`, or `returncode` for a failed run), and the verdict on the
    claimed metric. Pairs with a failed run are left out of every metric."""
    failed = {r["pair"] for r in runs if "lines" not in r}
    correct = {side: all(json.loads(r["lines"][1])["correct"] for r in runs
                         if r["side"] == side and "lines" in r) for side in SIDES}
    pairs = sorted({r["pair"] for r in runs} - failed)
    summary = {}
    for spec in [*end_to_end, UNSCALED] if pairs else []:     # no complete pair, no metric
        name, sign = spec["name"], 1 if spec["better"] == "higher" else -1
        by_pair = {(r["pair"], r["side"]): metric_value(r, name) for r in runs
                   if r["pair"] in pairs}
        entry = {"better": spec["better"], "unit": spec["unit"]}
        for side in SIDES:
            q1, median, q3 = quartiles([by_pair[p, side] for p in pairs])
            entry[side] = {"median": median, "q1": q1, "q3": q3}
        parent, change = entry["parent"], entry["change"]
        diffs = [sign * (by_pair[p, "change"] - by_pair[p, "parent"]) for p in pairs]
        entry["wins"] = sum(d > 0 for d in diffs)
        entry["ties"] = sum(d == 0 for d in diffs)
        entry["pairs"] = len(pairs)
        entry["parent_iqr"] = parent["q3"] - parent["q1"]
        gain = sign * (change["median"] - parent["median"])
        entry["beyond_parent_iqr"] = gain > entry["parent_iqr"]
        if "bound" in spec:
            worse = -gain / abs(parent["median"]) if parent["median"] else -gain
            entry["worsening"] = worse
            entry["within_bound"] = worse <= spec["bound"]
        summary[name] = entry
    # no complete pair shows nothing, so it is neither correct nor a gain
    complete = bool(pairs) and not failed
    verdict = {"all_correct": complete and correct["parent"] and correct["change"],
               "within_bounds": bool(pairs) and all(e.get("within_bound", True)
                                                    for e in summary.values())}
    if claim is not None:
        # the probe's scaling can overstate a rate, so a rate claim holds on both
        names = [claim, UNSCALED["name"]] if claim == "intervals_per_s" else [claim]
        verdict["claim"] = claim
        verdict["claim_holds"] = complete and correct["change"] and all(
            summary[n]["beyond_parent_iqr"]
            and summary[n]["wins"] >= CLAIM_WIN_SHARE * summary[n]["pairs"] for n in names)
    return {"metrics": summary, "verdict": verdict}


def extract(commit: str, dest: Path) -> str:
    """Write the commit's tree into dest; return its full hash."""
    full = subprocess.run(["git", "rev-parse", "--verify", f"{commit}^{{commit}}"],
                          cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()
    dest.mkdir(parents=True)
    archive = subprocess.Popen(["git", "archive", "--format=tar", full], cwd=ROOT,
                               stdout=subprocess.PIPE)
    with tarfile.open(fileobj=archive.stdout, mode="r|") as tar:
        tar.extractall(dest, filter="data")
    if archive.wait():
        raise RuntimeError(f"git archive {full} failed")
    return full


def run_bench(tree: Path, workload: str, seconds: float, seed: int, env: dict) -> dict:
    """One benchmark run in tree: its last two lines, or, if it exits non-zero,
    its exit code and last stderr line."""
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seconds", str(seconds), "--seed", str(seed)],
                          cwd=tree, env={**os.environ, **env},
                          capture_output=True, text=True)
    if proc.returncode:
        return {"returncode": proc.returncode,
                "stderr": (proc.stderr.strip().splitlines() or [""])[-1]}
    return {"lines": proc.stdout.strip().splitlines()[-2:]}


def run_tier1(tree: Path) -> dict:
    """Wall time, exit code and last output line of the Tier-1 suite in tree."""
    pythonpath = os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")]))
    start = time.perf_counter()
    proc = subprocess.run(TIER1, cwd=tree, env={**os.environ, "PYTHONPATH": pythonpath},
                          capture_output=True, text=True)
    wall_s = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    return {"wall_s": wall_s, "returncode": proc.returncode,
            "summary": lines[-1] if lines else ""}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", default="HEAD")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--claim", help="end-to-end metric the change claims to improve")
    parser.add_argument("--label", help="key of these runs in the output (default: workload)")
    parser.add_argument("--env", action="append", default=[], metavar="KEY=VALUE")
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = benchmark["end_to_end"]
    if args.workload not in {w["name"] for w in benchmark["workloads"]}:
        parser.error(f"--workload {args.workload} is no workload of BENCHMARK.json")
    if args.pairs < 1:
        parser.error(f"--pairs must be at least 1, got {args.pairs}")
    if not args.seconds >= 0:
        parser.error(f"--seconds must be non-negative, got {args.seconds}")
    if args.claim and args.claim not in {m["name"] for m in end_to_end}:
        parser.error(f"--claim {args.claim} is no end-to-end metric of BENCHMARK.json")
    env = dict(item.split("=", 1) for item in args.env)

    with tempfile.TemporaryDirectory() as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        commits = {side: extract(getattr(args, side), trees[side]) for side in SIDES}
        out = {"parent": commits["parent"], "change": commits["change"], "runs": {}}
        if args.out.is_file():
            old = json.loads(args.out.read_text())
            if (old.get("parent"), old.get("change")) == (out["parent"], out["change"]):
                out = old
        runs = []
        for i in range(args.pairs):
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                run = run_bench(trees[side], args.workload, args.seconds, i, env)
                runs.append({"pair": i, "seed": i, "side": side, **run})
                print(f"pair {i} {side}: {run['lines'][-1] if 'lines' in run else run}",
                      file=sys.stderr)
        if "tier1" not in out:
            out["tier1"] = {side: run_tier1(trees[side]) for side in SIDES}
            print(f"tier1: {out['tier1']}", file=sys.stderr)

    out["runs"][args.label or args.workload] = {
        "workload": args.workload, "seconds": args.seconds, "env": env, "runs": runs,
        **summarize(runs, end_to_end, args.claim)}
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
