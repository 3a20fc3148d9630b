"""Benchmark of the marlsched simulator and double-DQN trainer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the package is imported from the `src/` directory next to
`bench/`. The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The line before it records the
run context and the simulated outputs with their digest.

Every workload is a closed loop in this one process over a fixed list of
environment seeds drawn from `--seed`. A "unit" is one episode (rollout
workloads) or one fixed training run (train-default). An interval is one
simulated 1 ms scheduling interval, and every rate is simulated intervals per
second of host time.

--trace 0 repeats whole passes over the units until `--seconds` have passed
and reports the end-to-end metrics: set-up time, the median per-unit rate,
peak memory and the share of units whose outputs were correct. Each unit's
rate is scaled by the machine-speed probe that runs during it (probe.py); the
line before the result also gives the unscaled median rate.

--trace 1 runs each unit twice, untraced and then with spans recorded around
the calls into each module (see tracing.py), without the probe, and reports
per-function costs, exact work counts and the tracing overhead.

Outputs of every unit (per-seed sum rate, 5th percentile rate and score, or
the epoch log and final parameter digest of a training run) must repeat
exactly across passes. At the default seed they must also equal, bit for
bit, the references in reference.json; `--update-reference` rewrites those.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Callable

START = time.perf_counter()

import numpy as np

from probe import Probe
from tracing import OVERHEAD, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference.json"
SCRATCH = ROOT / ".bench_tmp"      # checkpoints written by train-default

DEFAULT_SEED = 0
SETUP_REPEATS = 3          # set-ups per run; setup_s reports their median
FIT_SEED = 0               # norm-stats rollout, fixed like a shipped artifact
FIT_INTERVALS = 500        # length of that full_reuse rollout
NET_SEED = 0               # initial weights of the policy-large network
BASELINE_SEEDS = 4         # episodes per pass of each baseline workload
POLICY_SEEDS = 2           # episodes per pass of policy-large
TRAIN_EPISODES = 4         # one round of the 4 lockstep training envs
VALIDATION_SEEDS = 2

END_TO_END = (
    ("setup_s", "s"),
    ("intervals_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("ok_share", "share"),
)


@dataclasses.dataclass
class Unit:
    key: str
    run: Callable[[], tuple[dict, int]]   # -> (outputs, simulated intervals)


@dataclasses.dataclass
class Sample:
    key: str
    wall_s: float            # wall time of the unit, probe bursts left out
    speed: float             # probe speed factor during the unit, 1 unprobed
    intervals: int
    outputs: dict | None     # None when the unit raised

    @property
    def rate(self) -> float:
        """Intervals per second at the probe's reference machine speed."""
        return self.intervals / self.wall_s * self.speed


def env_seeds(seed: int, count: int) -> list[int]:
    rng = np.random.default_rng(seed)
    return [int(rng.integers(2 ** 63)) for _ in range(count)]


# ------------------------------------------------------------------ workloads

def rollout_units(env_config, make_policy, seeds, label):
    from marlsched import harness

    def episode(seed):
        result = harness.evaluate_policy(env_config, make_policy(), [seed])
        m = result["per_env"][0]
        outputs = {"sum_rate_mbps": m.sum_rate_mbps, "pct5_mbps": m.pct5_mbps,
                   "score": m.score}
        return outputs, env_config.episode_length

    return [Unit(f"{label}/{s}", lambda s=s: episode(s)) for s in seeds]


def fit_norm_stats(env_config):
    from marlsched import cli, normalize
    fit_config = dataclasses.replace(env_config, episode_length=FIT_INTERVALS)
    data = normalize.collect_offline_dataset(
        fit_config, ["full_reuse"], 1, np.random.default_rng(FIT_SEED))
    return normalize.fit(data, cli.DEFAULT_Q_LEVELS)


def setup_baseline(name):
    def setup(seed):
        from marlsched import harness
        from marlsched.env import EnvConfig
        return rollout_units(EnvConfig(), lambda: harness.BaselinePolicy(name),
                             env_seeds(seed, BASELINE_SEEDS), name)
    return setup


def setup_policy_large(seed):
    from marlsched import dqn, nn
    from marlsched.env import EnvConfig
    from marlsched.topology import DeploymentConfig
    config = EnvConfig(deployment=DeploymentConfig(num_aps=10, num_ues=100))
    mapper, _ = fit_norm_stats(config)
    net = nn.Mlp(config.obs_dim, config.num_actions, dqn.TrainerConfig().hidden_units,
                 rng=np.random.default_rng(NET_SEED))
    return rollout_units(config, lambda: dqn.DqnPolicy(net, mapper),
                         env_seeds(seed, POLICY_SEEDS), "dqn")


def setup_train_default(seed):
    from marlsched import dqn, nn
    from marlsched.env import EnvConfig
    config = EnvConfig()
    trainer = dqn.TrainerConfig(episodes=TRAIN_EPISODES)
    mapper, reward_norm = fit_norm_stats(config)
    train_seed, *val_seeds = env_seeds(seed, 1 + VALIDATION_SEEDS)

    def train():
        SCRATCH.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=SCRATCH) as out_dir:
            result = dqn.run_training(config, trainer, mapper, reward_norm, val_seeds,
                                      seed=train_seed, out_dir=out_dir)
        final = result.checkpoints[-1]
        digest = hashlib.sha256(b"".join(
            final[k].astype("<f8").tobytes() for k in nn.PARAM_NAMES)).hexdigest()
        outputs = {"epochs": [dataclasses.asdict(r) for r in result.epoch_log],
                   "final_params_sha256": digest}
        episodes = trainer.episodes + len(result.epoch_log) * len(val_seeds)
        return outputs, episodes * config.episode_length

    return [Unit(f"train/{train_seed}", train)]


# Why each workload was chosen is stated in BENCHMARK.json.
WORKLOADS = {
    "baselines-default.full_reuse": setup_baseline("full_reuse"),
    "baselines-default.tdm": setup_baseline("tdm"),
    "baselines-default.itlinq": setup_baseline("itlinq"),
    "policy-large": setup_policy_large,
    "train-default": setup_train_default,
}


# ---------------------------------------------------------------- measuring

def run_unit(unit, probed: bool, last_speed: float = 1.0) -> Sample:
    """Run one unit; an exception is reported and leaves outputs None."""
    probe = Probe() if probed else contextlib.nullcontext()
    t0 = time.perf_counter()
    try:
        with probe:
            outputs, intervals = unit.run()
    except Exception:
        traceback.print_exc()
        outputs, intervals = None, 0
    wall = time.perf_counter() - t0
    if not probed:
        return Sample(unit.key, wall, 1.0, intervals, outputs)
    return Sample(unit.key, wall - probe.spent_s, probe.speed_factor(last_speed),
                  intervals, outputs)


def run_units(units, seconds) -> list[Sample]:
    """Probed units: one whole pass, then more until `seconds` have passed."""
    samples = []
    start = time.perf_counter()
    i = 0
    while i < len(units) or time.perf_counter() - start < seconds:
        last = samples[-1].speed if samples else 1.0
        samples.append(run_unit(units[i % len(units)], True, last))
        i += 1
    return samples


def check_outputs(samples, reference):
    """Count samples that raised or whose outputs differ from the first pass
    or, when given, from the stored reference; return (failed, outputs by key)."""
    canon: dict[str, str] = {}
    failed = 0
    for s in samples:
        if s.outputs is None:
            failed += 1
            continue
        text = json.dumps(s.outputs, sort_keys=True)
        first = canon.setdefault(s.key, text)
        expected = first if reference is None else json.dumps(reference.get(s.key),
                                                              sort_keys=True)
        if text != first or text != expected:
            failed += 1
    return failed, {k: json.loads(v) for k, v in canon.items()}


def time_imports() -> float:
    """Median wall time of fresh interpreters importing the package."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import marlsched.cli"],
                       env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_context(args) -> dict:
    src_lines = sum(p.read_bytes().count(b"\n") for p in SRC.rglob("*.py"))
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(), "src_lines": src_lines,
    }


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if not found."""
    import ctypes
    try:
        with open("/proc/self/maps") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def unscaled_rate(samples):
    return sum(s.intervals for s in samples) / sum(s.wall_s for s in samples)


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-reference", action="store_true",
                        help="store this run's outputs as the default seed's reference")
    args = parser.parse_args(argv)
    if not (SRC / "marlsched" / "__init__.py").is_file():
        print(f"marlsched sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.update_reference and args.seed != DEFAULT_SEED:
        parser.error("references are stored for the default seed only")
    sys.path.insert(0, str(SRC))
    import marlsched.cli  # noqa: F401  (imports every module, as the CLI does)

    import_s = time_imports()
    setup = WORKLOADS[args.workload]
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        units = setup(args.seed)
        setup_times.append(time.perf_counter() - t0)

    references = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    reference = None
    if args.seed == DEFAULT_SEED and not args.update_reference:
        reference = references.get(args.workload)

    if args.trace:
        # Untraced and traced runs of each unit alternate, so that drift in
        # machine speed falls on both sides of the overhead alike.
        tracer = Tracer()
        untraced, traced = [], []
        for unit in units:
            untraced.append(run_unit(unit, False))
            tracer.install()
            try:
                traced.append(run_unit(unit, False))
            finally:
                tracer.remove()
        samples = untraced + traced
        metrics = tracer.summary()
        units_of = {name: unit for name, unit, _ in OVERHEAD}
        untraced_wall = sum(s.wall_s for s in untraced)
        overhead = {
            "trace.intervals_per_s.overhead": unscaled_rate(untraced) - unscaled_rate(traced),
            "trace.wall_s.overhead": sum(s.wall_s for s in traced) - untraced_wall,
            "trace.untraced_wall_s": untraced_wall,
        }
        metrics.update({k: metric(v, units_of[k]) for k, v in overhead.items()})
    else:
        samples = run_units(units, args.seconds)

    failed, outputs = check_outputs(samples, reference)
    ok = [s for s in samples if s.outputs is not None]
    info = {}
    if not args.trace:
        values = {
            "setup_s": import_s + statistics.median(setup_times),
            "intervals_per_s": statistics.median(s.rate for s in ok) if ok else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_share": (len(samples) - failed) / len(samples),
        }
        metrics = {name: metric(values[name], unit) for name, unit in END_TO_END}
        info = {"unscaled_intervals_per_s": statistics.median(
                    s.intervals / s.wall_s for s in ok) if ok else 0.0,
                "mean_speed_factor": statistics.fmean(s.speed for s in samples)}

    if args.update_reference:
        if failed:
            print("not storing a reference from a failed run", file=sys.stderr)
            return 1
        references[args.workload] = outputs
        REFERENCE.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    _remove_empty_scratch()

    digest = hashlib.sha256(json.dumps(outputs, sort_keys=True).encode()).hexdigest()
    print(json.dumps({
        "context": run_context(args),
        "run_s": time.perf_counter() - START,
        "reference": "none" if reference is None else ("fail" if failed else "match"),
        **info,
        "outputs_sha256": digest,
        "outputs": outputs,
    }))
    print(json.dumps({"correct": failed == 0, "attempted": len(samples),
                      "failed": failed, "metrics": metrics}))
    return 0


def _remove_empty_scratch():
    try:
        SCRATCH.rmdir()
    except OSError:
        pass


if __name__ == "__main__":
    sys.exit(main())
