"""Command line entry points for data collection, training and evaluation."""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from types import SimpleNamespace

import numpy as np

from . import dqn, harness, normalize
from .baselines import BASELINES
from .dqn import DqnPolicy, TrainerConfig
from .env import ConfigError, EnvConfig
from .harness import BaselinePolicy, ValidationSet
from .nn import load_checkpoint

DEFAULT_Q_LEVELS = 20


def load_configs(path: str | None):
    """JSON config file with optional "env" and "trainer" sections."""
    if path is None:
        return EnvConfig(), TrainerConfig()
    with open(path) as f:
        raw = json.load(f)
    unknown = sorted(set(raw) - {"env", "trainer"})
    if unknown:
        raise ConfigError(f"unknown config sections: {', '.join(unknown)}")
    env_cfg = EnvConfig.from_dict(raw.get("env", {}))
    trainer_cfg = TrainerConfig.from_dict(raw.get("trainer", {}))
    return env_cfg, trainer_cfg


def _fresh_seeds(seed: int, count: int) -> list[int]:
    rng = np.random.default_rng(seed)
    return [int(rng.integers(2 ** 63)) for _ in range(count)]


def cmd_collect_norm_stats(args):
    env_cfg, _ = load_configs(args.config)
    rng = np.random.default_rng(args.seed)
    dataset = normalize.collect_offline_dataset(
        env_cfg, args.baselines, args.episodes, rng)
    mapper, rnorm = normalize.fit(dataset, args.q_levels)
    normalize.save_stats(args.out, mapper, rnorm, env_cfg.fingerprint())
    print(f"wrote {args.out}: {len(dataset.rewards)} reward samples, "
          f"{len(dataset.weights)} weight samples")


def cmd_build_val_set(args):
    env_cfg, _ = load_configs(args.config)
    rng = np.random.default_rng(args.seed)
    vset = harness.build_validation_set(
        env_cfg, args.count, args.population, args.tolerance, rng)
    vset.save(args.out)
    print(f"wrote {args.out}: {len(vset.seeds)} validation environments")


def cmd_train(args):
    env_cfg, trainer_cfg = load_configs(args.config)
    mapper, rnorm, fp = normalize.load_stats(args.norm_stats)
    if fp and fp != env_cfg.fingerprint():
        print(f"warning: normalization stats fitted for {fp}, "
              f"training on {env_cfg.fingerprint()}", file=sys.stderr)
    if args.val_set:
        vset = ValidationSet.load(args.val_set)
        val_seeds = vset.seeds
    else:
        val_seeds = _fresh_seeds(args.seed + 1, 10)
    os.makedirs(args.out, exist_ok=True)
    log_path = os.path.join(args.out, "epochs.csv")
    with open(log_path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["epoch", "episodes", "sum_rate_mbps", "pct5_mbps",
                         "score", "mean_loss"])

        def log(rec):
            writer.writerow([rec.epoch, rec.episodes, rec.sum_rate_mbps,
                             rec.pct5_mbps, rec.score, rec.mean_loss])
            f.flush()
            print(f"epoch {rec.epoch}: score={rec.score:.3f} "
                  f"sum={rec.sum_rate_mbps:.2f} pct5={rec.pct5_mbps:.3f}")

        result = dqn.run_training(env_cfg, trainer_cfg, mapper, rnorm,
                                  val_seeds, seed=args.seed, out_dir=args.out,
                                  log=log)
    print(f"best epoch: {result.best_epoch} "
          f"(score {result.epoch_log[result.best_epoch - 1].score:.3f})")


def _dqn_policy(args, env_cfg):
    """The checkpoint's greedy policy; exits 2 when its widths do not fit env_cfg."""
    net, _ = load_checkpoint(args.checkpoint)
    if (net.in_dim, net.out_dim) != (env_cfg.obs_dim, env_cfg.num_actions):
        print(f"marlsched: error: checkpoint {args.checkpoint} has in_dim={net.in_dim}, "
              f"out_dim={net.out_dim}; the config has obs_dim={env_cfg.obs_dim}, "
              f"num_actions={env_cfg.num_actions}", file=sys.stderr)
        raise SystemExit(2)
    mapper, _, _ = normalize.load_stats(args.norm_stats)
    return DqnPolicy(net, mapper)


def cmd_evaluate(args):
    env_cfg, _ = load_configs(args.config)
    if args.env_set:
        vset = ValidationSet.load(args.env_set)
        seeds, env_cfg = vset.seeds, vset.env_config
    else:
        seeds = _fresh_seeds(args.seed, args.num_envs)
    result = harness.evaluate_policy(env_cfg, _dqn_policy(args, env_cfg), seeds)
    _print_eval(result)
    if args.out:
        _dump_eval(args.out, result)


def cmd_baseline(args):
    env_cfg, _ = load_configs(args.config)
    seeds = _fresh_seeds(args.seed, args.num_envs)
    result = harness.evaluate_policy(env_cfg, BaselinePolicy(args.kind), seeds)
    _print_eval(result)
    if args.out:
        _dump_eval(args.out, result)


def _print_eval(result):
    print(f"sum_rate_mbps={result['sum_rate_mbps']:.3f} "
          f"(std {result['sum_rate_mbps_std']:.3f}) "
          f"pct5_mbps={result['pct5_mbps']:.4f} "
          f"(std {result['pct5_mbps_std']:.4f}) score={result['score']:.3f}")


def _dump_eval(path, result):
    rows = [{"env": i, "sum_rate_mbps": m.sum_rate_mbps, "pct5_mbps": m.pct5_mbps,
             "score": m.score} for i, m in enumerate(result["per_env"])]
    harness.metrics_to_csv(path, rows)
    print(f"wrote {path}")


def cmd_analyze_interferers(args):
    env_cfg, _ = load_configs(args.config)
    rng = np.random.default_rng(args.seed)
    n_values = list(range(env_cfg.deployment.num_aps))
    profile = harness.interference_profile(env_cfg, n_values, args.realizations, rng)
    rows = [{"num_interferers": n, "mean_sinr_db": v} for n, v in sorted(profile.items())]
    harness.metrics_to_csv(args.out, rows)
    print(f"wrote {args.out}")


def cmd_analyze_decisions(args):
    env_cfg, _ = load_configs(args.config)
    policy = _dqn_policy(args, env_cfg)
    seeds = _fresh_seeds(args.seed, args.num_envs)
    rows = harness.export_decision_log(env_cfg, policy, seeds, args.out)
    print(f"wrote {args.out}: {rows} rows")


def cmd_analyze_pareto(args):
    entries = []
    for path in args.inputs:
        with open(path) as f:
            rows = list(csv.DictReader(f))
        entries.append((path, SimpleNamespace(
            sum_rate_mbps=float(np.mean([float(r["sum_rate_mbps"]) for r in rows])),
            pct5_mbps=float(np.mean([float(r["pct5_mbps"]) for r in rows])))))
    for name_a, a in entries:
        for name_b, b in entries:
            if name_a != name_b and harness.dominates(a, b):
                print(f"{name_a} dominates {name_b}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="marlsched")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("collect-norm-stats", help="fit percentile/reward statistics")
    p.add_argument("--config")
    p.add_argument("--episodes", type=int, default=10)
    p.add_argument("--baselines", nargs="+", choices=sorted(BASELINES),
                   default=["full_reuse"])
    p.add_argument("--q-levels", type=int, default=DEFAULT_Q_LEVELS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_collect_norm_stats)

    p = sub.add_parser("build-val-set", help="select typical validation environments")
    p.add_argument("--config")
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--population", type=int, default=100)
    p.add_argument("--tolerance", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build_val_set)

    p = sub.add_parser("train", help="train the shared double-DQN policy")
    p.add_argument("--config")
    p.add_argument("--norm-stats", required=True)
    p.add_argument("--val-set")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a checkpoint")
    p.add_argument("--config")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--norm-stats", required=True)
    p.add_argument("--env-set")
    p.add_argument("--num-envs", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("baseline", help="evaluate a baseline scheduler")
    p.add_argument("--kind", choices=sorted(BASELINES), required=True)
    p.add_argument("--config")
    p.add_argument("--num-envs", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_baseline)

    analyze = sub.add_parser("analyze", help="interferer profile, decision log, pareto")
    targets = analyze.add_subparsers(dest="what", required=True)
    p = targets.add_parser("interferers", help="mean UE SINR vs nearest interferers")
    p.add_argument("--realizations", type=int, default=20)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_analyze_interferers)
    p = targets.add_parser("decisions", help="per agent-interval decision log")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--norm-stats", required=True)
    p.add_argument("--num-envs", type=int, default=5)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_analyze_decisions)
    p = targets.add_parser("pareto", help="which eval CSVs Pareto-dominate which")
    p.add_argument("--inputs", nargs="+", required=True)
    p.set_defaults(func=cmd_analyze_pareto)
    for p in targets.choices.values():
        p.add_argument("--config")
        p.add_argument("--seed", type=int, default=0)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    args.func(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
