"""Command line entry points for data collection, training and evaluation."""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import asdict, dataclass, field, fields
from types import SimpleNamespace

import numpy as np

from . import dqn, harness, normalize
from .baselines import BASELINES
from .dqn import DqnPolicy, TrainerConfig
from .env import ConfigError, EnvConfig, read_config
from .harness import BaselinePolicy, ValidationSet
from .nn import ShapeMismatch, load_checkpoint

DEFAULT_Q_LEVELS = 20


@dataclass
class ConfigFile:
    """A JSON config file: optional "env" and "trainer" sections."""
    env: EnvConfig = field(default_factory=EnvConfig)
    trainer: TrainerConfig = field(default_factory=TrainerConfig)


def load_configs(path: str | None):
    """(EnvConfig, TrainerConfig) from a config file; the defaults without one."""
    if path is None:
        return EnvConfig(), TrainerConfig()
    with open(path, encoding="utf-8") as f:
        cfg = read_config(ConfigFile, json.load(f))
    cfg.trainer.validate()
    return cfg.env, cfg.trainer


def at_least(low, kind=int):
    """argparse type: an int (or kind) of at least low, NaN refused, so that
    argparse names the flag. A malformed int reads as an "invalid count value"."""
    def count(text):
        if not kind(text) >= low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {text}")
        return kind(text)
    count.__name__ = "count" if kind is int else kind.__name__
    return count


def _usage_error(message: str):
    """Exit 2 with message on stderr, as argparse does for a bad flag."""
    print(f"marlsched: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def cmd_collect_norm_stats(args, env_cfg, trainer_cfg):
    dataset = normalize.collect_offline_dataset(
        env_cfg, args.baselines, args.episodes, args.seed)
    mapper, rnorm = normalize.fit(dataset, args.q_levels)
    normalize.save_stats(args.out, mapper, rnorm, env_cfg.fingerprint())
    print(f"wrote {args.out}: {len(dataset.rewards)} reward samples, "
          f"{len(dataset.weights)} weight samples")


def cmd_build_val_set(args, env_cfg, trainer_cfg):
    if args.population < args.count:
        _usage_error(f"--population {args.population} cannot hold --count {args.count}")
    vset = harness.build_validation_set(
        env_cfg, args.count, args.population, args.tolerance, args.seed)
    vset.save(args.out)
    print(f"wrote {args.out}: {len(vset.seeds)} validation environments")


def _warn_other_config(made_for: str, fp: str, env_cfg: EnvConfig) -> None:
    """Warn on stderr when fp, the config a file was made for, is not env_cfg's."""
    if fp != env_cfg.fingerprint():
        print(f"warning: {made_for} {fp}, running on {env_cfg.fingerprint()}", file=sys.stderr)


def _load_stats(path: str, env_cfg: EnvConfig):
    """(mapper, normalizer) from path; warns when they were fitted for another config."""
    mapper, rnorm, fp = normalize.load_stats(path)
    _warn_other_config(f"normalization stats {path} fitted for", fp, env_cfg)
    return mapper, rnorm


def cmd_train(args, env_cfg, trainer_cfg):
    mapper, rnorm = _load_stats(args.norm_stats, env_cfg)
    if args.val_set:
        vset = ValidationSet.load(args.val_set)
        _warn_other_config(f"validation set {args.val_set} built for",
                           vset.env_config.fingerprint(), env_cfg)
        val_seeds = vset.seeds
    else:
        val_seeds = harness.fresh_seeds(args.seed + 1, 10)
    os.makedirs(args.out, exist_ok=True)
    log_path = os.path.join(args.out, "epochs.csv")
    with open(log_path, "w", newline="") as f:
        writer = csv.DictWriter(f, [fld.name for fld in fields(dqn.EpochRecord)])
        writer.writeheader()

        def log(rec):
            writer.writerow(asdict(rec))
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
        _usage_error(f"checkpoint {args.checkpoint} has in_dim={net.in_dim}, "
                     f"out_dim={net.out_dim}; the config has obs_dim={env_cfg.obs_dim}, "
                     f"num_actions={env_cfg.num_actions}")
    mapper, _ = _load_stats(args.norm_stats, env_cfg)
    return DqnPolicy(net, mapper)


def cmd_evaluate(args, env_cfg, trainer_cfg):
    if args.env_set:
        vset = ValidationSet.load(args.env_set)
        if args.config:
            _warn_other_config(f"ignoring --config {args.config}, which gives",
                               env_cfg.fingerprint(), vset.env_config)
        seeds, env_cfg = vset.seeds, vset.env_config
    else:
        seeds = harness.fresh_seeds(args.seed, args.num_envs)
    _report(harness.evaluate_policy(env_cfg, _dqn_policy(args, env_cfg), seeds), args.out)


def cmd_baseline(args, env_cfg, trainer_cfg):
    seeds = harness.fresh_seeds(args.seed, args.num_envs)
    _report(harness.evaluate_policy(env_cfg, BaselinePolicy(args.kind), seeds), args.out)


def _report(result, out):
    """Print an evaluation's metrics and, when out is given, write its per-env CSV."""
    print(f"sum_rate_mbps={result['sum_rate_mbps']:.3f} "
          f"(std {result['sum_rate_mbps_std']:.3f}) "
          f"pct5_mbps={result['pct5_mbps']:.4f} "
          f"(std {result['pct5_mbps_std']:.4f}) score={result['score']:.3f}")
    if out:
        harness.metrics_to_csv(out, [{"env": i, **asdict(m)}
                                     for i, m in enumerate(result["per_env"])])
        print(f"wrote {out}")


def cmd_analyze_interferers(args, env_cfg, trainer_cfg):
    rng = np.random.default_rng(args.seed)
    n_values = list(range(env_cfg.deployment.num_aps))
    profile = harness.interference_profile(env_cfg, n_values, args.realizations, rng)
    rows = [{"num_interferers": n, "mean_sinr_db": v} for n, v in sorted(profile.items())]
    harness.metrics_to_csv(args.out, rows)
    print(f"wrote {args.out}")


def cmd_analyze_decisions(args, env_cfg, trainer_cfg):
    policy = _dqn_policy(args, env_cfg)
    seeds = harness.fresh_seeds(args.seed, args.num_envs)
    rows = harness.export_decision_log(env_cfg, policy, seeds, args.out)
    print(f"wrote {args.out}: {rows} rows")


def cmd_analyze_pareto(args, env_cfg, trainer_cfg):
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
    common = argparse.ArgumentParser(add_help=False)   # the flags of every leaf command
    common.add_argument("--config")
    common.add_argument("--seed", type=at_least(0), default=0)
    policy = argparse.ArgumentParser(add_help=False)   # evaluate's and analyze decisions'
    policy.add_argument("--checkpoint", required=True)
    policy.add_argument("--norm-stats", required=True)

    p = sub.add_parser("collect-norm-stats", help="fit percentile/reward statistics",
                       parents=[common])
    p.add_argument("--episodes", type=at_least(1), default=10)
    p.add_argument("--baselines", nargs="+", choices=sorted(BASELINES),
                   default=["full_reuse"])
    p.add_argument("--q-levels", type=at_least(2), default=DEFAULT_Q_LEVELS)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_collect_norm_stats)

    p = sub.add_parser("build-val-set", help="select typical validation environments",
                       parents=[common])
    p.add_argument("--count", type=at_least(1), default=10)
    p.add_argument("--population", type=at_least(1), default=100)
    p.add_argument("--tolerance", type=at_least(0.0, float), default=0.05)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build_val_set)

    p = sub.add_parser("train", help="train the shared double-DQN policy", parents=[common])
    p.add_argument("--norm-stats", required=True)
    p.add_argument("--val-set")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a checkpoint", parents=[common, policy])
    p.add_argument("--env-set")
    p.add_argument("--num-envs", type=at_least(1), default=100)
    p.add_argument("--out")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("baseline", help="evaluate a baseline scheduler", parents=[common])
    p.add_argument("--kind", choices=sorted(BASELINES), required=True)
    p.add_argument("--num-envs", type=at_least(1), default=100)
    p.add_argument("--out")
    p.set_defaults(func=cmd_baseline)

    analyze = sub.add_parser("analyze", help="interferer profile, decision log, pareto")
    targets = analyze.add_subparsers(dest="what", required=True)
    p = targets.add_parser("interferers", help="mean UE SINR vs nearest interferers",
                           parents=[common])
    p.add_argument("--realizations", type=at_least(1), default=20)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_analyze_interferers)
    p = targets.add_parser("decisions", help="per agent-interval decision log",
                           parents=[common, policy])
    p.add_argument("--num-envs", type=at_least(1), default=5)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_analyze_decisions)
    p = targets.add_parser("pareto", help="which eval CSVs Pareto-dominate which",
                           parents=[common])
    p.add_argument("--inputs", nargs="+", required=True)
    p.set_defaults(func=cmd_analyze_pareto)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args, *load_configs(args.config))
    except (ConfigError, ShapeMismatch, OSError, json.JSONDecodeError, UnicodeDecodeError) as e:
        _usage_error(str(e))
    return 0


if __name__ == "__main__":
    sys.exit(main())
