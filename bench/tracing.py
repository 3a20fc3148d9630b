"""Spans around the calls into marlsched's modules, recorded from outside.

Each traced function is replaced, where its caller looks it up, by a wrapper
that records a span (name, parent span, start, end). Spans stay in memory
until the run ends; `summary` then turns them into per-function metrics.
A span's self time is its duration minus the durations of its direct
children (single-threaded code, so children never overlap).

Counts that describe the work done (cosines, rows, bytes, intervals) are
computed here from the arguments and shapes, not read from the program, so
they repeat exactly for a fixed workload seed.
"""

from __future__ import annotations

import math
import os
import time
from collections import Counter

# Functions reported per call; nn.Mlp.forward is split by the ancestor span
# that caused it: acting (dqn.select_actions) or learning (dqn.train_step).
FUNCTIONS = (
    "channel.FadingProcess.sample_all",
    "env.NetworkEnv.reset",
    "env.NetworkEnv.step",
    "env.NetworkEnv.step_decisions",
    "env.NetworkEnv.compute_reward",
    "linklevel.compute_rates",
    "linklevel.update_link_stats",
    "baselines.full_reuse_decide",
    "baselines.tdm_decide",
    "baselines.itlinq_decide",
    "normalize.PercentileMapper.map_observation_vector",
    "nn.Mlp.forward.act",
    "nn.Mlp.forward.learn",
    "nn.Mlp.backward",
    "nn.adam_update",
    "nn.save_checkpoint",
    "dqn.ReplayBuffer.push",
    "dqn.ReplayBuffer.sample",
    "dqn.compute_double_dqn_targets",
    "dqn.train_step",
    "dqn.select_actions",
    "harness.evaluate_policy",
)

# (suffix, unit, better) of the metrics reported for every function.
FUNCTION_STATS = (
    ("calls", "count", "lower"),
    ("self_s", "s", "lower"),
    ("p50_us", "us", "lower"),
    ("tail_us", "us", "lower"),
    ("tail_pct", "%", "higher"),
)

# (name, unit, better) of the work counts and useful-over-attempted ratios.
COUNTS = (
    ("channel.FadingProcess.sample_all.cosines", "count", "lower"),
    ("nn.Mlp.forward.rows", "count", "lower"),
    ("nn.Mlp.forward.flops", "count", "lower"),
    ("dqn.ReplayBuffer.sample.rows", "count", "lower"),
    ("nn.save_checkpoint.bytes", "count", "lower"),
    ("env.intervals", "count", "higher"),
    ("env.invalid_share", "share", "lower"),
    ("env.all_off_share", "share", "lower"),
    ("baselines.itlinq.admitted_share", "share", "higher"),
)

# (name, unit, better) of the tracing overhead, which the caller measures by
# running each unit untraced and traced.
OVERHEAD = (
    ("trace.intervals_per_s.overhead", "1/s", "lower"),
    ("trace.wall_s.overhead", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
)

# Highest of these percentiles with at least TAIL_BEYOND calls above it.
TAIL_LADDER = (99.99, 99.9, 99.0, 90.0, 50.0)
TAIL_BEYOND = 10

_FORWARD_PARENTS = (("dqn.train_step", "learn"), ("dqn.select_actions", "act"))


def metric_specs():
    """(name, unit, better) of every per-layer metric, in BENCHMARK.json order."""
    specs = [(f"{fn}.{suffix}", unit, better)
             for fn in FUNCTIONS for suffix, unit, better in FUNCTION_STATS]
    return specs + list(COUNTS) + list(OVERHEAD)


# ------------------------------------------------------------ count hooks

def _count_cosines(counts, args, kwargs, result):
    counts["cosines"] += 2 * args[0].cos_alpha.size


def _count_interval(counts, args, kwargs, result):
    decisions = args[1]
    invalid = args[2] if len(args) > 2 else kwargs.get("invalid")
    counts["intervals"] += 1
    counts["all_off"] += all(d.off for d in decisions)
    if invalid is not None:
        counts["actions"] += len(invalid)
        counts["invalid"] += sum(bool(b) for b in invalid)


def _count_admitted(counts, args, kwargs, result):
    counts["itlinq_slots"] += len(result)
    counts["itlinq_admitted"] += sum(not d.off for d in result)


def _count_forward(counts, args, kwargs, result):
    net, rows = args[0], result.shape[0]
    counts["forward_rows"] += rows
    per_row = net.in_dim * net.hidden + net.hidden * net.hidden + net.hidden * net.out_dim
    counts["forward_flops"] += 2 * rows * per_row


def _count_sample_rows(counts, args, kwargs, result):
    counts["sample_rows"] += sum(tr.obs.shape[0] for tr in result)


def _count_checkpoint_bytes(counts, args, kwargs, result):
    counts["checkpoint_bytes"] += os.path.getsize(args[0])


# -------------------------------------------------------------------- tracer

class Tracer:
    """Installs span-recording wrappers; `remove` puts the originals back."""

    def __init__(self):
        self.spans: list = []      # (name, parent index or -1, start, end)
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list = []

    def install(self):
        from marlsched import baselines, channel, dqn, env, harness, linklevel, nn, normalize

        wrap = self._wrap
        wrap(channel.FadingProcess, "sample_all", "channel.FadingProcess.sample_all",
             _count_cosines)
        wrap(env.NetworkEnv, "reset", "env.NetworkEnv.reset")
        wrap(env.NetworkEnv, "step", "env.NetworkEnv.step")
        wrap(env.NetworkEnv, "step_decisions", "env.NetworkEnv.step_decisions",
             _count_interval)
        wrap(env.NetworkEnv, "compute_reward", "env.NetworkEnv.compute_reward")
        # env calls these through the linklevel module
        wrap(linklevel, "compute_rates", "linklevel.compute_rates")
        wrap(linklevel, "update_link_stats", "linklevel.update_link_stats")
        # BaselinePolicy and collect_offline_dataset look deciders up here
        wrap(baselines.BASELINES, "full_reuse", "baselines.full_reuse_decide")
        wrap(baselines.BASELINES, "tdm", "baselines.tdm_decide")
        wrap(baselines.BASELINES, "itlinq", "baselines.itlinq_decide", _count_admitted)
        wrap(normalize.PercentileMapper, "map_observation_vector",
             "normalize.PercentileMapper.map_observation_vector")
        wrap(nn.Mlp, "forward", "nn.Mlp.forward", _count_forward)
        wrap(nn.Mlp, "backward", "nn.Mlp.backward")
        # dqn imported these names from nn
        wrap(dqn, "adam_update", "nn.adam_update")
        wrap(dqn, "save_checkpoint", "nn.save_checkpoint", _count_checkpoint_bytes)
        wrap(dqn.ReplayBuffer, "push", "dqn.ReplayBuffer.push")
        wrap(dqn.ReplayBuffer, "sample", "dqn.ReplayBuffer.sample", _count_sample_rows)
        wrap(dqn, "compute_double_dqn_targets", "dqn.compute_double_dqn_targets")
        wrap(dqn, "train_step", "dqn.train_step")
        wrap(dqn, "select_actions", "dqn.select_actions")
        # dqn.run_training and the benchmark call it through the harness module
        wrap(harness, "evaluate_policy", "harness.evaluate_policy")

    def remove(self):
        for owner, attr, original in reversed(self._undo):
            _set(owner, attr, original)
        self._undo.clear()

    def _wrap(self, owner, attr, name, count=None):
        original = owner[attr] if isinstance(owner, dict) else vars(owner)[attr]
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, parent, start, end)
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        _set(owner, attr, traced)
        self._undo.append((owner, attr, original))

    # ---------------------------------------------------------------- summary

    def summary(self) -> dict:
        """Per-function calls, self time, median and tail durations, plus counts."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, parent, start, end in spans:
            if parent >= 0:
                child_time[parent] += end - start
        durations: dict[str, list[float]] = {fn: [] for fn in FUNCTIONS}
        self_time: dict[str, float] = dict.fromkeys(FUNCTIONS, 0.0)
        for index, (name, parent, start, end) in enumerate(spans):
            label = _forward_label(spans, parent) if name == "nn.Mlp.forward" else name
            if label not in durations:
                continue
            durations[label].append(end - start)
            self_time[label] += end - start - child_time[index]

        units = {name: unit for name, unit, _ in metric_specs()}
        values = {}
        for fn in FUNCTIONS:
            d = sorted(durations[fn])
            pct, tail = _tail(d)
            values[f"{fn}.calls"] = len(d)
            values[f"{fn}.self_s"] = self_time[fn]
            values[f"{fn}.p50_us"] = _nearest_rank(d, 50.0) * 1e6 if d else 0.0
            values[f"{fn}.tail_us"] = tail * 1e6
            values[f"{fn}.tail_pct"] = pct
        c = self.counts
        values["channel.FadingProcess.sample_all.cosines"] = c["cosines"]
        values["nn.Mlp.forward.rows"] = c["forward_rows"]
        values["nn.Mlp.forward.flops"] = c["forward_flops"]
        values["dqn.ReplayBuffer.sample.rows"] = c["sample_rows"]
        values["nn.save_checkpoint.bytes"] = c["checkpoint_bytes"]
        values["env.intervals"] = c["intervals"]
        values["env.invalid_share"] = _share(c["invalid"], c["actions"])
        values["env.all_off_share"] = _share(c["all_off"], c["intervals"])
        values["baselines.itlinq.admitted_share"] = _share(c["itlinq_admitted"],
                                                           c["itlinq_slots"])
        return {name: {"value": v, "unit": units[name]} for name, v in values.items()}


def _set(owner, attr, value):
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


def _forward_label(spans, parent):
    while parent >= 0:
        for ancestor, role in _FORWARD_PARENTS:
            if spans[parent][0] == ancestor:
                return f"nn.Mlp.forward.{role}"
        parent = spans[parent][1]
    return "nn.Mlp.forward"


def _nearest_rank(sorted_values, pct):
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def _tail(sorted_values):
    """(percentile, value) of the highest ladder percentile with enough calls
    beyond it; (0, 0) when there are too few calls for any of them."""
    n = len(sorted_values)
    for pct in TAIL_LADDER:
        rank = max(1, math.ceil(pct / 100.0 * n))
        if n - rank >= TAIL_BEYOND:
            return pct, sorted_values[rank - 1]
    return 0.0, 0.0


def _share(part, whole):
    return part / whole if whole else 0.0
