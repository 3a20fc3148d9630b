"""The benchmark's tracer still reaches every layer it reports.

bench/tracing.py replaces marlsched functions by name, where their callers
look them up. A rename or a new call path in src/ would leave a per-layer
metric at zero without failing anything but the slow bench/smoke.py. This
runs every layer once on a tiny network with the tracer installed.
"""

import numpy as np
import pytest

from marlsched import baselines, channel, dqn, env, harness, linklevel, nn, normalize
from marlsched.dqn import TrainerConfig
from marlsched.env import EnvConfig
from marlsched.topology import DeploymentConfig

T = 30


@pytest.fixture
def tracing(monkeypatch, request):
    monkeypatch.syspath_prepend(str(request.config.rootpath / "bench"))
    import tracing
    return tracing


def _attrs(owner):
    return dict(owner) if isinstance(owner, dict) else dict(vars(owner))


def test_tracer_reaches_every_layer_and_restores_originals(tracing):
    cfg = EnvConfig(deployment=DeploymentConfig(num_aps=2, num_ues=6), episode_length=T)
    tcfg = TrainerConfig(num_envs=2, episodes=2, epoch_episodes=2, buffer_capacity=100,
                         batch_timesteps=8, target_sync_intervals=20,
                         train_period_intervals=10, epsilon_decay_episodes=2)
    owners = [channel.FadingProcess, env.NetworkEnv, linklevel, baselines.BASELINES,
              normalize.PercentileMapper, nn.Mlp, dqn, dqn.ReplayBuffer, harness]
    before = [_attrs(owner) for owner in owners]

    tracer = tracing.Tracer()
    tracer.install()
    try:
        for name in ("full_reuse", "tdm", "itlinq"):
            harness.evaluate_policy(cfg, harness.BaselinePolicy(name), [0])
        harness.evaluate_policy(cfg, harness.RandomPolicy(0), [1])
        dataset = normalize.collect_offline_dataset(
            cfg, ["full_reuse"], 1, np.random.default_rng(2))
        mapper, rnorm = normalize.fit(dataset, 20)
        dqn.run_training(cfg, tcfg, mapper, rnorm, validation_seeds=[3], seed=4)
    finally:
        tracer.remove()

    summary = tracer.summary()
    uncalled = [fn for fn in tracing.FUNCTIONS
                if fn != "nn.save_checkpoint" and summary[f"{fn}.calls"]["value"] == 0]
    assert uncalled == []
    # 3 baselines + random policy + offline collection, one episode each;
    # 2 training episodes and 1 validation episode
    assert summary["env.intervals"]["value"] == (3 + 1 + 1 + 2 + 1) * T
    for owner, saved in zip(owners, before):
        now = _attrs(owner)
        assert now.keys() == saved.keys()
        assert all(now[k] is saved[k] for k in saved)
