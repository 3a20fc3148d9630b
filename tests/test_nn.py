import json

import numpy as np
import pytest

from marlsched.nn import (
    AdamState, Mlp, PARAM_NAMES, ShapeMismatch, adam_update, load_checkpoint,
    save_checkpoint,
)


def small_net(seed=0, in_dim=5, out_dim=3, hidden=8, activation="tanh"):
    return Mlp(in_dim, out_dim, hidden, activation, np.random.default_rng(seed))


# --------------------------------------------------------------------- forward

def _loop_forward(net, x):
    """Scalar triple-loop oracle for the batched matrix forward pass."""
    act = np.tanh if net.activation == "tanh" else (lambda z: z)
    outs = []
    for row in np.atleast_2d(x):
        h = row
        for layer, has_act in [(1, True), (2, True), (3, False)]:
            w, b = net.params[f"w{layer}"], net.params[f"b{layer}"]
            nxt = np.empty(w.shape[1])
            for o in range(w.shape[1]):
                s = b[o]
                for i in range(w.shape[0]):
                    s += h[i] * w[i, o]
                nxt[o] = act(s) if has_act else s
            h = nxt
        outs.append(h)
    return np.array(outs)


def test_forward_matches_scalar_oracle():
    net = small_net(1)
    x = np.random.default_rng(2).normal(size=(7, 5))
    assert np.allclose(net.forward(x), _loop_forward(net, x), atol=1e-12)


def test_forward_accepts_single_row():
    net = small_net(3)
    x = np.random.default_rng(4).normal(size=5)
    assert np.allclose(net.forward(x), net.forward(x[None, :]))


def test_forward_shape_check():
    net = small_net(5)
    with pytest.raises(ShapeMismatch):
        net.forward(np.zeros((2, 6)))


def test_zeroed_net_outputs_zero():
    net = small_net(6)
    for k in net.params:
        net.params[k][:] = 0.0
    assert np.all(net.forward(np.ones((4, 5))) == 0.0)


def test_init_bounds_and_bias_zero():
    net = Mlp(10, 4, 128, rng=np.random.default_rng(7))
    bound1 = np.sqrt(6.0 / (10 + 128))
    assert np.all(np.abs(net.params["w1"]) <= bound1)
    assert np.abs(net.params["w1"]).max() > 0.5 * bound1   # actually spread out
    assert np.all(net.params["b1"] == 0) and np.all(net.params["b3"] == 0)


def test_param_count_depends_only_on_widths():
    count = Mlp(24, 4, 128, rng=np.random.default_rng(0)).num_params()
    assert count == 24 * 128 + 128 + 128 * 128 + 128 + 128 * 4 + 4
    for seed in (1, 2):
        assert Mlp(24, 4, 128, rng=np.random.default_rng(seed)).num_params() == count


# -------------------------------------------------------------------- backward

def test_linear_net_closed_form_gradient():
    # single linear layer stack: out = x W1 W2 W3 (+ biases); with unit
    # grad_out the weight gradients have closed forms
    net = small_net(8, activation="linear")
    x = np.random.default_rng(9).normal(size=(4, 5))
    net.forward(x, cache=True)
    grads = net.backward(np.ones((4, 3)))
    p = net.params
    expect_w3 = (x @ p["w1"] + p["b1"]) @ p["w2"] + p["b2"]
    assert np.allclose(grads["w3"], expect_w3.T @ np.ones((4, 3)) / 4)
    assert np.allclose(grads["b3"], np.ones(3))
    expect_w1 = x.T @ (np.ones((4, 3)) @ p["w3"].T @ p["w2"].T) / 4
    assert np.allclose(grads["w1"], expect_w1)


def _loss_and_grads(net, x, targets):
    out = net.forward(x, cache=True)
    diff = out - targets
    loss = np.mean(np.sum(diff ** 2, axis=1))
    return loss, net.backward(2.0 * diff)


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(10)
    net = small_net(11)
    x = rng.normal(size=(6, 5))
    targets = rng.normal(size=(6, 3))
    _, grads = _loss_and_grads(net, x, targets)
    h = 1e-5
    for name in PARAM_NAMES:
        p = net.params[name]
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + h
            up = _loss_and_grads(net, x, targets)[0]
            p[idx] = orig - h
            dn = _loss_and_grads(net, x, targets)[0]
            p[idx] = orig
            fd = (up - dn) / (2 * h)
            scale = max(abs(fd), abs(grads[name][idx]), 1e-8)
            assert abs(fd - grads[name][idx]) / scale < 1e-4, (name, idx)


def test_backward_batch_averaging():
    net = small_net(12)
    x = np.random.default_rng(13).normal(size=(8, 5))
    g = np.random.default_rng(14).normal(size=(8, 3))
    net.forward(x, cache=True)
    full = net.backward(g)
    per_example = []
    for b in range(8):
        net.forward(x[b:b + 1], cache=True)
        per_example.append(net.backward(g[b:b + 1]))
    for name in PARAM_NAMES:
        mean = np.mean([pe[name] for pe in per_example], axis=0)
        assert np.allclose(full[name], mean, atol=1e-12)


def test_backward_shape_check():
    net = small_net(15)
    net.forward(np.zeros((3, 5)), cache=True)
    with pytest.raises(ShapeMismatch):
        net.backward(np.zeros((2, 3)))


# ------------------------------------------------------------------------ Adam

def test_lr_schedule_halving():
    st = AdamState(base_lr=0.01, halving_period=5000)
    st.step = 0
    assert st.learning_rate() == pytest.approx(0.01)
    st.step = 4999
    assert st.learning_rate() == pytest.approx(0.01)
    st.step = 5000
    assert st.learning_rate() == pytest.approx(0.005)
    st.step = 10_000
    assert st.learning_rate() == pytest.approx(0.0025)


def test_adam_zero_grad_zero_l2_is_noop():
    net = small_net(16)
    before = {k: v.copy() for k, v in net.params.items()}
    zero = {k: np.zeros_like(v) for k, v in net.params.items()}
    st = AdamState()
    adam_update(net, zero, st, l2_coeff=0.0)
    for k in PARAM_NAMES:
        assert np.array_equal(net.params[k], before[k])
    assert st.step == 1


def test_adam_first_step_is_signed_lr():
    # with fresh moments, one Adam step moves each weight by ~lr * sign(g)
    net = small_net(17)
    before = {k: v.copy() for k, v in net.params.items()}
    grads = {k: np.random.default_rng(18).normal(size=v.shape)
             for k, v in net.params.items()}
    st = AdamState(base_lr=0.01)
    adam_update(net, grads, st, l2_coeff=0.0)
    for k in PARAM_NAMES:
        delta = net.params[k] - before[k]
        assert np.allclose(delta, -0.01 * np.sign(grads[k]), atol=1e-4)


def test_adam_l2_shrinks_weights_toward_zero():
    net = small_net(19)
    zero = {k: np.zeros_like(v) for k, v in net.params.items()}
    st = AdamState(base_lr=0.001)
    norm0 = np.linalg.norm(net.params["w1"])
    for _ in range(200):
        adam_update(net, zero, st, l2_coeff=0.01)
    assert np.linalg.norm(net.params["w1"]) < norm0


def test_adam_minimizes_quadratic():
    # drive the net output toward fixed targets; loss must drop a lot
    rng = np.random.default_rng(20)
    net = small_net(21)
    x = rng.normal(size=(16, 5))
    targets = rng.normal(size=(16, 3))
    st = AdamState(base_lr=0.01)
    first, _ = _loss_and_grads(net, x, targets)
    for _ in range(500):
        _, grads = _loss_and_grads(net, x, targets)
        adam_update(net, grads, st, l2_coeff=0.0)
    last, _ = _loss_and_grads(net, x, targets)
    assert last < 0.05 * first


def test_training_is_deterministic():
    def run():
        net = small_net(22)
        st = AdamState()
        x = np.random.default_rng(23).normal(size=(4, 5))
        tg = np.random.default_rng(24).normal(size=(4, 3))
        for _ in range(20):
            _, grads = _loss_and_grads(net, x, tg)
            adam_update(net, grads, st, l2_coeff=0.001)
        return net.forward(x)

    assert np.array_equal(run(), run())


# ------------------------------------------------------------------ copy / io

def test_copy_is_independent():
    net = small_net(25)
    clone = net.copy()
    clone.params["w1"][:] = 0.0
    assert not np.array_equal(net.params["w1"], clone.params["w1"])
    assert np.array_equal(net.params["w2"], clone.params["w2"])


def test_set_params_copies():
    net, donor = small_net(26), small_net(27)
    net.set_params(donor.params)
    assert np.array_equal(net.params["w1"], donor.params["w1"])
    donor.params["w1"][:] = 9.0
    assert not np.array_equal(net.params["w1"], donor.params["w1"])


def test_checkpoint_roundtrip(tmp_path):
    net = small_net(28)
    path = tmp_path / "net.ckpt"
    save_checkpoint(path, net, step=123, extra={"note": "x"})
    loaded, header = load_checkpoint(path)
    assert header["step"] == 123
    assert header["extra"] == {"note": "x"}
    x = np.random.default_rng(29).normal(size=(5, 5))
    assert np.array_equal(net.forward(x), loaded.forward(x))
    for k in PARAM_NAMES:
        assert np.array_equal(net.params[k], loaded.params[k])


def _rewrite_checkpoint(path, edit_header=None, tail=b"", cut=0):
    with open(path, "rb") as f:
        header = json.loads(f.readline())
        blob = f.read()
    if edit_header:
        edit_header(header)
    with open(path, "wb") as f:
        f.write(json.dumps(header).encode() + b"\n" + blob[:len(blob) - cut] + tail)


@pytest.mark.parametrize("edit", [
    {"tail": b"\x00" * 8},                                        # trailing bytes
    {"cut": 8},                                                   # truncated
    {"edit_header": lambda h: h.update(in_dim=5)},                # in_dim 5, w1 (4, 8)
    {"edit_header": lambda h: h["shapes"].update(b3=[3, 1])},     # shapes vs out_dim
    {"edit_header": lambda h: h.update(param_order=["w1", "b1"])},
], ids=["trailing-bytes", "truncated", "in_dim", "out_dim", "param-order"])
def test_checkpoint_rejects_malformed_files(tmp_path, edit):
    path = tmp_path / "net.ckpt"
    save_checkpoint(path, Mlp(4, 3, hidden=8, rng=np.random.default_rng(0)))
    _rewrite_checkpoint(path, **edit)
    with pytest.raises(ShapeMismatch):
        load_checkpoint(path)
