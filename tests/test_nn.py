import json

import numpy as np
import pytest

from marlsched.nn import (
    AdamState, Mlp, PARAM_NAMES, ShapeMismatch, adam_update, load_checkpoint,
    save_checkpoint,
)


def small_net(seed=0, in_dim=5, out_dim=3, hidden=8):
    return Mlp(in_dim, out_dim, hidden, np.random.default_rng(seed))


# --------------------------------------------------------------------- forward

def _loop_forward(net, x):
    """Scalar triple-loop oracle for the batched matrix forward pass."""
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
                nxt[o] = np.tanh(s) if has_act else s
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


def test_backward_consumes_its_cache():
    """The backward overwrites the cached activations, so a second backward
    (or one after a plain forward only) raises instead of returning gradients
    of spent buffers; a rejected output gradient leaves the cache usable."""
    net = small_net(16)
    x = np.random.default_rng(17).normal(size=(4, 5))
    g = np.random.default_rng(18).normal(size=(4, 3))
    with pytest.raises(RuntimeError, match="forward"):
        net.backward(g)
    net.forward(x, cache=True)
    with pytest.raises(ShapeMismatch):
        net.backward(g[:2])
    first = net.backward(g)
    with pytest.raises(RuntimeError, match="consumed"):
        net.backward(g)
    net.forward(x)
    with pytest.raises(RuntimeError, match="consumed"):
        net.backward(g)
    net.forward(x, cache=True)
    again = net.backward(g)
    assert all(np.array_equal(first[k], again[k]) for k in PARAM_NAMES)


def test_forward_with_other_params_cannot_be_cached():
    """Gradients of a forward with another network's params would belong to
    that network, which backward cannot update; such a forward is plain."""
    net, other = small_net(19), small_net(20)
    x = np.random.default_rng(21).normal(size=(4, 5))
    with pytest.raises(ValueError, match="cannot be cached"):
        net.forward(x, cache=True, params=other.params)
    assert np.array_equal(net.forward(x, params=other.params), other.forward(x))


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


def test_copy_shares_no_workspace():
    net = small_net(26)
    rng = np.random.default_rng(27)
    x, y = rng.normal(size=(6, 5)), rng.normal(size=(9, 5))
    gx, gy = rng.normal(size=(6, 3)), rng.normal(size=(9, 3))
    want = net.copy()
    want.forward(x, cache=True)
    want = want.backward(gx)
    net.forward(x, cache=True)
    clone = net.copy()
    clone.forward(y, cache=True)
    clone.backward(gy)
    got = net.backward(gx)
    assert all(np.array_equal(got[k], want[k]) for k in PARAM_NAMES)


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


@pytest.mark.parametrize("edit, names", [
    ({"tail": b"\x00" * 8}, None),                                      # trailing bytes
    ({"cut": 8}, None),                                                 # truncated
    ({"edit_header": lambda h: h.update(in_dim=5)}, None),              # in_dim 5, w1 (4, 8)
    ({"edit_header": lambda h: h["shapes"].update(b3=[3, 1])}, None),   # shapes vs out_dim
    ({"edit_header": lambda h: h.update(param_order=["w1", "b1"])}, None),
    ({"edit_header": lambda h: h.update(activation="linear")}, None),   # tanh only
    ({"edit_header": lambda h: h.pop("shapes")}, "shapes"),             # missing field
    ({"edit_header": lambda h: h.update(param_order=h["param_order"][::-1])},
     "parameters"),                                                     # would scramble
    ({"edit_header": lambda h: h.update(hidden=8.0)}, "hidden"),
    ({"edit_header": lambda h: h.update(in_dim=-1)}, "in_dim"),
    ({"edit_header": lambda h: h.update(in_dim="4")}, "in_dim"),
    ({"edit_header": lambda h: h.update(hidden=True)}, "hidden"),
    ({"edit_header": lambda h: h.update(shapes=[])}, "shapes"),
], ids=["trailing-bytes", "truncated", "in_dim", "out_dim", "param-order",
        "activation", "no-shapes", "param-order-reversed", "float-hidden",
        "negative-in_dim", "string-in_dim", "bool-hidden", "shapes-list"])
def test_checkpoint_rejects_malformed_files(tmp_path, edit, names):
    path = tmp_path / "net.ckpt"
    save_checkpoint(path, Mlp(4, 3, hidden=8, rng=np.random.default_rng(0)))
    _rewrite_checkpoint(path, **edit)
    with pytest.raises(ShapeMismatch, match=names):
        load_checkpoint(path)


@pytest.mark.parametrize("header", [b"5", b"null", b"[1, 2]"])
def test_checkpoint_header_must_be_an_object(tmp_path, header):
    path = tmp_path / "net.ckpt"
    path.write_bytes(header + b"\n")
    with pytest.raises(ShapeMismatch, match="header must be a JSON object"):
        load_checkpoint(path)
