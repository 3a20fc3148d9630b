"""Small feed-forward Q-network: 2 tanh hidden layers, exact backprop, Adam."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np


class ShapeMismatch(ValueError):
    pass


PARAM_NAMES = ("w1", "b1", "w2", "b2", "w3", "b3")


class Mlp:
    """in -> hidden -> hidden -> out with tanh activations, linear head.

    activation="linear" disables the nonlinearities (test mode only).
    """

    def __init__(self, in_dim: int, out_dim: int, hidden: int = 128,
                 activation: str = "tanh", rng: np.random.Generator | None = None):
        if activation not in ("tanh", "linear"):
            raise ValueError("activation must be 'tanh' or 'linear'")
        self.in_dim, self.out_dim, self.hidden = in_dim, out_dim, hidden
        self.activation = activation
        rng = rng or np.random.default_rng()
        self.params = {}
        dims = [(in_dim, hidden), (hidden, hidden), (hidden, out_dim)]
        for idx, (fan_in, fan_out) in enumerate(dims, start=1):
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            self.params[f"w{idx}"] = rng.uniform(-bound, bound, size=(fan_in, fan_out))
            self.params[f"b{idx}"] = np.zeros(fan_out)

    def _act(self, z):
        return np.tanh(z) if self.activation == "tanh" else z

    def _act_grad(self, a):
        return 1.0 - a ** 2 if self.activation == "tanh" else np.ones_like(a)

    def forward(self, x: np.ndarray, cache: bool = False):
        """Batched forward pass; x is (B, in_dim). Returns (B, out_dim)."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[1] != self.in_dim:
            raise ShapeMismatch(f"expected input width {self.in_dim}, got {x.shape[1]}")
        p = self.params
        a1 = self._act(x @ p["w1"] + p["b1"])
        a2 = self._act(a1 @ p["w2"] + p["b2"])
        out = a2 @ p["w3"] + p["b3"]
        if cache:
            self._cache = (x, a1, a2)
        return out

    def backward(self, grad_out: np.ndarray) -> dict:
        """Gradients w.r.t. all parameters, averaged over the batch.

        grad_out holds d(per-example loss)/d(output); forward(..., cache=True)
        must have been called on the same batch.
        """
        x, a1, a2 = self._cache
        grad_out = np.atleast_2d(grad_out)
        if grad_out.shape != (x.shape[0], self.out_dim):
            raise ShapeMismatch("output gradient shape does not match the cached batch")
        batch = x.shape[0]
        p = self.params
        g = grad_out / batch
        grads = {"w3": a2.T @ g, "b3": g.sum(axis=0)}
        d2 = (g @ p["w3"].T) * self._act_grad(a2)
        grads["w2"] = a1.T @ d2
        grads["b2"] = d2.sum(axis=0)
        d1 = (d2 @ p["w2"].T) * self._act_grad(a1)
        grads["w1"] = x.T @ d1
        grads["b1"] = d1.sum(axis=0)
        return grads

    def num_params(self) -> int:
        return sum(v.size for v in self.params.values())

    def copy(self) -> "Mlp":
        clone = Mlp.__new__(Mlp)
        clone.in_dim, clone.out_dim, clone.hidden = self.in_dim, self.out_dim, self.hidden
        clone.activation = self.activation
        clone.params = {k: v.copy() for k, v in self.params.items()}
        return clone

    def set_params(self, params: dict) -> None:
        for k in PARAM_NAMES:
            self.params[k] = params[k].copy()


@dataclass
class AdamState:
    """Adam moments plus the halving learning-rate schedule."""

    base_lr: float = 0.01
    halving_period: int = 5000
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)

    def learning_rate(self) -> float:
        return self.base_lr * 0.5 ** (self.step // self.halving_period)


def adam_update(net: Mlp, grads: dict, state: AdamState, l2_coeff: float = 0.0) -> None:
    """One Adam step on (grad + l2 * param), in place."""
    lr = state.learning_rate()
    t = state.step + 1
    for name, p in net.params.items():
        g = grads[name] + l2_coeff * p
        if name not in state.m:
            state.m[name] = np.zeros_like(p)
            state.v[name] = np.zeros_like(p)
        state.m[name] = state.beta1 * state.m[name] + (1 - state.beta1) * g
        state.v[name] = state.beta2 * state.v[name] + (1 - state.beta2) * g ** 2
        m_hat = state.m[name] / (1 - state.beta1 ** t)
        v_hat = state.v[name] / (1 - state.beta2 ** t)
        p -= lr * m_hat / (np.sqrt(v_hat) + state.eps)
    state.step = t


# ---------------------------------------------------------------- checkpoints

def save_checkpoint(path, net: Mlp, step: int = 0, extra: dict | None = None) -> None:
    """JSON header line followed by the flat little-endian float64 parameters."""
    header = {
        "in_dim": net.in_dim, "out_dim": net.out_dim, "hidden": net.hidden,
        "activation": net.activation, "step": step,
        "param_order": list(PARAM_NAMES),
        "shapes": {k: list(net.params[k].shape) for k in PARAM_NAMES},
    }
    if extra:
        header["extra"] = extra
    with open(path, "wb") as f:
        f.write(json.dumps(header).encode("utf-8") + b"\n")
        for k in PARAM_NAMES:
            f.write(net.params[k].astype("<f8").tobytes())


def load_checkpoint(path):
    """Read a save_checkpoint file back into (net, header).

    Raises ShapeMismatch when the header's shapes disagree with its
    in_dim/hidden/out_dim, or the parameter bytes with those shapes.
    """
    with open(path, "rb") as f:
        header = json.loads(f.readline().decode("utf-8"))
        blob = f.read()
    net = Mlp(header["in_dim"], header["out_dim"], header["hidden"],
              activation=header["activation"])
    if sorted(header["param_order"]) != sorted(PARAM_NAMES):
        raise ShapeMismatch(f"parameters {header['param_order']} are not {list(PARAM_NAMES)}")
    for k in PARAM_NAMES:
        if tuple(header["shapes"][k]) != net.params[k].shape:
            raise ShapeMismatch(f"{k} has shape {header['shapes'][k]}; the header's "
                                f"widths need {list(net.params[k].shape)}")
    if len(blob) != 8 * net.num_params():
        raise ShapeMismatch(f"{len(blob)} parameter bytes; the header's shapes "
                            f"need {8 * net.num_params()}")
    offset = 0
    for k in header["param_order"]:
        shape = net.params[k].shape
        n = int(np.prod(shape))
        net.params[k] = np.frombuffer(
            blob, dtype="<f8", count=n, offset=offset).reshape(shape).copy()
        offset += n * 8
    return net, header
