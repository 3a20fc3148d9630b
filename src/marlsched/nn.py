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

    An instance is single-writer. forward and backward write the hidden
    activations into one (3, rows, hidden) workspace the instance keeps,
    created on first use and grown to the largest batch seen. A plain forward
    uses its first two slots and drops any pending cache, so only
    forward(cache=True) followed directly by backward yields gradients. A
    forward with another network's params is a plain forward through this
    workspace, so a network only ever evaluated that way (a double-DQN
    target) holds none. Each returned array is the caller's own. copy()
    copies the parameters only.
    """

    def __init__(self, in_dim: int, out_dim: int, hidden: int = 128,
                 rng: np.random.Generator | None = None):
        self.in_dim, self.out_dim, self.hidden = in_dim, out_dim, hidden
        rng = rng or np.random.default_rng()
        self.params = {}
        dims = [(in_dim, hidden), (hidden, hidden), (hidden, out_dim)]
        for idx, (fan_in, fan_out) in enumerate(dims, start=1):
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            self.params[f"w{idx}"] = rng.uniform(-bound, bound, size=(fan_in, fan_out))
            self.params[f"b{idx}"] = np.zeros(fan_out)
        self._ws = None
        self._cache = None

    def forward(self, x: np.ndarray, cache: bool = False, params: dict | None = None):
        """Batched forward pass; x is (B, in_dim). Returns (B, out_dim).

        params, a parameter dict of this network's shapes, is evaluated
        instead of self.params; such a forward cannot be cached.
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[1] != self.in_dim:
            raise ShapeMismatch(f"expected input width {self.in_dim}, got {x.shape[1]}")
        if cache and params is not None:
            raise ValueError("a forward with other params cannot be cached for backward")
        p = self.params if params is None else params
        if self._ws is None or self._ws.shape[1] < len(x):
            self._ws = np.empty((3, len(x), self.hidden))
        ws = self._ws[:, :len(x)]   # each ws[i] is contiguous
        a1, a2 = ws[0], ws[1]
        np.matmul(x, p["w1"], out=a1)
        a1 += p["b1"]
        np.tanh(a1, out=a1)
        np.matmul(a1, p["w2"], out=a2)
        a2 += p["b2"]
        np.tanh(a2, out=a2)
        out = a2 @ p["w3"]
        out += p["b3"]
        self._cache = (x, ws) if cache else None
        return out

    def backward(self, grad_out: np.ndarray) -> dict:
        """Gradients w.r.t. all parameters, averaged over the batch.

        grad_out holds d(per-example loss)/d(output) of the last forward, which
        must have had cache=True; the backward overwrites its activations.
        """
        if self._cache is None:
            raise RuntimeError("backward needs the forward(..., cache=True) just before it; "
                               "a backward or plain forward since consumed its activations")
        x, (a1, a2, d) = self._cache
        grad_out = np.atleast_2d(grad_out)
        if grad_out.shape != (x.shape[0], self.out_dim):
            raise ShapeMismatch("output gradient shape does not match the cached batch")
        self._cache = None
        batch = x.shape[0]
        p = self.params
        g = grad_out / batch
        grads = {"w3": a2.T @ g, "b3": g.sum(axis=0)}
        # d2 = (g @ w3.T) * (1 - a2**2), in the spare slot
        np.matmul(g, p["w3"].T, out=d)
        np.square(a2, out=a2)
        np.subtract(1.0, a2, out=a2)
        d *= a2
        grads["w2"] = a1.T @ d
        grads["b2"] = d.sum(axis=0)
        # d1 = (d2 @ w2.T) * (1 - a1**2), in the spent a2 slot
        np.matmul(d, p["w2"].T, out=a2)
        np.square(a1, out=a1)
        np.subtract(1.0, a1, out=a1)
        a2 *= a1
        grads["w1"] = x.T @ a2
        grads["b1"] = a2.sum(axis=0)
        return grads

    def num_params(self) -> int:
        return sum(v.size for v in self.params.values())

    def copy(self) -> "Mlp":
        clone = Mlp(self.in_dim, self.out_dim, self.hidden)
        clone.load_params(self.params)
        return clone

    def load_params(self, params: dict) -> None:
        """Copy params into this network's arrays in place; the workspace stays."""
        for k, v in params.items():
            np.copyto(self.params[k], v)


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
        if name not in state.m:
            state.m[name] = np.zeros_like(p)
            state.v[name] = np.zeros_like(p)
        m, v = state.m[name], state.v[name]
        # m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g**2, p -= lr*m_hat/(sqrt(v_hat)+eps)
        # with the operations in that order, so the bits are the allocating form's
        g = l2_coeff * p
        np.add(grads[name], g, out=g)
        u = np.multiply(g, 1 - state.beta1)
        m *= state.beta1
        m += u
        np.square(g, out=g)
        g *= 1 - state.beta2
        v *= state.beta2
        v += g
        np.divide(m, 1 - state.beta1 ** t, out=u)
        u *= lr
        np.divide(v, 1 - state.beta2 ** t, out=g)
        np.sqrt(g, out=g)
        g += state.eps
        u /= g
        p -= u
    state.step = t


# ---------------------------------------------------------------- checkpoints

def save_checkpoint(path, net: Mlp, step: int = 0, extra: dict | None = None) -> None:
    """JSON header line followed by the flat little-endian float64 parameters."""
    header = {
        "in_dim": net.in_dim, "out_dim": net.out_dim, "hidden": net.hidden,
        "activation": "tanh", "step": step,
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

    Raises ShapeMismatch when the header is not a UTF-8 JSON object, lacks a
    field, has widths that are not positive ints, names an activation other
    than tanh or a param_order other than PARAM_NAMES (the order the bytes are
    read in), or shapes other than its widths need, or when the parameter
    bytes disagree with them.
    """
    with open(path, "rb") as f:
        line, blob = f.readline(), f.read()
    try:
        text = line.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ShapeMismatch(f"checkpoint header is not UTF-8: {e}") from None
    header = json.loads(text)
    if not isinstance(header, dict):
        raise ShapeMismatch(f"checkpoint header must be a JSON object, got {header!r}")
    missing = [k for k in ("in_dim", "out_dim", "hidden", "activation", "param_order",
                           "shapes") if k not in header]
    if missing:
        raise ShapeMismatch(f"checkpoint header lacks {', '.join(missing)}")
    for k in ("in_dim", "out_dim", "hidden"):
        if type(header[k]) is not int or header[k] < 1:
            raise ShapeMismatch(f"{k} must be a positive int, got {header[k]!r}")
    if header["activation"] != "tanh":
        raise ShapeMismatch(f"activation {header['activation']!r} is not 'tanh'")
    net = Mlp(header["in_dim"], header["out_dim"], header["hidden"])
    if header["param_order"] != list(PARAM_NAMES):
        raise ShapeMismatch(f"parameters {header['param_order']} are not {list(PARAM_NAMES)}")
    shapes = {k: list(net.params[k].shape) for k in PARAM_NAMES}
    if header["shapes"] != shapes:
        raise ShapeMismatch(f"shapes {header['shapes']}; the header's widths need {shapes}")
    if len(blob) != 8 * net.num_params():
        raise ShapeMismatch(f"{len(blob)} parameter bytes; the header's shapes "
                            f"need {8 * net.num_params()}")
    flat = np.frombuffer(blob, dtype="<f8")
    ends = np.cumsum([net.params[k].size for k in PARAM_NAMES])
    for k, part in zip(PARAM_NAMES, np.split(flat, ends[:-1])):
        net.params[k] = part.reshape(net.params[k].shape).copy()
    return net, header
