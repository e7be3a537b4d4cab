"""Parameter containers and the small layer zoo used by every model.

Attribute assignment registers Tensors as parameters and Modules as
children, in assignment order, which fixes the iteration order of
``named_parameters`` and therefore checkpoint layout and optimizer
update order.
"""

from __future__ import annotations

import math

import numpy as np

from .rng import RngState
from .tensor import Tensor, add, embedding, gru_cell, layer_norm, matmul

EMBEDDING_STD = 0.02


class Module:
    def __init__(self):
        object.__setattr__(self, "_params", {})
        object.__setattr__(self, "_children", {})
        object.__setattr__(self, "training", True)

    def __setattr__(self, name, value):
        if isinstance(value, Tensor):
            self._params[name] = value
        elif isinstance(value, Module):
            self._children[name] = value
        object.__setattr__(self, name, value)

    def named_parameters(self, prefix: str = ""):
        for k, p in self._params.items():
            yield (prefix + k, p)
        for k, child in self._children.items():
            yield from child.named_parameters(prefix + k + ".")

    def parameters(self):
        for _, p in self.named_parameters():
            yield p

    def modules(self):
        yield self
        for child in self._children.values():
            yield from child.modules()

    def train(self, flag: bool = True):
        for m in self.modules():
            object.__setattr__(m, "training", flag)
        return self

    def eval(self):
        return self.train(False)

    def zero_grad(self):
        for p in self.parameters():
            p.grad = None

    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]):
        load_parameters(dict(self.named_parameters()), state)
        return self


def load_parameters(own: dict[str, Tensor], state: dict[str, np.ndarray]) -> None:
    """Copy ``state`` into the tensors ``own`` names. A name missing from
    either side raises KeyError, an array of another shape ValueError."""
    missing = sorted(set(own) - set(state))
    extra = sorted(set(state) - set(own))
    if missing or extra:
        raise KeyError(f"state mismatch, missing={missing}, unexpected={extra}")
    for name, p in own.items():
        arr = np.asarray(state[name])
        if arr.shape != p.data.shape:
            raise ValueError(f"{name}: shape {arr.shape} != {p.data.shape}")
        p.data = arr.astype(p.data.dtype, copy=True)


class ModuleList(Module):
    def __init__(self, mods):
        super().__init__()
        self._list = list(mods)
        for i, m in enumerate(self._list):
            self._children[str(i)] = m

    def __iter__(self):
        return iter(self._list)

    def __len__(self):
        return len(self._list)

    def __getitem__(self, i):
        return self._list[i]


class Linear(Module):
    def __init__(self, d_in: int, d_out: int, rng: RngState):
        super().__init__()
        bound = 1.0 / math.sqrt(d_in)
        w = (rng.substream("w").uniform((d_in, d_out)) * 2.0 - 1.0) * bound
        self.w = Tensor(w.astype(np.float32), requires_grad=True)
        self.b = Tensor(np.zeros(d_out, dtype=np.float32), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return add(matmul(x, self.w), self.b)


class Embedding(Module):
    def __init__(self, count: int, dim: int, rng: RngState):
        super().__init__()
        w = rng.substream("w").normal((count, dim)) * EMBEDDING_STD
        self.w = Tensor(w.astype(np.float32), requires_grad=True)

    def __call__(self, ids) -> Tensor:
        return embedding(self.w, ids)


class LayerNorm(Module):
    def __init__(self, dim: int):
        super().__init__()
        self.gamma = Tensor(np.ones(dim, dtype=np.float32), requires_grad=True)
        self.beta = Tensor(np.zeros(dim, dtype=np.float32), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return layer_norm(x, self.gamma, self.beta)


class GRUCell(Module):
    """Gated recurrent unit step: gates r, z then candidate n.

        r = sigmoid(x W_ir + h W_hr + b_ir + b_hr)
        z = sigmoid(x W_iz + h W_hz + b_iz + b_hz)
        n = tanh(x W_in + b_in + r * (h W_hn + b_hn))
        h' = (1 - z) * n + z * h

    The three gates live in fused (d_in, 3h) / (h, 3h) weights, sliced
    in the order r, z, n; one step is one ``gru_cell`` graph node.
    """

    def __init__(self, d_in: int, d_hidden: int, rng: RngState):
        super().__init__()
        bound = 1.0 / math.sqrt(d_hidden)

        def init(key, shape):
            w = (rng.substream(key).uniform(shape) * 2.0 - 1.0) * bound
            return Tensor(w.astype(np.float32), requires_grad=True)

        self.w_ih = init("w_ih", (d_in, 3 * d_hidden))
        self.w_hh = init("w_hh", (d_hidden, 3 * d_hidden))
        self.b_ih = init("b_ih", (3 * d_hidden,))
        self.b_hh = init("b_hh", (3 * d_hidden,))

    def __call__(self, x: Tensor, h: Tensor) -> Tensor:
        return gru_cell(x, h, self.w_ih, self.w_hh, self.b_ih, self.b_hh)