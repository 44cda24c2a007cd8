"""Module system: named parameters, seeded init, and the standard layers.

Parameters are re-initialized by name via `seed_parameters`, so a parameter's
initial values depend only on (seed, qualified name, shape).  Adding or
removing sibling modules never perturbs anyone else's init, which is what lets
two training variants share bit-identical starting points for their common
parts.

`rng=None` is inference; a forward with an rng is a training step.  A
training step draws dropout from the rng, and batch norm normalizes by the
batch statistics and blends them into its running statistics.  An inference
forward reads the model and changes nothing, so one model can serve several
callers at once.  No module carries a mode of its own.
"""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import DimensionError
from .util import rng_for

BN_EPS = 1e-5
BN_MOMENTUM = 0.1


class Parameter(Tensor):
    """A leaf with an init recipe, trainable unless frozen.

    init: "fanin" (uniform +-1/sqrt(fan)), "zeros", or "ones".

    `trainable` is `requires_grad` under its module-level name: a frozen
    parameter is a constant to autodiff, so no graph is recorded through it,
    `backward` gives it no gradient and the optimizer never updates it.
    """

    __slots__ = ("init", "fan")

    def __init__(self, shape: tuple[int, ...], init: str = "fanin", fan: Optional[int] = None):
        super().__init__(np.zeros(shape), requires_grad=True)
        self.init = init
        self.fan = fan

    @property
    def trainable(self) -> bool:
        return self.requires_grad

    @trainable.setter
    def trainable(self, flag: bool) -> None:
        self.requires_grad = flag

    def initialize(self, rng: np.random.Generator) -> None:
        if self.init == "zeros":
            self.data = np.zeros(self.shape)
        elif self.init == "ones":
            self.data = np.ones(self.shape)
        elif self.init == "fanin":
            fan = self.fan if self.fan is not None else (self.shape[-1] if self.shape else 1)
            bound = 1.0 / np.sqrt(max(fan, 1))
            self.data = rng.uniform(-bound, bound, size=self.shape)
        else:
            raise ValueError(f"unknown init {self.init!r}")


class Module:
    """Minimal container with recursive named parameter/buffer traversal."""

    def __init__(self):
        self._buffers: dict[str, np.ndarray] = {}

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        self._buffers[name] = np.asarray(value, dtype=np.float64)

    def _members(self, prefix: str) -> Iterator[tuple[str, object]]:
        """Qualified name and value of each parameter and submodule attribute.

        Attributes come in definition order, which checkpoint array order
        follows; underscore attributes are outside the module tree.
        """
        for key, value in vars(self).items():
            if key.startswith("_"):
                continue
            if isinstance(value, ModuleList):
                for i, sub in enumerate(value):
                    yield f"{prefix}{key}.{i}", sub
            elif isinstance(value, (Parameter, Module)):
                yield f"{prefix}{key}", value

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for name, value in self._members(prefix):
            if isinstance(value, Parameter):
                yield name, value
            else:
                yield from value.named_parameters(name + ".")

    def named_buffers(self) -> Iterator[tuple[str, np.ndarray]]:
        for name, (owner, key) in self._buffer_owners().items():
            yield name, owner._buffers[key]

    def parameters(self) -> list[Parameter]:
        return [p for _, p in self.named_parameters()]

    def set_trainable(self, flag: bool) -> "Module":
        for _, p in self.named_parameters():
            p.trainable = flag
        return self

    def state_arrays(self) -> dict[str, np.ndarray]:
        """All parameters and buffers keyed by qualified name."""
        state = {name: p.data for name, p in self.named_parameters()}
        for name, buf in self.named_buffers():
            state[name] = buf
        return state

    def load_state_arrays(self, state: dict[str, np.ndarray]) -> None:
        params = dict(self.named_parameters())
        buffers = self._buffer_owners()
        missing = []
        for name, p in params.items():
            if name in state:
                arr = np.asarray(state[name], dtype=np.float64)
                if arr.shape != p.shape:
                    raise DimensionError(f"{name}: shape {arr.shape} != {p.shape}")
                p.data = arr.copy()
            else:
                missing.append(name)
        for name, (owner, key) in buffers.items():
            if name in state:
                owner._buffers[key] = np.asarray(state[name], dtype=np.float64).copy()
            else:
                missing.append(name)
        if missing:
            raise DimensionError(f"missing arrays in state: {missing[:5]}")

    def _buffer_owners(self, prefix: str = "") -> dict[str, tuple["Module", str]]:
        owners = {f"{prefix}{key}": (self, key) for key in self._buffers}
        for name, value in self._members(prefix):
            if isinstance(value, Module):
                owners.update(value._buffer_owners(name + "."))
        return owners

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class ModuleList(list):
    """A plain list that `Module` traversal knows how to descend into."""


def seed_parameters(module: Module, seed: int, scope: str = "") -> None:
    """Deterministically initialize every parameter from (seed, name)."""
    for name, p in module.named_parameters():
        p.initialize(rng_for(seed, scope, name, p.shape))


class Linear(Module):
    def __init__(self, d_in: int, d_out: int, bias: bool = True):
        super().__init__()
        self.weight = Parameter((d_in, d_out), fan=d_in)
        self.bias = Parameter((d_out,), fan=d_in) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        if x.shape[-1] != self.weight.shape[0]:
            raise DimensionError(
                f"linear: input dim {x.shape[-1]} != weight dim {self.weight.shape[0]}"
            )
        out = ad.matmul(x, self.weight)
        if self.bias is not None:
            out = out + self.bias
        return out


class LayerNorm(Module):
    def __init__(self, dim: int):
        super().__init__()
        self.gamma = Parameter((dim,), init="ones")
        self.beta = Parameter((dim,), init="zeros")

    def forward(self, x: Tensor) -> Tensor:
        return ad.layer_norm(x, self.gamma, self.beta)


class BatchNorm(Module):
    """Batch normalization over all axes except the last (feature) axis.

    A training step (a forward with an rng) normalizes by the batch
    statistics and blends them into the running statistics; `BN_MOMENTUM` is
    the fraction of the fresh batch statistic blended in per step (small
    batches want it low).  Inference (`rng=None`) normalizes by the running
    statistics and leaves them as they are.
    """

    def __init__(self, dim: int):
        super().__init__()
        self.gamma = Parameter((dim,), init="ones")
        self.beta = Parameter((dim,), init="zeros")
        self.register_buffer("running_mean", np.zeros(dim))
        self.register_buffer("running_var", np.ones(dim))

    def forward(self, x: Tensor, rng: Optional[np.random.Generator] = None) -> Tensor:
        axes = tuple(range(x.ndim - 1))
        if rng is not None:
            mu = ad.mean(x, axis=axes, keepdims=True)
            xc = x - mu
            var = ad.mean(xc * xc, axis=axes, keepdims=True)
            m = BN_MOMENTUM
            self._buffers["running_mean"] = (
                (1 - m) * self._buffers["running_mean"] + m * mu.data.reshape(-1)
            )
            self._buffers["running_var"] = (
                (1 - m) * self._buffers["running_var"] + m * var.data.reshape(-1)
            )
            xhat = xc / ad.sqrt(var + ad.tensor(BN_EPS))
        else:
            mu = self._buffers["running_mean"]
            var = self._buffers["running_var"]
            xhat = (x - ad.tensor(mu)) * ad.tensor(1.0 / np.sqrt(var + BN_EPS))
        return xhat * self.gamma + self.beta


class Conv1d(Module):
    """Dense or depthwise convolution, channels-last: (B, T, C_in) -> (B, T_out, C_out)."""

    def __init__(
        self,
        c_in: int,
        c_out: int,
        kernel: int,
        stride: int = 1,
        padding: int = 0,
        groups: int = 1,
    ):
        super().__init__()
        fan = (c_in // groups) * kernel
        self.weight = Parameter((c_out, c_in // groups, kernel), fan=fan)
        self.bias = Parameter((c_out,), fan=fan)
        self.stride, self.padding, self.groups = stride, padding, groups

    def forward(self, x: Tensor) -> Tensor:
        return ad.conv1d(x, self.weight, self.bias, self.stride, self.padding, self.groups)


class Conv2d(Module):
    """Convolution followed by ReLU, channels-last: (B, H, W, C_in) -> (B, Ho, Wo, C_out)."""

    def __init__(self, c_in: int, c_out: int, kernel: int, stride: int = 1, padding: int = 0):
        super().__init__()
        fan = c_in * kernel * kernel
        self.weight = Parameter((c_out, c_in, kernel, kernel), fan=fan)
        self.bias = Parameter((c_out,), fan=fan)
        self.stride, self.padding = stride, padding

    def forward(self, x: Tensor) -> Tensor:
        return ad.conv2d_relu(x, self.weight, self.bias, self.stride, self.padding)
