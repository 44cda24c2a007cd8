"""Module system: named parameters and buffers, seeded init, and the standard layers.

A module's parameters, buffers and submodules are its attributes, and one
walk of that tree lists every array a model holds: `state_arrays` gives all
parameters in definition order, then all buffers, and `load_state_arrays`
checks the shape of each.  A `Buffer` (batch-norm running statistics) is
saved and loaded with the model but never trained.

Parameters are initialized by name via `seed_parameters`, so a parameter's
initial values depend only on (seed, scope, qualified name, shape).  Adding or
removing sibling modules never perturbs anyone else's init, which is what lets
two training variants share bit-identical starting points for their common
parts.

`rng=None` is inference, as is any forward of a frozen encoder; another
forward with an rng is a training step: dropout draws from the rng, and
batch norm normalizes by the batch statistics and blends them into its
running statistics.  Inference reads the model and changes nothing, so one
model can serve several callers at once.  No module has a mode of its own.
"""

from __future__ import annotations

import itertools
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


class Buffer(Tensor):
    """A leaf saved and loaded with its module but never trained.

    Batch-norm running statistics are buffers: a training step replaces their
    data, but autodiff sees a constant and the optimizer never sees them.
    """

    __slots__ = ()


class Module:
    """Container whose parameters, buffers and submodules are its attributes."""

    def _members(self, prefix: str) -> Iterator[tuple[str, object]]:
        """Qualified name and value of each parameter, buffer and submodule attribute.

        Attributes come in definition order, which checkpoint array order
        follows; underscore attributes are outside the module tree.
        """
        for key, value in vars(self).items():
            if key.startswith("_"):
                continue
            if isinstance(value, ModuleList):
                for i, sub in enumerate(value):
                    yield f"{prefix}{key}.{i}", sub
            elif isinstance(value, (Parameter, Buffer, Module)):
                yield f"{prefix}{key}", value

    def _leaves(self, kind: type, prefix: str) -> Iterator[tuple[str, Tensor]]:
        for name, value in self._members(prefix):
            if isinstance(value, Module):
                yield from value._leaves(kind, name + ".")
            elif isinstance(value, kind):
                yield name, value

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        return self._leaves(Parameter, prefix)

    def parameters(self) -> list[Parameter]:
        return [p for _, p in self.named_parameters()]

    def set_trainable(self, flag: bool) -> "Module":
        for _, p in self.named_parameters():
            p.trainable = flag
        return self

    def _arrays(self, prefix: str) -> Iterator[tuple[str, Tensor]]:
        """Every parameter, then every buffer: the checkpoint order."""
        return itertools.chain(self._leaves(Parameter, prefix), self._leaves(Buffer, prefix))

    def state_arrays(self, prefix: str = "") -> dict[str, np.ndarray]:
        """All parameters and buffers keyed by `prefix` + qualified name."""
        return {name: leaf.data for name, leaf in self._arrays(prefix)}

    def load_state_arrays(self, state: dict[str, np.ndarray], prefix: str = "") -> None:
        """Copy in the array of each parameter and buffer, keyed as `state_arrays`
        gives it; other keys are ignored."""
        missing = []
        for name, leaf in self._arrays(prefix):
            if name not in state:
                missing.append(name)
                continue
            arr = np.asarray(state[name], dtype=np.float64)
            if arr.shape != leaf.shape:
                raise DimensionError(f"{name}: shape {arr.shape} != {leaf.shape}")
            leaf.data = arr.copy()
        if missing:
            raise DimensionError(f"missing arrays in state: {missing[:5]}")

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class ModuleList(list):
    """A plain list that `Module` traversal knows how to descend into."""


def seed_parameters(module: Module, seed: int, scope: str = "") -> None:
    """Deterministically initialize every parameter from (seed, scope, name).

    This is how every module is seeded; no constructor takes a seed, and a
    built module's parameters are zeros until it is seeded or loaded.
    `training.py` names each scope it seeds: "asr_encoder", "asr_decoder",
    "speaker_model", "classifier", "student_decoder", "rate_match" and
    "adaptation".
    """
    for name, p in module.named_parameters():
        p.initialize(rng_for(seed, scope, name, p.shape))


class Linear(Module):
    def __init__(self, d_in: int, d_out: int, bias: bool = True):
        self.weight = Parameter((d_in, d_out), fan=d_in)
        self.bias = Parameter((d_out,), fan=d_in) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        out = ad.matmul(x, self.weight)  # a wrong input width raises DimensionError there
        if self.bias is not None:
            out = out + self.bias
        return out


class LayerNorm(Module):
    def __init__(self, dim: int):
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
        self.gamma = Parameter((dim,), init="ones")
        self.beta = Parameter((dim,), init="zeros")
        self.running_mean = Buffer(np.zeros(dim))
        self.running_var = Buffer(np.ones(dim))

    def forward(self, x: Tensor, rng: Optional[np.random.Generator] = None) -> Tensor:
        axes = tuple(range(x.ndim - 1))
        if rng is not None:
            mu = ad.mean(x, axis=axes, keepdims=True)
            xc = x - mu
            var = ad.mean(xc * xc, axis=axes, keepdims=True)
            m = BN_MOMENTUM
            self.running_mean.data = (1 - m) * self.running_mean.data + m * mu.data.reshape(-1)
            self.running_var.data = (1 - m) * self.running_var.data + m * var.data.reshape(-1)
            xhat = xc / ad.sqrt(var + ad.tensor(BN_EPS))
        else:
            inv_std = 1.0 / np.sqrt(self.running_var.data + BN_EPS)
            xhat = (x - self.running_mean) * ad.tensor(inv_std)
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
        fan = (c_in // groups) * kernel
        self.weight = Parameter((c_out, c_in // groups, kernel), fan=fan)
        self.bias = Parameter((c_out,), fan=fan)
        self.stride, self.padding, self.groups = stride, padding, groups

    def forward(self, x: Tensor) -> Tensor:
        return ad.conv1d(x, self.weight, self.bias, self.stride, self.padding, self.groups)


class Conv2d(Module):
    """Convolution followed by ReLU, channels-last: (B, H, W, C_in) -> (B, Ho, Wo, C_out)."""

    def __init__(self, c_in: int, c_out: int, kernel: int, stride: int = 1, padding: int = 0):
        fan = c_in * kernel * kernel
        self.weight = Parameter((c_out, c_in, kernel, kernel), fan=fan)
        self.bias = Parameter((c_out,), fan=fan)
        self.stride, self.padding = stride, padding

    def out_len(self, n: int) -> int:
        """Output length along either spatial axis for an input of length `n`."""
        return ad.conv_out_len(n, self.weight.shape[-1], self.stride, self.padding)

    def forward(self, x: Tensor) -> Tensor:
        return ad.conv2d_relu(x, self.weight, self.bias, self.stride, self.padding)
