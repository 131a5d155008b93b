"""Trainable layers for the numpy neural-network substrate.

Layers follow a small, explicit protocol instead of a full autograd engine:

- ``forward(x, train=False)`` consumes a batch and stashes whatever the
  backward pass needs on ``self``;
- ``backward(dy)`` returns the gradient w.r.t. the layer input and
  accumulates parameter gradients;
- ``parameters()`` yields :class:`Parameter` objects so optimizers and the
  quantization tooling can enumerate weights uniformly.

Composite layers (:class:`ResidualBlock`, :class:`DenseBlock`) wrap child
layers so that the top-level :class:`repro.nn.model.Model` can stay a plain
sequence, which keeps both training and quantized execution simple.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence

import numpy as np

from . import functional as F

__all__ = [
    "Parameter",
    "Layer",
    "Conv2d",
    "Linear",
    "ReLU",
    "Dropout",
    "LocalResponseNorm",
    "MaxPool2d",
    "AvgPool2d",
    "GlobalAvgPool",
    "BatchNorm2d",
    "Flatten",
    "ResidualBlock",
    "DenseBlock",
]


class Parameter:
    """A named tensor with its gradient accumulator."""

    def __init__(self, name: str, value: np.ndarray):
        self.name = name
        self.value = value
        self.grad = np.zeros_like(value)

    def zero_grad(self) -> None:
        self.grad[...] = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Parameter({self.name}, shape={self.value.shape})"


class Layer:
    """Base class; concrete layers override ``forward``/``backward``."""

    #: set by subclasses that perform multiply-accumulate work; the harness
    #: uses it to decide which layers the accelerators simulate.
    is_compute = False

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, dy: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def parameters(self) -> Iterator[Parameter]:
        return iter(())

    def children(self) -> Iterator["Layer"]:
        return iter(())

    def __call__(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        return self.forward(x, train=train)


def _he_init(rng: np.random.Generator, shape: Sequence[int], fan_in: int) -> np.ndarray:
    return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape).astype(np.float64)


class Conv2d(Layer):
    """2-D convolution with optional bias and channel groups.

    With ``groups > 1`` the input/output channels are split into that many
    independent groups (AlexNet's conv2/4/5 topology); the weight tensor is
    then ``(out_channels, in_channels // groups, k, k)``.
    """

    is_compute = True

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel: int,
        stride: int = 1,
        pad: int = 0,
        bias: bool = True,
        groups: int = 1,
        name: str = "conv",
        rng: Optional[np.random.Generator] = None,
    ):
        rng = rng or np.random.default_rng(0)
        if groups < 1 or in_channels % groups or out_channels % groups:
            raise ValueError(
                f"groups={groups} must divide in_channels={in_channels} and out_channels={out_channels}"
            )
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = kernel
        self.stride = stride
        self.pad = pad
        self.groups = groups
        self.name = name
        fan_in = (in_channels // groups) * kernel * kernel
        self.weight = Parameter(
            f"{name}.weight",
            _he_init(rng, (out_channels, in_channels // groups, kernel, kernel), fan_in),
        )
        self.bias = Parameter(f"{name}.bias", np.zeros(out_channels)) if bias else None
        self._cache = None

    def _split(self, x: np.ndarray, per_group: int, axis: int = 1):
        return [x[:, g * per_group : (g + 1) * per_group] for g in range(self.groups)]

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        bias = self.bias.value if self.bias is not None else None
        if self.groups == 1:
            y, self._cache = F.conv2d(x, self.weight.value, bias, self.stride, self.pad, train)
            return y

        cin_g = self.in_channels // self.groups
        cout_g = self.out_channels // self.groups
        outputs = []
        caches = []
        for g, xg in enumerate(self._split(x, cin_g)):
            wg = self.weight.value[g * cout_g : (g + 1) * cout_g]
            bg = bias[g * cout_g : (g + 1) * cout_g] if bias is not None else None
            yg, cg = F.conv2d(xg, wg, bg, self.stride, self.pad, train)
            outputs.append(yg)
            caches.append(cg)
        self._cache = caches if train else None
        return np.concatenate(outputs, axis=1)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called without a training forward pass")
        if self.groups == 1:
            dx, dw, db = F.conv2d_backward(dy, self._cache)
            self.weight.grad += dw
            if self.bias is not None:
                self.bias.grad += db
            return dx

        cout_g = self.out_channels // self.groups
        dx_parts = []
        for g, cache in enumerate(self._cache):
            dyg = dy[:, g * cout_g : (g + 1) * cout_g]
            dxg, dwg, dbg = F.conv2d_backward(dyg, cache)
            dx_parts.append(dxg)
            self.weight.grad[g * cout_g : (g + 1) * cout_g] += dwg
            if self.bias is not None:
                self.bias.grad[g * cout_g : (g + 1) * cout_g] += dbg
        return np.concatenate(dx_parts, axis=1)

    def parameters(self) -> Iterator[Parameter]:
        yield self.weight
        if self.bias is not None:
            yield self.bias


class Linear(Layer):
    """Fully connected layer."""

    is_compute = True

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        name: str = "fc",
        rng: Optional[np.random.Generator] = None,
    ):
        rng = rng or np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.name = name
        self.weight = Parameter(f"{name}.weight", _he_init(rng, (out_features, in_features), in_features))
        self.bias = Parameter(f"{name}.bias", np.zeros(out_features)) if bias else None
        self._cache = None

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        bias = self.bias.value if self.bias is not None else None
        y, cache = F.linear(x, self.weight.value, bias)
        self._cache = cache if train else None
        return y

    def backward(self, dy: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called without a training forward pass")
        dx, dw, db = F.linear_backward(dy, self._cache)
        self.weight.grad += dw
        if self.bias is not None:
            self.bias.grad += db
        return dx

    def parameters(self) -> Iterator[Parameter]:
        yield self.weight
        if self.bias is not None:
            yield self.bias


class ReLU(Layer):
    def __init__(self):
        self._cache = None

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        if not train:
            self._cache = None
            return np.maximum(x, 0.0)
        y, self._cache = F.relu(x)
        return y

    def backward(self, dy: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called without a training forward pass")
        return F.relu_backward(dy, self._cache)


class MaxPool2d(Layer):
    def __init__(self, kernel: int, stride: Optional[int] = None):
        self.kernel = kernel
        self.stride = kernel if stride is None else stride
        self._cache = None

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        y, self._cache = F.maxpool2d(x, self.kernel, self.stride, train)
        return y

    def backward(self, dy: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called without a training forward pass")
        return F.maxpool2d_backward(dy, self._cache)


class AvgPool2d(Layer):
    def __init__(self, kernel: int, stride: Optional[int] = None):
        self.kernel = kernel
        self.stride = kernel if stride is None else stride
        self._cache = None

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        y, cache = F.avgpool2d(x, self.kernel, self.stride)
        self._cache = cache if train else None
        return y

    def backward(self, dy: np.ndarray) -> np.ndarray:
        return F.avgpool2d_backward(dy, self._cache)


class GlobalAvgPool(Layer):
    """Average over the full spatial extent, producing (N, C)."""

    def __init__(self):
        self._shape = None

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        self._shape = x.shape
        return x.mean(axis=(2, 3))

    def backward(self, dy: np.ndarray) -> np.ndarray:
        n, c, h, w = self._shape
        return np.broadcast_to(dy[:, :, None, None], self._shape) / (h * w)


class BatchNorm2d(Layer):
    """Batch normalization over (N, H, W) per channel with running stats."""

    def __init__(self, channels: int, momentum: float = 0.9, eps: float = 1e-5, name: str = "bn"):
        self.channels = channels
        self.momentum = momentum
        self.eps = eps
        self.name = name
        self.gamma = Parameter(f"{name}.gamma", np.ones(channels))
        self.beta = Parameter(f"{name}.beta", np.zeros(channels))
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)
        self._cache = None

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        if train:
            mean = x.mean(axis=(0, 2, 3))
            var = x.var(axis=(0, 2, 3))
            self.running_mean = self.momentum * self.running_mean + (1 - self.momentum) * mean
            self.running_var = self.momentum * self.running_var + (1 - self.momentum) * var
        else:
            mean = self.running_mean
            var = self.running_var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat = (x - mean[None, :, None, None]) * inv_std[None, :, None, None]
        y = self.gamma.value[None, :, None, None] * x_hat + self.beta.value[None, :, None, None]
        if train:
            self._cache = (x_hat, inv_std)
        return y

    def backward(self, dy: np.ndarray) -> np.ndarray:
        x_hat, inv_std = self._cache
        n, c, h, w = dy.shape
        m = n * h * w
        self.gamma.grad += (dy * x_hat).sum(axis=(0, 2, 3))
        self.beta.grad += dy.sum(axis=(0, 2, 3))
        dxhat = dy * self.gamma.value[None, :, None, None]
        # Standard batchnorm backward, vectorized per channel.
        term1 = dxhat
        term2 = dxhat.mean(axis=(0, 2, 3), keepdims=True)
        term3 = x_hat * (dxhat * x_hat).mean(axis=(0, 2, 3), keepdims=True)
        return (term1 - term2 - term3) * inv_std[None, :, None, None]

    def parameters(self) -> Iterator[Parameter]:
        yield self.gamma
        yield self.beta


class Dropout(Layer):
    """Inverted dropout; identity at inference (AlexNet's FC regularizer)."""

    def __init__(self, p: float = 0.5, seed: int = 0):
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self._rng = np.random.default_rng(seed)
        self._mask = None

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        if not train or self.p == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.p
        self._mask = (self._rng.random(x.shape) < keep) / keep
        return x * self._mask

    def backward(self, dy: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return dy
        return dy * self._mask


class LocalResponseNorm(Layer):
    """AlexNet's cross-channel local response normalization.

    ``y_c = x_c / (k + alpha/n * sum_{c' in window} x_{c'}^2)^beta`` with a
    window of ``size`` channels centred on ``c``. Used at inference in the
    mini-AlexNet variant; backward implements the full LRN gradient.
    """

    def __init__(self, size: int = 5, alpha: float = 1e-4, beta: float = 0.75, k: float = 2.0):
        if size < 1:
            raise ValueError(f"LRN window must be >= 1, got {size}")
        self.size = size
        self.alpha = alpha
        self.beta = beta
        self.k = k
        self._cache = None

    def _window_sums(self, squared: np.ndarray) -> np.ndarray:
        channels = squared.shape[1]
        half = self.size // 2
        padded = np.pad(squared, ((0, 0), (half, half), (0, 0), (0, 0)))
        out = np.zeros_like(squared)
        for offset in range(self.size):
            out += padded[:, offset : offset + channels]
        return out

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        squared = x**2
        denom_base = self.k + (self.alpha / self.size) * self._window_sums(squared)
        denom = denom_base**self.beta
        y = x / denom
        if train:
            self._cache = (x, denom_base, denom)
        return y

    def backward(self, dy: np.ndarray) -> np.ndarray:
        x, denom_base, denom = self._cache
        # dy/dx has a direct term and a cross-channel coupling term.
        direct = dy / denom
        coupling = dy * x * denom_base ** (-self.beta - 1.0)
        summed = self._window_sums(coupling)
        return direct - (2.0 * self.alpha * self.beta / self.size) * x * summed


class Flatten(Layer):
    def __init__(self):
        self._shape = None

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        return dy.reshape(self._shape)


class ResidualBlock(Layer):
    """``y = relu(body(x) + shortcut(x))`` with an optional projection shortcut.

    The body is an arbitrary layer sequence (typically conv-bn-relu-conv-bn);
    the shortcut is identity unless a projection sequence is supplied (for
    stride/channel changes, as in ResNet).
    """

    def __init__(self, body: Sequence[Layer], shortcut: Optional[Sequence[Layer]] = None):
        self.body: List[Layer] = list(body)
        self.shortcut: List[Layer] = list(shortcut) if shortcut else []
        self._relu = ReLU()

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        out = x
        for layer in self.body:
            out = layer.forward(out, train=train)
        skip = x
        for layer in self.shortcut:
            skip = layer.forward(skip, train=train)
        return self._relu.forward(out + skip, train=train)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        dsum = self._relu.backward(dy)
        dbody = dsum
        for layer in reversed(self.body):
            dbody = layer.backward(dbody)
        dskip = dsum
        for layer in reversed(self.shortcut):
            dskip = layer.backward(dskip)
        return dbody + dskip

    def parameters(self) -> Iterator[Parameter]:
        for layer in self.body:
            yield from layer.parameters()
        for layer in self.shortcut:
            yield from layer.parameters()

    def children(self) -> Iterator[Layer]:
        yield from self.body
        yield from self.shortcut


class DenseBlock(Layer):
    """DenseNet-style block: each stage consumes the concat of all earlier outputs.

    Each stage is itself a layer sequence producing ``growth`` channels; the
    block output is the concatenation of the input with every stage output.
    """

    def __init__(self, stages: Sequence[Sequence[Layer]]):
        self.stages: List[List[Layer]] = [list(s) for s in stages]
        self._splits = None

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        features = [x]
        for stage in self.stages:
            out = np.concatenate(features, axis=1)
            for layer in stage:
                out = layer.forward(out, train=train)
            features.append(out)
        self._splits = [f.shape[1] for f in features]
        return np.concatenate(features, axis=1)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        # Split upstream gradient into per-feature slices.
        grads = []
        start = 0
        for width in self._splits:
            grads.append(dy[:, start : start + width].copy())
            start += width
        # Walk stages in reverse; each stage's input was concat(features[:i+1]).
        for i in range(len(self.stages) - 1, -1, -1):
            dstage = grads[i + 1]
            for layer in reversed(self.stages[i]):
                dstage = layer.backward(dstage)
            start = 0
            for j in range(i + 1):
                width = self._splits[j]
                grads[j] += dstage[:, start : start + width]
                start += width
        return grads[0]

    def parameters(self) -> Iterator[Parameter]:
        for stage in self.stages:
            for layer in stage:
                yield from layer.parameters()

    def children(self) -> Iterator[Layer]:
        for stage in self.stages:
            yield from stage
