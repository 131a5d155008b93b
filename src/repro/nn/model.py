"""Sequential model container with parameter enumeration and activation taps.

The top-level model is a plain sequence of layers; composite layers
(:class:`~repro.nn.layers.ResidualBlock`, :class:`~repro.nn.layers.DenseBlock`)
handle branching internally. Activation taps record the *input* of every
compute layer (Conv2d/Linear), which is what the quantization calibrator and
the accelerator simulators consume.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Sequence, Tuple

import numpy as np

from .layers import Conv2d, Layer, Linear, Parameter

__all__ = ["Model", "iter_compute_layers", "score"]


def iter_compute_layers(layers: Sequence[Layer]) -> Iterator[Layer]:
    """Yield every Conv2d/Linear layer, descending into composite layers."""
    for layer in layers:
        if layer.is_compute:
            yield layer
        children = list(layer.children())
        if children:
            yield from iter_compute_layers(children)


class Model:
    """An ordered sequence of layers with a classification head."""

    def __init__(self, layers: Sequence[Layer], name: str = "model"):
        self.layers: List[Layer] = list(layers)
        self.name = name

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        out = x
        for layer in self.layers:
            out = layer.forward(out, train=train)
        return out

    __call__ = forward

    def backward(self, dlogits: np.ndarray) -> np.ndarray:
        grad = dlogits
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def parameters(self) -> List[Parameter]:
        params: List[Parameter] = []
        for layer in self.layers:
            params.extend(layer.parameters())
        return params

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def compute_layers(self) -> List[Layer]:
        """All Conv2d/Linear layers in execution order."""
        return list(iter_compute_layers(self.layers))

    def record_activations(self, x: np.ndarray) -> Dict[int, np.ndarray]:
        """Run ``x`` and capture the input tensor of every compute layer.

        Returns a dict keyed by the layer's index in :meth:`compute_layers`.
        Capture is implemented by temporarily wrapping each compute layer's
        ``forward`` so composite layers are handled transparently.
        """
        captured: Dict[int, np.ndarray] = {}
        compute = self.compute_layers()
        originals: List[Callable] = []

        def make_tap(index: int, fwd: Callable) -> Callable:
            def tapped(inp: np.ndarray, train: bool = False) -> np.ndarray:
                captured[index] = inp
                return fwd(inp, train=train)

            return tapped

        for i, layer in enumerate(compute):
            originals.append(layer.forward)
            layer.forward = make_tap(i, layer.forward)  # type: ignore[method-assign]
        try:
            self.forward(x, train=False)
        finally:
            for layer, fwd in zip(compute, originals):
                layer.forward = fwd  # type: ignore[method-assign]
        return captured

    def num_parameters(self) -> int:
        return int(sum(p.value.size for p in self.parameters()))


def score(model, x: np.ndarray, labels: np.ndarray, k: int = 5, batch_size: int = 64) -> Tuple[float, float]:
    """``(top-1, top-k)`` accuracy of ``model`` on a labelled set, in one pass.

    ``model`` is anything with ``forward(batch) -> logits``: a :class:`Model`
    or a :class:`~repro.quant.qmodel.QuantizedModel`. Each batch is run
    once and both hit counts are read off the same logits.
    """
    top1 = topk = 0
    for start in range(0, x.shape[0], batch_size):
        batch_labels = labels[start : start + batch_size]
        logits = model.forward(x[start : start + batch_size])
        top1 += int((logits.argmax(axis=1) == batch_labels).sum())
        best = np.argpartition(-logits, min(k, logits.shape[1] - 1), axis=1)[:, :k]
        topk += int((best == batch_labels[:, None]).any(axis=1).sum())
    return top1 / x.shape[0], topk / x.shape[0]
