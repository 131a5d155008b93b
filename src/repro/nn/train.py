"""SGD training for the numpy substrate.

A deliberately small trainer: SGD with momentum, weight decay, optional
cosine learning-rate decay, and per-epoch shuffling. It is enough to train
the mini model zoo (:mod:`repro.nn.zoo_mini`) to well-above-chance accuracy
on the synthetic dataset within seconds, which is all the quantization
accuracy experiments require.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from . import functional as F
from .model import Model, score

__all__ = ["TrainConfig", "TrainResult", "SGD", "train_model", "evaluate_loss"]


@dataclass
class TrainConfig:
    """Hyper-parameters for :func:`train_model`."""

    epochs: int = 10
    batch_size: int = 64
    lr: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 5e-4
    cosine_decay: bool = True
    grad_clip: float = 5.0
    seed: int = 0
    verbose: bool = False


@dataclass
class TrainResult:
    """Per-epoch training trace."""

    losses: List[float] = field(default_factory=list)
    train_accuracy: float = 0.0


class SGD:
    """SGD with momentum and decoupled weight decay."""

    def __init__(
        self,
        parameters,
        lr: float,
        momentum: float = 0.9,
        weight_decay: float = 0.0,
        grad_clip: float = 0.0,
    ):
        self.parameters = list(parameters)
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.grad_clip = grad_clip
        self._velocity = [np.zeros_like(p.value) for p in self.parameters]

    def _clip_gradients(self) -> None:
        """Scale all gradients so the global L2 norm is at most ``grad_clip``."""
        total = np.sqrt(sum(float(np.sum(p.grad**2)) for p in self.parameters))
        if total > self.grad_clip > 0:
            scale = self.grad_clip / (total + 1e-12)
            for param in self.parameters:
                param.grad *= scale

    def step(self) -> None:
        if self.grad_clip > 0:
            self._clip_gradients()
        for param, vel in zip(self.parameters, self._velocity):
            grad = param.grad
            if self.weight_decay and param.value.ndim > 1:
                grad = grad + self.weight_decay * param.value
            vel *= self.momentum
            vel -= self.lr * grad
            param.value += vel

    def zero_grad(self) -> None:
        for param in self.parameters:
            param.zero_grad()


def evaluate_loss(model: Model, x: np.ndarray, y: np.ndarray, batch_size: int = 128) -> float:
    """Mean cross-entropy over a labelled set (inference mode)."""
    total = 0.0
    for start in range(0, x.shape[0], batch_size):
        xb = x[start : start + batch_size]
        yb = y[start : start + batch_size]
        logits = model.forward(xb, train=False)
        total += F.cross_entropy(logits, yb) * xb.shape[0]
    return total / x.shape[0]


def train_model(model: Model, x: np.ndarray, y: np.ndarray, config: TrainConfig) -> TrainResult:
    """Train ``model`` in place; returns the loss trace."""
    rng = np.random.default_rng(config.seed)
    optimizer = SGD(
        model.parameters(),
        config.lr,
        config.momentum,
        config.weight_decay,
        grad_clip=config.grad_clip,
    )
    result = TrainResult()
    n = x.shape[0]

    for epoch in range(config.epochs):
        if config.cosine_decay:
            optimizer.lr = config.lr * 0.5 * (1 + np.cos(np.pi * epoch / max(config.epochs, 1)))
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            xb, yb = x[idx], y[idx]
            optimizer.zero_grad()
            logits = model.forward(xb, train=True)
            loss = F.cross_entropy(logits, yb)
            model.backward(F.cross_entropy_backward(logits, yb))
            optimizer.step()
            epoch_loss += loss * xb.shape[0]
        epoch_loss /= n
        result.losses.append(epoch_loss)
        if config.verbose:
            print(f"epoch {epoch + 1}/{config.epochs}: loss={epoch_loss:.4f}")

    result.train_accuracy = score(model, x, y)[0]
    return result
