"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import TrainConfig, make_dataset, mini_alexnet, train_model


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="rewrite tests/golden/*.json from the current simulators instead of comparing",
    )


@pytest.fixture
def rng():
    """A fresh generator per test, so a test's draws never depend on which ran before it."""
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def small_dataset():
    """A tiny, fast dataset for training-dependent tests."""
    return make_dataset(num_classes=6, train_per_class=40, test_per_class=15, size=32, noise=0.5, jitter=2, seed=3)


@pytest.fixture(scope="session")
def tiny_trained_model(small_dataset):
    """A quickly trained small CNN shared across quantization tests."""
    model = mini_alexnet(num_classes=small_dataset.num_classes, seed=11)
    train_model(
        model,
        small_dataset.train_x,
        small_dataset.train_y,
        TrainConfig(epochs=4, batch_size=32, lr=0.01, seed=0),
    )
    return model
