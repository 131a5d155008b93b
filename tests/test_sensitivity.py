"""Tests for per-layer quantization sensitivity analysis."""

import numpy as np
import pytest

from repro.nn import score
from repro.quant import (
    QuantConfig,
    QuantizedModel,
    calibrate_activation_thresholds,
    layer_sensitivity,
    leave_one_out,
)


@pytest.fixture(scope="module")
def setup(tiny_trained_model, small_dataset):
    cal = calibrate_activation_thresholds(tiny_trained_model, small_dataset.train_x[:60], ratio=0.0)
    config = QuantConfig(ratio=0.0)
    return tiny_trained_model, small_dataset, cal, config


class TestOnlyThisLayer:
    def test_one_row_per_compute_layer(self, setup):
        model, data, cal, config = setup
        report = layer_sensitivity(model, cal, data.test_x, data.test_y, config)
        assert len(report.rows) == len(model.compute_layers())

    def test_reference_is_full_precision(self, setup):
        model, data, cal, config = setup
        report = layer_sensitivity(model, cal, data.test_x, data.test_y, config)
        assert report.reference_accuracy == pytest.approx(score(model, data.test_x, data.test_y)[0])

    def test_single_layer_hurts_less_than_all(self, setup):
        """Quantizing one layer can never do worse than the worst case of
        quantizing everything (sanity ordering on average)."""
        model, data, cal, config = setup
        report = layer_sensitivity(model, cal, data.test_x, data.test_y, config)
        full, _ = score(QuantizedModel(model, cal, config), data.test_x, data.test_y)
        mean_single = float(np.mean([r.accuracy for r in report.rows]))
        assert mean_single >= full - 0.05

    def test_ranked_order(self, setup):
        model, data, cal, config = setup
        report = layer_sensitivity(model, cal, data.test_x, data.test_y, config)
        deltas = [r.delta_vs_reference for r in report.ranked()]
        assert deltas == sorted(deltas)

    def test_model_restored(self, setup):
        model, data, cal, config = setup
        before = model.forward(data.test_x[:4])
        layer_sensitivity(model, cal, data.test_x[:32], data.test_y[:32], config)
        after = model.forward(data.test_x[:4])
        np.testing.assert_allclose(before, after)


class TestLeaveOneOut:
    def test_reference_is_fully_quantized(self, setup):
        model, data, cal, config = setup
        report = leave_one_out(model, cal, data.test_x, data.test_y, config)
        full, _ = score(QuantizedModel(model, cal, config), data.test_x, data.test_y)
        assert report.reference_accuracy == pytest.approx(full)

    def test_format_lists_layers(self, setup):
        model, data, cal, config = setup
        report = leave_one_out(model, cal, data.test_x[:64], data.test_y[:64], config)
        text = report.format()
        for layer in model.compute_layers():
            assert layer.name in text

    def test_most_sensitive_accessor(self, setup):
        model, data, cal, config = setup
        report = leave_one_out(model, cal, data.test_x[:64], data.test_y[:64], config)
        assert report.most_sensitive() is report.ranked()[0]
