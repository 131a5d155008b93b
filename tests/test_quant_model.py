"""Tests for calibration and quantized-model execution (Sec. II runtime)."""

import numpy as np
import pytest

from repro.nn import mini_alexnet, score
from repro.quant import (
    CalibrationResult,
    LayerCalibration,
    QuantConfig,
    QuantizedModel,
    calibrate_activation_thresholds,
    capture_activations,
    count_outliers,
    effective_outlier_ratios,
    magnitude_threshold,
)


@pytest.fixture(scope="module")
def calibrated(tiny_trained_model, small_dataset):
    cal = calibrate_activation_thresholds(tiny_trained_model, small_dataset.train_x[:60], ratio=0.03)
    return tiny_trained_model, small_dataset, cal


class TestCalibration:
    def test_one_threshold_per_compute_layer(self, calibrated):
        model, _, cal = calibrated
        assert len(cal.layers) == len(model.compute_layers())

    def test_first_layer_signed(self, calibrated):
        _, _, cal = calibrated
        assert cal.layers[0].signed  # raw images have negative values
        # post-ReLU layers are unsigned
        assert not any(layer.signed for layer in cal.layers[1:])

    def test_thresholds_positive(self, calibrated):
        _, _, cal = calibrated
        assert all(layer.threshold > 0 for layer in cal.layers)

    def test_effective_ratio_near_target(self, calibrated):
        model, data, cal = calibrated
        ratios = effective_outlier_ratios(model, cal, data.test_x[:40])
        non_first = [r for name, r in ratios.items() if name != cal.layers[0].layer_name]
        mean_ratio = float(np.mean(non_first))
        # Fig. 16: runtime ratio clusters near the calibrated target.
        assert 0.01 < mean_ratio < 0.08

    def test_by_name_lookup(self, calibrated):
        _, _, cal = calibrated
        names = cal.by_name()
        assert cal.layers[0].layer_name in names


class TestQuantizedModel:
    def test_forward_shape_and_restoration(self, calibrated, rng):
        model, data, cal = calibrated
        qm = QuantizedModel(model, cal, QuantConfig(ratio=0.03))
        x = data.test_x[:4]
        before = model.forward(x)
        out = qm.forward(x)
        after = model.forward(x)
        assert out.shape == before.shape
        np.testing.assert_allclose(before, after)  # wrapper fully undone

    def test_quantized_close_to_float(self, calibrated):
        model, data, cal = calibrated
        qm = QuantizedModel(model, cal, QuantConfig(ratio=0.03))
        fp, _ = score(model, data.test_x, data.test_y)
        q, _ = score(qm, data.test_x, data.test_y)
        assert q >= fp - 0.25  # 4-bit OAQ keeps most of the accuracy

    def test_oaq_at_least_as_good_as_linear(self, calibrated):
        """The headline accuracy claim at the model level."""
        model, data, cal = calibrated
        from repro.quant import calibrate_activation_thresholds

        cal0 = calibrate_activation_thresholds(model, data.train_x[:60], ratio=0.0)
        linear = QuantizedModel(model, cal0, QuantConfig(ratio=0.0))
        oaq = QuantizedModel(model, cal, QuantConfig(ratio=0.03))
        _, top3_linear = score(linear, data.test_x, data.test_y, k=3)
        _, top3_oaq = score(oaq, data.test_x, data.test_y, k=3)
        assert top3_oaq >= top3_linear - 0.02

    def test_mismatched_calibration_raises(self, calibrated):
        model, _, cal = calibrated
        broken = CalibrationResult(ratio=0.03, layers=cal.layers[:-1])
        with pytest.raises(ValueError, match="calibration covers"):
            QuantizedModel(model, broken)

    def test_first_layer_8bit_weights(self, calibrated):
        model, _, cal = calibrated
        qm = QuantizedModel(model, cal, QuantConfig(ratio=0.03, first_layer_weight_bits=8))
        first = qm.weight_q[0]
        assert first.config.normal_bits == 8
        assert first.outlier_count == 0  # dense high-precision grid

    def test_weight_outlier_ratio_near_target(self, calibrated):
        model, _, cal = calibrated
        qm = QuantizedModel(model, cal, QuantConfig(ratio=0.03))
        for qt in qm.weight_q[1:]:
            assert qt.outlier_ratio <= 0.06

    def test_measure_layer_stats(self, calibrated):
        model, data, cal = calibrated
        qm = QuantizedModel(model, cal, QuantConfig(ratio=0.03))
        stats = qm.measure_layer_stats(data.test_x[:20])
        assert len(stats) == len(model.compute_layers())
        first = stats[0]
        assert first.is_first
        assert first.act_density == pytest.approx(1.0, abs=0.05)  # raw input dense
        for stat in stats[1:]:
            assert 0.0 <= stat.act_density <= 1.0
            assert 0.0 <= stat.act_outlier_ratio <= 0.2
            assert stat.act_threshold > 0


def _per_sample_hits(model, x, labels, k, batch_size):
    """Top-1 and top-k hit counts decided one sample at a time, from logits
    computed on the same batches ``score`` uses (the quantized first layer
    scales by its batch's range, so the batching must match)."""
    logits = np.concatenate([model.forward(x[s : s + batch_size]) for s in range(0, x.shape[0], batch_size)])
    top1 = topk = 0
    for row, label in zip(logits, labels):
        top1 += int(np.argmax(row) == label)
        topk += int(label in np.argsort(-row, kind="stable")[:k])
    return top1, topk


class TestScore:
    @pytest.fixture(params=["float", "quantized"])
    def scored_model(self, request, small_dataset):
        """An untrained model: near chance, so every k gives a different top-k."""
        model = mini_alexnet(num_classes=small_dataset.num_classes, seed=5)
        if request.param == "quantized":
            model = QuantizedModel(model, capture_activations(model, small_dataset.train_x[:60]).calibrate(0.03))
        return model, small_dataset

    @pytest.mark.parametrize("k", [1, 3, 6, 9])  # the tiny dataset has 6 classes
    def test_score_matches_per_sample_hits(self, scored_model, k):
        model, data = scored_model
        x, labels = data.test_x[:20], data.test_y[:20]  # batches of 7, 7 and 6
        top1, topk = score(model, x, labels, k=k, batch_size=7)
        want_top1, want_topk = _per_sample_hits(model, x, labels, k, batch_size=7)
        assert (top1, topk) == (want_top1 / 20, want_topk / 20)
        if k >= data.num_classes:
            assert topk == 1.0
        assert top1 <= topk


def _calibrate_per_ratio(model, samples, ratio, batch_size=32):
    """The capture-per-ratio calibration: pool each layer's input over
    batches of 32, then take the nonzero-magnitude quantile."""
    pooled = {}
    for start in range(0, samples.shape[0], batch_size):
        for index, act in model.record_activations(samples[start : start + batch_size]).items():
            pooled.setdefault(index, []).append(act.ravel())
    layers = []
    for index, layer in enumerate(model.compute_layers()):
        acts = np.concatenate(pooled[index])
        layers.append(LayerCalibration(
            layer_index=index,
            layer_name=layer.name,
            threshold=magnitude_threshold(acts, ratio, over_nonzero=True),
            signed=bool(np.any(acts < 0)),
            nonzero_density=float(np.count_nonzero(acts) / acts.size),
        ))
    return CalibrationResult(ratio=ratio, layers=layers)


class TestCapture:
    RATIOS = (0.0, 0.005, 0.03, 0.1)

    def test_one_capture_equals_per_ratio_calibration(self, calibrated):
        model, data, _ = calibrated
        samples = data.train_x[:60]  # batches of 32 and 28
        capture = capture_activations(model, samples)
        for ratio in self.RATIOS:
            want = _calibrate_per_ratio(model, samples, ratio)
            assert capture.calibrate(ratio) == want
            assert calibrate_activation_thresholds(model, samples, ratio=ratio) == want

    def test_count_outliers(self):
        act = np.array([[0.0, -3.0, 1.0], [2.5, 0.0, 2.0]])
        assert count_outliers(act, 2.0) == (2, 4)
        assert count_outliers(np.zeros(5), 0.0) == (0, 0)
