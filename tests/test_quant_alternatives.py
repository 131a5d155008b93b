"""Tests for alternative quantizers and STE fine-tuning (Sec. VI context)."""

import numpy as np
import pytest

from repro.quant import (
    QUANTIZER_REGISTRY,
    QuantConfig,
    compare_quantizers,
    finetune_quantized,
    FinetuneConfig,
    quantize_balanced,
    quantize_clipped,
    quantize_log,
    quantized_weight_view,
)


def heavy_tailed(rng, n=10000, tail=0.02, scale=8.0):
    x = rng.normal(0, 1.0, size=n)
    idx = rng.random(n) < tail
    x[idx] *= scale
    return x


class TestClipped:
    def test_saturates_outliers(self, rng):
        x = heavy_tailed(rng)
        out = quantize_clipped(x, bits=4, clip_quantile=0.95)
        clip = np.quantile(np.abs(x), 0.95)
        assert np.abs(out).max() <= clip + 1e-9

    def test_beats_full_range_linear_on_bulk(self, rng):
        x = heavy_tailed(rng, scale=12.0)
        results = compare_quantizers(x, bits=4, names=["linear", "clipped"])
        assert results["clipped"]["mse"] < results["linear"]["mse"]

    def test_invalid_quantile(self, rng):
        with pytest.raises(ValueError):
            quantize_clipped(rng.normal(size=10), clip_quantile=0.0)

    def test_empty(self):
        assert quantize_clipped(np.zeros(0)).size == 0


class TestLog:
    def test_levels_are_powers_of_two(self, rng):
        x = heavy_tailed(rng)
        out = quantize_log(x, bits=4)
        nonzero = np.abs(out[out != 0])
        exponents = np.log2(nonzero)
        np.testing.assert_allclose(exponents, np.rint(exponents), atol=1e-9)

    def test_covers_wide_dynamic_range(self, rng):
        """Log grids represent both tiny and huge values — their selling point."""
        x = np.array([0.01, 0.1, 1.0, 10.0, 100.0])
        out = quantize_log(x, bits=6)
        relative_err = np.abs(out - x) / x
        assert relative_err.max() < 0.5

    def test_all_zero(self):
        np.testing.assert_array_equal(quantize_log(np.zeros(5)), np.zeros(5))

    def test_sign_preserved(self, rng):
        x = rng.normal(size=100)
        out = quantize_log(x, bits=5)
        mask = out != 0
        np.testing.assert_array_equal(np.sign(out[mask]), np.sign(x[mask]))


class TestBalanced:
    def test_levels_equally_populated(self, rng):
        x = rng.normal(size=16000)
        out = quantize_balanced(x, bits=3)
        _, counts = np.unique(out, return_counts=True)
        assert counts.size <= 8
        assert counts.min() > counts.max() * 0.5  # roughly balanced

    def test_constant_input(self):
        out = quantize_balanced(np.full(10, 3.0), bits=4)
        np.testing.assert_allclose(out, 3.0)

    def test_reduces_error_vs_linear_on_skewed(self, rng):
        x = np.exp(rng.normal(size=8000))  # log-normal: very skewed
        results = compare_quantizers(x, bits=4, names=["linear", "balanced"])
        assert results["balanced"]["mse"] < results["linear"]["mse"]


class TestComparison:
    def test_registry_complete(self):
        assert set(QUANTIZER_REGISTRY) == {"linear", "clipped", "log", "balanced", "oaq"}

    def test_oaq_wins_on_heavy_tails(self, rng):
        """The paper's positioning: at 4 bits on outlier-heavy weights,
        OAQ has the lowest error of all retraining-free methods."""
        x = heavy_tailed(rng, tail=0.02, scale=10.0)
        results = compare_quantizers(x, bits=4)
        oaq_mse = results["oaq"]["mse"]
        for name, metrics in results.items():
            if name != "oaq":
                assert oaq_mse < metrics["mse"], name


class TestFinetune:
    def test_loss_decreases(self, tiny_trained_model, small_dataset):
        import copy

        model = tiny_trained_model
        saved = [p.value.copy() for p in model.parameters()]
        try:
            losses = finetune_quantized(
                model,
                small_dataset.train_x,
                small_dataset.train_y,
                QuantConfig(ratio=0.03),
                FinetuneConfig(epochs=2, lr=0.002),
            )
            assert losses[-1] <= losses[0] * 1.2
        finally:
            for p, s in zip(model.parameters(), saved):
                p.value = s

    def test_masters_restored_each_step(self, tiny_trained_model, small_dataset):
        """After fine-tuning, weights are full precision (not grid-snapped)."""
        model = tiny_trained_model
        saved = [p.value.copy() for p in model.parameters()]
        try:
            finetune_quantized(
                model,
                small_dataset.train_x[:64],
                small_dataset.train_y[:64],
                QuantConfig(ratio=0.03),
                FinetuneConfig(epochs=1),
            )
            w = model.compute_layers()[1].weight.value
            view = quantized_weight_view(model, QuantConfig(ratio=0.03))[1]
            assert not np.allclose(w, view)  # masters kept off-grid
        finally:
            for p, s in zip(model.parameters(), saved):
                p.value = s

    def test_quantized_weight_view_first_layer_bits(self, tiny_trained_model):
        views8 = quantized_weight_view(tiny_trained_model, QuantConfig(first_layer_weight_bits=8))
        views4 = quantized_weight_view(tiny_trained_model, QuantConfig(first_layer_weight_bits=4))
        first = tiny_trained_model.compute_layers()[0].weight.value
        err8 = np.abs(views8[0] - first).mean()
        err4 = np.abs(views4[0] - first).mean()
        assert err8 < err4  # 8-bit grid is finer

    def test_finetuning_recovers_4bit_first_layer(self, small_dataset):
        """The paper's footnote: fine-tuning lets the first layer drop to
        4-bit weights without the accuracy penalty."""
        from repro.nn import TrainConfig, mini_alexnet, score, train_model
        from repro.quant import QuantizedModel, calibrate_activation_thresholds

        model = mini_alexnet(num_classes=small_dataset.num_classes, seed=21)
        train_model(model, small_dataset.train_x, small_dataset.train_y,
                    TrainConfig(epochs=4, lr=0.01, seed=1))
        quant = QuantConfig(ratio=0.03, first_layer_weight_bits=4)
        cal = calibrate_activation_thresholds(model, small_dataset.train_x[:60], ratio=0.03)
        before, _ = score(QuantizedModel(model, cal, quant), small_dataset.test_x, small_dataset.test_y)

        finetune_quantized(model, small_dataset.train_x, small_dataset.train_y, quant,
                           FinetuneConfig(epochs=2, lr=0.002))
        cal2 = calibrate_activation_thresholds(model, small_dataset.train_x[:60], ratio=0.03)
        after, _ = score(QuantizedModel(model, cal2, quant), small_dataset.test_x, small_dataset.test_y)
        assert after >= before - 0.05  # fine-tuning does not hurt; usually helps
