"""The accuracy figures score each model once per (top-1, top-k) pair and
capture calibration activations once per model; these tests pin their
results to the two-pass, capture-per-ratio computation they replace."""

import numpy as np
import pytest

from repro.harness import experiments, pretrained
from repro.quant import QuantConfig, QuantizedModel, calibrate_activation_thresholds


def _two_pass(model, x, labels, k=5, batch_size=64):
    """Top-1 from one pass over ``x`` and top-k from a second pass."""
    preds = np.concatenate([model.forward(x[s : s + batch_size]).argmax(axis=1)
                            for s in range(0, x.shape[0], batch_size)])
    hits = 0
    for start in range(0, x.shape[0], batch_size):
        logits = model.forward(x[start : start + batch_size])
        best = np.argpartition(-logits, min(k, logits.shape[1] - 1), axis=1)[:, :k]
        hits += int((best == labels[start : start + batch_size, None]).any(axis=1).sum())
    return float((preds == labels).mean()), hits / x.shape[0]


def _quantized(model, data, ratio, **config):
    cal = calibrate_activation_thresholds(model, data.train_x[:100], ratio=ratio)
    return QuantizedModel(model, cal, QuantConfig(ratio=ratio, **config))


@pytest.fixture
def tiny_minis(monkeypatch, tiny_trained_model, small_dataset):
    """Every accuracy figure runs on the tiny conftest model and dataset."""
    monkeypatch.setattr(pretrained, "trained_mini", lambda name: tiny_trained_model)
    monkeypatch.setattr(pretrained, "default_dataset", lambda: small_dataset)
    return tiny_trained_model, small_dataset


def test_fig2_equals_two_pass_capture_per_ratio(tiny_minis):
    model, data = tiny_minis
    ratios = (0.0, 0.01, 0.035)
    result = experiments.fig2_accuracy_vs_ratio(ratios=ratios)
    fp_top1, fp_top5 = _two_pass(model, data.test_x, data.test_y)
    assert (result.fp_top1, result.fp_top5) == (fp_top1, fp_top5)
    want = [(ratio, *_two_pass(_quantized(model, data, ratio), data.test_x, data.test_y)) for ratio in ratios]
    assert [(p.ratio, p.top1, p.top5) for p in result.points] == want


def test_fig3_equals_two_pass(tiny_minis):
    model, data = tiny_minis
    result = experiments.fig3_accuracy_networks(networks=("alexnet", "resnet"))
    want = []
    for name, first_bits in (("alexnet", 4), ("resnet", 8)):
        ratio = experiments.FIG3_RATIOS[name]
        qm = _quantized(model, data, ratio, first_layer_weight_bits=first_bits)
        want.append((model.name, ratio, *_two_pass(model, data.test_x, data.test_y),
                     *_two_pass(qm, data.test_x, data.test_y)))
    assert [(r.network, r.ratio, r.fp_top1, r.fp_top5, r.oaq_top1, r.oaq_top5) for r in result.rows] == want


def test_fig14_top5_equals_capture_per_ratio(tiny_minis):
    model, data = tiny_minis
    ratios = (0.0, 0.02)
    result = experiments.fig14_ratio_sweep(ratios=ratios)
    want = [_two_pass(_quantized(model, data, ratio), data.test_x, data.test_y)[1] for ratio in ratios]
    assert [p.top5 for p in result.points] == want
