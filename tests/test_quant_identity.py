"""The one-pass activation fake-quant against the multi-pass formula it replaced.

``LinearQuantizer.float_levels``/``roundtrip`` and
``QuantizedModel._quantize_input`` quantize each tensor in one buffer. Each
test below pins them to an in-test copy of the old formula (divide, ``rint``,
clip, int64, clip again, float64, scale) byte for byte: ``.tobytes()``
compares the sign of zero too, which ``np.array_equal`` would not.
"""

import warnings

import numpy as np
import pytest

from repro.nn import mini_alexnet
from repro.quant import (
    CalibrationResult,
    LayerCalibration,
    LinearQuantizer,
    OutlierQuantConfig,
    QuantConfig,
    QuantizedModel,
    calibrate_activation_thresholds,
    quantize_activations,
    quantize_weights,
    signed_levels,
    unsigned_levels,
)


def old_quantize(x, q):
    """``LinearQuantizer.quantize`` before the one-pass rewrite."""
    levels = np.rint(np.asarray(x) / q.delta)
    return np.clip(levels, q.min_level, q.max_level).astype(np.int64)


def old_roundtrip(x, q):
    return np.asarray(old_quantize(x, q), dtype=np.float64) * q.delta


def old_oaq_levels(x, threshold, config):
    """``outlier._quantize``'s levels, second clip included."""
    bits = signed_levels if config.signed else unsigned_levels
    normal_max, outlier_max = bits(config.normal_bits), bits(config.outlier_bits)
    delta = threshold / normal_max if threshold > 0 else 1.0
    q = LinearQuantizer(delta=delta, bits=config.outlier_bits, signed=config.signed)
    levels = np.clip(old_quantize(x, q), -outlier_max if config.signed else 0, outlier_max)
    return levels, delta


def old_quantize_input(self, index, x):
    """``QuantizedModel._quantize_input`` before the one-pass rewrite."""
    cfg = self.config
    cal = self.calibration.layers[index]
    if index == 0 or cal.signed:
        max_abs = float(np.abs(x).max()) if x.size else 0.0
        bits = cfg.first_layer_act_bits if index == 0 else cfg.act_outlier_bits
        quantized = old_roundtrip(x, LinearQuantizer.from_range(max_abs, bits=bits, signed=True))
        if self._act_stats_accum is not None:
            self._act_stats_accum[index]["nonzero"] += int(np.count_nonzero(x))
            self._act_stats_accum[index]["total"] += x.size
        return quantized
    oa_config = OutlierQuantConfig(
        ratio=cfg.ratio, normal_bits=cfg.act_bits, outlier_bits=cfg.act_outlier_bits, signed=False
    )
    levels, delta = old_oaq_levels(np.maximum(x, 0.0), cal.threshold, oa_config)
    if self._act_stats_accum is not None:
        acc = self._act_stats_accum[index]
        acc["nonzero"] += int(np.count_nonzero(levels))
        acc["total"] += levels.size
        acc["outliers"] += int((np.abs(levels) > unsigned_levels(cfg.act_bits)).sum())
    return levels.astype(np.float64) * delta


def tricky(rng, shape, scale, dtype=np.float64):
    """Normal data plus the values a fused pass could get wrong."""
    x = rng.normal(scale=scale, size=shape)
    flat = x.reshape(-1)
    flat[::7] = -0.0  # signed zeros in
    flat[1::11] = -1e-9 * scale  # rounds to -0.0
    flat[2::13] = 1e6 * scale  # far above any outlier grid
    flat[3::13] = -1e6 * scale
    return x.astype(dtype)


def same_bytes(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def float32_and_float64(fn, x):
    """``(result, warnings)`` of ``fn`` on a float32 ``x``, then on ``x``
    converted to float64.

    For a subnormal step, which is 0 in float32, the float64 input is the
    reference: the old formula divided by zero there and cast NaN to
    int64, which numpy leaves undefined.
    """
    runs = []
    for arg in (x, x.astype(np.float64)):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = fn(arg)
        runs.append((result, [str(w.message) for w in caught]))
    return runs


QUANTIZERS = {
    "signed4": LinearQuantizer(delta=0.1, bits=4, signed=True),
    "signed16": LinearQuantizer(delta=0.003, bits=16, signed=True),
    "unsigned4": LinearQuantizer(delta=0.1, bits=4, signed=False),
    "unsigned16": LinearQuantizer(delta=0.02, bits=16, signed=False),
    "unsigned8_outliers": LinearQuantizer(delta=0.02, bits=8, signed=False),
    "unit_step": LinearQuantizer(delta=1.0, bits=8, signed=False),
    "subnormal_step": LinearQuantizer.from_range(1e-310, bits=16, signed=True),
    "underflow_step": LinearQuantizer.from_range(5e-324, bits=16, signed=True),
}


class TestLinearQuantizer:
    @pytest.mark.parametrize("name", list(QUANTIZERS))
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_roundtrip_matches_old_formula(self, rng, name, dtype):
        q = QUANTIZERS[name]
        x = tricky(rng, (5, 6, 7), scale=q.max_value / 2, dtype=dtype)
        if dtype == np.float32 and np.float32(q.delta) == 0:
            x.reshape(-1)[4::9] = np.float32(1e-40)  # nonzero in float32, far above the step
            for method in (q.roundtrip, q.quantize, q.float_levels):
                (got, got_warnings), (want, want_warnings) = float32_and_float64(method, x)
                assert same_bytes(got, want), method.__name__
                assert got_warnings == want_warnings == [], method.__name__
            return
        assert same_bytes(q.roundtrip(x), old_roundtrip(x, q))
        assert same_bytes(q.quantize(x), old_quantize(x, q))
        assert same_bytes(q.float_levels(x), old_quantize(x, q).astype(np.float64))

    @pytest.mark.parametrize("name", list(QUANTIZERS))
    def test_signed_zeros_come_out_positive(self, name):
        q = QUANTIZERS[name]
        x = np.array([-0.0, 0.0, -0.4 * q.delta, 0.4 * q.delta])
        assert not np.signbit(q.roundtrip(x)).any()
        assert same_bytes(q.roundtrip(x), old_roundtrip(x, q))

    @pytest.mark.parametrize("shape", [(0,), (0, 3), (4, 0, 2)])
    def test_empty_tensors(self, shape):
        for q in QUANTIZERS.values():
            x = np.zeros(shape)
            assert same_bytes(q.roundtrip(x), old_roundtrip(x, q))

    def test_nonpositive_step_still_raises(self):
        with pytest.raises(ValueError, match="delta must be positive"):
            LinearQuantizer(delta=0.0, bits=4).roundtrip(np.ones(3))

    def test_roundtrip_returns_a_fresh_buffer(self, rng):
        x = rng.normal(size=10)
        kept = x.copy()
        LinearQuantizer(delta=0.1, bits=4).roundtrip(x)
        assert same_bytes(x, kept)


class TestOutlierLevels:
    @pytest.mark.parametrize("ratio", [0.0, 0.03, 0.1])
    @pytest.mark.parametrize("normal_bits,outlier_bits", [(4, 8), (4, 4), (8, 8), (4, 16)])
    def test_weight_levels_unchanged_by_the_single_clip(self, rng, ratio, normal_bits, outlier_bits):
        w = tricky(rng, (8, 4, 3, 3), scale=0.2)
        qt = quantize_weights(w, ratio=ratio, normal_bits=normal_bits, outlier_bits=outlier_bits)
        levels, delta = old_oaq_levels(w, qt.threshold, qt.config)
        assert same_bytes(qt.levels, levels) and qt.delta == delta

    @pytest.mark.parametrize("threshold", [0.0, 0.7, 1e-310])
    @pytest.mark.parametrize("outlier_bits", [8, 16])
    def test_activation_levels_unchanged_by_the_single_clip(self, rng, threshold, outlier_bits):
        a = np.abs(tricky(rng, (4, 5, 6), scale=0.5))
        qt = quantize_activations(a, threshold, outlier_bits=outlier_bits)
        levels, delta = old_oaq_levels(a, threshold, qt.config)
        assert same_bytes(qt.levels, levels) and qt.delta == delta


def handmade_model(config):
    """mini-AlexNet with one calibrated layer per interesting case.

    Layer 0 takes raw input; layer 1 an ordinary threshold; layer 2
    threshold 0 (step 1.0); layer 3 a signed non-first input; layer 4 a
    subnormal threshold; layers 5-7 small ordinary thresholds.
    """
    model = mini_alexnet()
    thresholds = [1.0, 2.5, 0.0, 3.0, 1e-310, 0.3, 0.05, 0.8]
    layers = [
        LayerCalibration(i, f"layer{i}", threshold=t, signed=i in (0, 3), nonzero_density=0.5)
        for i, t in enumerate(thresholds)
    ]
    return QuantizedModel(model, CalibrationResult(ratio=config.ratio, layers=layers), config)


CONFIGS = {
    "16bit_outliers": QuantConfig(ratio=0.03),
    "8bit_outliers": QuantConfig(ratio=0.03, act_outlier_bits=8, first_layer_act_bits=8),
}

INPUTS = {
    "normal": lambda rng: tricky(rng, (3, 4, 5, 5), scale=2.0),
    "float32": lambda rng: tricky(rng, (3, 4, 5, 5), scale=2.0, dtype=np.float32),
    "empty": lambda rng: np.zeros((0, 4, 5, 5)),
    "all_negative_zero": lambda rng: np.full((2, 3), -0.0),
    "subnormal_range": lambda rng: rng.normal(size=(2, 8)) * 1e-310,
    "underflowing_range": lambda rng: np.array([[5e-324, -5e-324, 0.0, -0.0]]),
}


class TestQuantizeInput:
    @pytest.mark.parametrize("config", list(CONFIGS))
    @pytest.mark.parametrize("inputs", list(INPUTS))
    def test_every_layer_kind_matches_old_path(self, rng, config, inputs):
        qm = handmade_model(CONFIGS[config])
        x = INPUTS[inputs](rng)
        for index in range(len(qm.calibration.layers)):
            grid = qm._act_grids[index]
            if x.dtype == np.float32 and grid is not None and np.float32(grid.delta) == 0:
                runs = float32_and_float64(lambda arg: qm._quantize_input(index, arg), x)
                (got, got_warnings), (want, want_warnings) = runs
                assert same_bytes(got, want) and got_warnings == want_warnings, index
                continue
            got = qm._quantize_input(index, x)
            assert same_bytes(got, old_quantize_input(qm, index, x)), index

    @pytest.mark.parametrize("config", list(CONFIGS))
    def test_stats_accumulate_as_old_path(self, rng, config):
        qm = handmade_model(CONFIGS[config])
        x = tricky(rng, (3, 4, 5, 5), scale=2.0)
        books = []
        for quantize in (QuantizedModel._quantize_input, old_quantize_input):
            qm._act_stats_accum = [{"nonzero": 0, "total": 0, "outliers": 0} for _ in qm.calibration.layers]
            for index in range(len(qm.calibration.layers)):
                quantize(qm, index, x)
            books.append(qm._act_stats_accum)
        qm._act_stats_accum = None
        assert books[0] == books[1]
        assert any(acc["outliers"] for acc in books[0])


@pytest.mark.parametrize("config", list(CONFIGS))
def test_forward_and_layer_stats_match_old_path(rng, monkeypatch, config):
    model = mini_alexnet()
    images = rng.normal(size=(24, 3, 32, 32))
    cal = calibrate_activation_thresholds(model, images[:12], ratio=0.03)
    qm = QuantizedModel(model, cal, CONFIGS[config])
    runs = []
    for quantize in (QuantizedModel._quantize_input, old_quantize_input):
        monkeypatch.setattr(QuantizedModel, "_quantize_input", quantize)
        runs.append((qm.forward(images[12:]).tobytes(), qm.measure_layer_stats(images, batch_size=10)))
    assert runs[0][0] == runs[1][0]
    assert runs[0][1] == runs[1][1]
    assert any(s.act_outlier_ratio > 0 for s in runs[0][1])
