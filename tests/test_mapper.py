"""Tests for the model -> layer-program compiler (repro.olaccel.mapper)."""

import numpy as np
import pytest

from repro.nn import score
from repro.olaccel import olaccel_conv2d, reference_conv2d_int
from repro.olaccel.mapper import compile_model
from repro.quant import QuantConfig, QuantizedModel, calibrate_activation_thresholds


@pytest.fixture(scope="module")
def program(tiny_trained_model, small_dataset):
    cal = calibrate_activation_thresholds(tiny_trained_model, small_dataset.train_x[:60], ratio=0.03)
    return compile_model(tiny_trained_model, cal, QuantConfig(ratio=0.03)), small_dataset


class TestCompile:
    def test_one_program_per_compute_layer(self, program, tiny_trained_model):
        prog, _ = program
        assert len(prog.layers) == len(tiny_trained_model.compute_layers())

    def test_first_layer_flagged(self, program):
        prog, _ = program
        assert prog.layers[0].is_first
        assert not prog.layers[1].is_first

    def test_packed_tables_unpack_to_levels(self, program):
        prog, _ = program
        for layer_prog in prog.layers:
            levels = layer_prog.weight_levels.reshape(layer_prog.weight_levels.shape[0], -1)
            np.testing.assert_array_equal(layer_prog.packed.unpack(), levels)

    def test_words_serialized_when_spills_fit(self, program):
        prog, _ = program
        for layer_prog in prog.layers:
            if len(layer_prog.packed.spill_chunks) <= 254:
                assert len(layer_prog.base_words) == len(layer_prog.packed.base_chunks)
                assert layer_prog.weight_buffer_bits > 0

    def test_conv_programs_have_tiling(self, program):
        prog, _ = program
        convs = [p for p in prog.layers if p.kind == "conv"]
        fcs = [p for p in prog.layers if p.kind == "fc"]
        assert convs and fcs
        assert all(p.tiling is not None for p in convs)
        assert all(p.tiling is None for p in fcs)

    def test_summary_mentions_all_layers(self, program):
        prog, _ = program
        text = prog.summary()
        for layer_prog in prog.layers:
            assert layer_prog.name in text


class TestProgramExecution:
    def test_program_matches_fake_quant(self, program, tiny_trained_model):
        """ModelProgram.run == the fake-quant executor's logits."""
        prog, data = program
        cal = prog.calibration
        reference = QuantizedModel(tiny_trained_model, cal, prog.quant)
        x = data.test_x[:12]
        np.testing.assert_allclose(prog.run(x), reference.forward(x), atol=1e-10)

    def test_program_conv_layer_bit_exact_on_datapath(self, program):
        """A compiled conv layer's packed table drives the integer datapath
        to reference-exact partial sums."""
        prog, _ = program
        conv = next(p for p in prog.layers[1:] if p.kind == "conv")
        rng = np.random.default_rng(3)
        c_in = conv.weight_levels.shape[1]
        acts = rng.integers(0, 20, size=(1, c_in, 6, 6))
        result = olaccel_conv2d(acts, conv.weight_levels, stride=conv.stride, pad=conv.pad,
                                packed=conv.packed)
        expected = reference_conv2d_int(acts, conv.weight_levels, stride=conv.stride, pad=conv.pad)
        np.testing.assert_array_equal(result.psum, expected)

    def test_program_accuracy_close_to_float(self, program, tiny_trained_model):
        prog, data = program
        logits = prog.run(data.test_x)
        acc = (logits.argmax(axis=1) == data.test_y).mean()
        fp, _ = score(tiny_trained_model, data.test_x, data.test_y)
        assert acc >= fp - 0.25
