"""End-to-end integration tests: the full pipeline from training through
quantization, chunk packing, bit-exact execution, and simulation."""

import numpy as np
import pytest

from repro.arch import pack_weights
from repro.baselines import EyerissSimulator, ZenaSimulator
from repro.harness import from_quantized_model
from repro.nn import prune_model
from repro.olaccel import (
    ClusterSim,
    OLAccelSimulator,
    olaccel_conv2d,
    passes_from_levels,
    reference_conv2d_int,
)
from repro.quant import (
    QuantConfig,
    QuantizedModel,
    calibrate_activation_thresholds,
    quantize_activations,
    quantize_weights,
)
from repro.reference import decode_table, encode_table, packed_from_chunks


@pytest.fixture(scope="module")
def pipeline(tiny_trained_model, small_dataset):
    """Trained model -> calibration -> quantized model -> measured stats."""
    cal = calibrate_activation_thresholds(tiny_trained_model, small_dataset.train_x[:60], ratio=0.03)
    qm = QuantizedModel(tiny_trained_model, cal, QuantConfig(ratio=0.03))
    stats = qm.measure_layer_stats(small_dataset.test_x[:30])
    return tiny_trained_model, small_dataset, cal, qm, stats


class TestFullPipeline:
    def test_workload_from_real_model(self, pipeline):
        model, data, _, _, stats = pipeline
        workload = from_quantized_model(model, stats, data.test_x[:1])
        assert len(workload.layers) == len(model.compute_layers())
        assert workload.layers[0].is_first
        # Conv geometry agrees with the model's actual MAC work.
        conv1 = workload.layers[0]
        layer = model.compute_layers()[0]
        assert conv1.weight_count == layer.weight.value.size

    def test_all_three_simulators_run_real_workload(self, pipeline):
        model, data, _, _, stats = pipeline
        workload = from_quantized_model(model, stats, data.test_x[:1])
        ol = OLAccelSimulator().simulate_network(workload)
        ey = EyerissSimulator().simulate_network(workload)
        ze = ZenaSimulator().simulate_network(workload)
        assert ol.total_cycles < ey.total_cycles  # 768 vs 165 lanes
        assert ze.total_cycles <= ey.total_cycles * 1.01
        for run in (ol, ey, ze):
            assert run.total_energy.total > 0
            assert len(run.layers) == len(workload.layers)

    def test_pruning_feeds_zena_speedup(self, pipeline):
        model, data, _, qm, _ = pipeline
        workload_dense = from_quantized_model(model, qm.measure_layer_stats(data.test_x[:20]), data.test_x[:1])
        saved = [l.weight.value.copy() for l in model.compute_layers()]
        try:
            prune_model(model, density=0.4)
            qm2 = QuantizedModel(model, qm.calibration, QuantConfig(ratio=0.03))
            workload_pruned = from_quantized_model(model, qm2.measure_layer_stats(data.test_x[:20]), data.test_x[:1])
        finally:
            for layer, w in zip(model.compute_layers(), saved):
                layer.weight.value = w
        dense = ZenaSimulator().simulate_network(workload_dense).total_cycles
        pruned = ZenaSimulator().simulate_network(workload_pruned).total_cycles
        assert pruned < dense * 0.7

    def test_real_quantized_layer_bit_exact_through_chunks(self, pipeline):
        """Quantize a real trained conv layer, serialize its chunks to
        80-bit words, run the functional datapath, compare to reference."""
        model, data, cal, _, _ = pipeline
        conv = model.compute_layers()[1]
        wq = quantize_weights(conv.weight.value, ratio=0.03)
        w_levels = wq.levels.reshape(wq.levels.shape[0], -1)

        # Real activations for that layer, quantized on its calibrated grid.
        acts = model.record_activations(data.test_x[:1])[1]
        aq = quantize_activations(np.maximum(acts[0], 0.0), threshold=cal.layers[1].threshold)

        packed = pack_weights(w_levels)
        base_words, spill_words = encode_table(packed.base_chunks, packed.spill_chunks)
        bases, spills = decode_table(base_words, spill_words)
        packed = packed_from_chunks(bases, spills, packed.n_groups, packed.reduction, packed.out_channels)

        act_tensor = aq.levels[None]
        result = olaccel_conv2d(act_tensor, wq.levels, stride=conv.stride, pad=conv.pad, packed=packed)
        reference = reference_conv2d_int(act_tensor, wq.levels, stride=conv.stride, pad=conv.pad)
        np.testing.assert_array_equal(result.psum, reference)
        assert not result.saturated  # 24-bit accumulators suffice (Sec. III-B)

    def test_dequantized_psum_approximates_float_conv(self, pipeline):
        """Integer psums, rescaled by the two deltas, track the float conv."""
        from repro.nn import functional as F

        model, data, cal, _, _ = pipeline
        conv = model.compute_layers()[1]
        wq = quantize_weights(conv.weight.value, ratio=0.03)
        acts = model.record_activations(data.test_x[:1])[1]
        acts_relu = np.maximum(acts, 0.0)
        aq = quantize_activations(acts_relu[0], threshold=cal.layers[1].threshold)

        result = olaccel_conv2d(aq.levels[None], wq.levels, stride=conv.stride, pad=conv.pad)
        approx = result.psum.astype(np.float64) * wq.delta * aq.delta
        exact, _ = F.conv2d(acts_relu, conv.weight.value, None, conv.stride, conv.pad)
        scale = np.abs(exact).max()
        assert np.abs(approx - exact).max() / scale < 0.1

    def test_event_sim_on_real_quantized_activations(self, pipeline):
        """The cycle-stepped cluster chews through real quantized data."""
        model, data, cal, _, _ = pipeline
        acts = model.record_activations(data.test_x[:1])[1]
        aq = quantize_activations(np.maximum(acts[0], 0.0), threshold=cal.layers[1].threshold)
        normal = np.where(aq.levels > 15, 0, aq.levels)
        channels = normal.reshape(normal.shape[0], -1).T  # (pixels, C)
        n_chunks = channels.shape[1] // 16
        if n_chunks == 0:
            pytest.skip("layer too narrow for a 16-channel chunk")
        levels = channels[:, : n_chunks * 16].reshape(-1, 16)
        result = ClusterSim(n_groups=6).run(passes_from_levels(levels[:500]))
        assert result.passes == min(500, levels.shape[0])
        assert result.tri_buffer_conflict_free

    def test_quantized_model_and_simulator_agree_on_density(self, pipeline):
        """Densities measured by the quantized model match what the
        workload carries into the simulators."""
        model, data, _, _, stats = pipeline
        workload = from_quantized_model(model, stats, data.test_x[:1])
        for stat, layer in zip(stats, workload.layers):
            assert layer.act_density == pytest.approx(stat.act_density)
            assert layer.weight_density == pytest.approx(stat.weight_density)
