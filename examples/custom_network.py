"""Bring your own network: quantize and simulate a custom CNN.

Shows the full downstream-user workflow on a hand-built architecture
(residual blocks + batch norm): train it, calibrate OAQ thresholds,
inspect per-layer quantization statistics, pack real weight chunks, run
the bit-exact OLAccel integer datapath on one convolution, and simulate
the whole network's cycles/energy.

Run:  python examples/custom_network.py
"""

import numpy as np

from repro.arch import pack_weights
from repro.harness import format_table, from_quantized_model
from repro.nn import (
    BatchNorm2d,
    Conv2d,
    Flatten,
    GlobalAvgPool,
    Linear,
    MaxPool2d,
    Model,
    ReLU,
    ResidualBlock,
    TrainConfig,
    make_dataset,
    score,
    train_model,
)
from repro.olaccel import OLAccelSimulator, olaccel_conv2d, reference_conv2d_int
from repro.quant import QuantConfig, QuantizedModel, calibrate_activation_thresholds, quantize_weights


def build_custom(num_classes: int) -> Model:
    rng = np.random.default_rng(42)
    return Model(
        [
            Conv2d(3, 24, kernel=3, pad=1, name="stem", rng=rng),
            ReLU(),
            MaxPool2d(2),
            ResidualBlock(
                body=[
                    Conv2d(24, 24, kernel=3, pad=1, bias=False, name="res.a", rng=rng),
                    BatchNorm2d(24, name="res.a.bn"),
                    ReLU(),
                    Conv2d(24, 24, kernel=3, pad=1, bias=False, name="res.b", rng=rng),
                    BatchNorm2d(24, name="res.b.bn"),
                ]
            ),
            Conv2d(24, 48, kernel=3, stride=2, pad=1, name="down", rng=rng),
            ReLU(),
            GlobalAvgPool(),
            Linear(48, num_classes, name="head", rng=rng),
        ],
        name="custom-resnet",
    )


def main():
    data = make_dataset(num_classes=8, train_per_class=60, test_per_class=25, seed=5)
    model = build_custom(data.num_classes)
    print("training custom network ...")
    train_model(model, data.train_x, data.train_y, TrainConfig(epochs=6, lr=0.01))

    calibration = calibrate_activation_thresholds(model, data.train_x[:80], ratio=0.03)
    qmodel = QuantizedModel(model, calibration, QuantConfig(ratio=0.03))
    print(f"full precision top-1: {score(model, data.test_x, data.test_y)[0]:.3f}")
    print(f"OAQ 4-bit top-1:      {score(qmodel, data.test_x, data.test_y)[0]:.3f}")

    # Per-layer quantization statistics drive the hardware simulation.
    stats = qmodel.measure_layer_stats(data.test_x[:30])
    rows = [
        (s.layer_name, f"{s.weight_outlier_ratio:.3f}", f"{s.act_density:.3f}", f"{s.act_outlier_ratio:.3f}")
        for s in stats
    ]
    print(format_table(["layer", "w outliers", "act density", "act outliers"], rows,
                       title="\nper-layer quantization statistics"))

    # Pack one layer's integer weights into real 80-bit chunks (Fig. 5).
    conv = model.compute_layers()[1]
    qt = quantize_weights(conv.weight.value, ratio=0.03)
    packed = pack_weights(qt.levels.reshape(qt.levels.shape[0], -1))
    print(
        f"\n{conv.name}: {packed.total_chunks} weight chunks "
        f"({packed.single_outlier_chunks} single-outlier, "
        f"{packed.multi_outlier_chunks} spilled), {packed.total_bits / 8 / 1024:.2f} KiB"
    )

    # Bit-exact integer datapath check on a real activation tensor.
    acts = np.clip(np.rint(np.abs(data.test_x[:1]) * 10), 0, 60).astype(np.int64)
    acts = np.repeat(acts, 8, axis=1)[:, : qt.levels.shape[1]]
    result = olaccel_conv2d(acts, qt.levels, pad=1)
    exact = np.array_equal(result.psum, reference_conv2d_int(acts, qt.levels, pad=1))
    print(f"bit-exact OLAccel datapath vs integer reference: {exact}")

    # Whole-network cycle/energy simulation.
    workload = from_quantized_model(model, stats, data.test_x[:1])
    run = OLAccelSimulator().simulate_network(workload)
    print(f"\nOLAccel16: {run.total_cycles:.3e} cycles, "
          f"{run.total_energy.total / 1e6:.2f} uJ "
          f"(dram {run.total_energy.dram / run.total_energy.total:.0%})")


if __name__ == "__main__":
    main()
