"""Quickstart: outlier-aware quantization + OLAccel simulation in ~60 lines.

Trains a small CNN on a synthetic dataset, applies the paper's 4-bit
outlier-aware quantization (3% outliers at high precision), and compares
it against plain full-range linear 4-bit quantization — then runs the
quantized network through the OLAccel, Eyeriss and ZeNA simulators.

Run:  python examples/quickstart.py
"""

from repro.baselines import EyerissSimulator, ZenaSimulator
from repro.harness import format_table, from_quantized_model
from repro.nn import TrainConfig, make_dataset, mini_alexnet, score, train_model
from repro.olaccel import OLAccelSimulator
from repro.quant import QuantConfig, QuantizedModel, capture_activations


def main():
    # 1. Train a small network (stand-in for a pretrained ImageNet model).
    data = make_dataset(num_classes=10, train_per_class=80, test_per_class=30, seed=1)
    model = mini_alexnet(num_classes=10)
    print("training mini-alexnet ...")
    train_model(model, data.train_x, data.train_y, TrainConfig(epochs=6, lr=0.01))
    fp_top1, _ = score(model, data.test_x, data.test_y)

    # 2. Calibrate per-layer activation thresholds from ~100 sample inputs
    #    (paper Sec. II) and build the 4-bit quantized model.
    #    One activation capture serves every outlier ratio.
    capture = capture_activations(model, data.train_x[:100])
    oaq = QuantizedModel(model, capture.calibrate(0.03), QuantConfig(ratio=0.03))

    # 3. Compare against conventional linear quantization (ratio = 0).
    linear = QuantizedModel(model, capture.calibrate(0.0), QuantConfig(ratio=0.0))

    print(
        format_table(
            ["configuration", "top-1 accuracy"],
            [
                ("full precision", f"{fp_top1:.3f}"),
                ("linear 4-bit (no outliers)", f"{score(linear, data.test_x, data.test_y)[0]:.3f}"),
                ("outlier-aware 4-bit (3%)", f"{score(oaq, data.test_x, data.test_y)[0]:.3f}"),
            ],
            title="\naccuracy",
        )
    )

    # 4. Simulate the quantized network on the three accelerators.
    stats = oaq.measure_layer_stats(data.test_x[:30])
    workload = from_quantized_model(model, stats, data.test_x[:1])
    runs = {
        "eyeriss16": EyerissSimulator().simulate_network(workload),
        "zena16": ZenaSimulator().simulate_network(workload),
        "olaccel16": OLAccelSimulator().simulate_network(workload),
    }
    reference = runs["eyeriss16"]
    rows = [
        (name, f"{run.total_cycles / reference.total_cycles:.3f}",
         f"{run.total_energy.total / reference.total_energy.total:.3f}")
        for name, run in runs.items()
    ]
    print(format_table(["accelerator", "cycles", "energy"], rows,
                       title="\nsimulation (normalized to eyeriss16)"))


if __name__ == "__main__":
    main()
