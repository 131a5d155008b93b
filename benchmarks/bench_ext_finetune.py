"""Extension: fine-tuning the first layer down to 4-bit weights.

The paper's footnotes 1 and 6: "fine-tuning can reduce the bitwidth of
weights from 8 to 4 bits for the first convolutional layer", which halves
the dense first-layer pass factor and speeds up ResNet-style networks
where that layer dominates OLAccel's cycles.

This bench (a) STE-fine-tunes the mini ResNet with 4-bit first-layer
weights and shows accuracy survives, and (b) quantifies the cycle win on
the paper-shape ResNet-18 when the first layer's weights drop to 4 bits.
"""

from dataclasses import replace

from repro.harness import default_dataset, memory_bytes, paper_workload, trained_mini
from repro.nn import score
from repro.olaccel import OLAccelSimulator, olaccel16
from repro.quant import (
    FinetuneConfig,
    QuantConfig,
    QuantizedModel,
    calibrate_activation_thresholds,
    finetune_quantized,
)


def run_finetune():
    model = trained_mini("resnet")
    data = default_dataset()
    saved = [p.value.copy() for p in model.parameters()]
    quant4 = QuantConfig(ratio=0.03, first_layer_weight_bits=4)
    try:
        cal = calibrate_activation_thresholds(model, data.train_x[:100], ratio=0.03)
        _, before = score(QuantizedModel(model, cal, quant4), data.test_x, data.test_y)
        finetune_quantized(model, data.train_x, data.train_y, quant4, FinetuneConfig(epochs=2))
        cal2 = calibrate_activation_thresholds(model, data.train_x[:100], ratio=0.03)
        _, after = score(QuantizedModel(model, cal2, quant4), data.test_x, data.test_y)
    finally:
        for p, s in zip(model.parameters(), saved):
            p.value = s
    return before, after


def test_finetune_first_layer(run_once):
    before, after = run_once(run_finetune)
    print(f"\nmini-resnet 4-bit first layer top-5: {before:.3f} -> {after:.3f} after fine-tuning")
    assert after >= before - 0.02  # fine-tuning does not hurt, usually helps

    # Hardware payoff: first layer at 4-bit weights halves its dense factor.
    workload8 = paper_workload("resnet18")
    layers4 = tuple(
        replace(l, first_weight_bits=4) if l.is_first else l for l in workload8.layers
    )
    workload4 = replace(workload8, layers=layers4)
    sim = OLAccelSimulator(olaccel16(memory_bytes("resnet18", 16)))
    cycles8 = sim.simulate_network(workload8).total_cycles
    cycles4 = sim.simulate_network(workload4).total_cycles
    speedup = cycles8 / cycles4
    print(f"resnet18 cycles with 8-bit vs 4-bit first-layer weights: x{speedup:.3f} speedup")
    assert 1.2 < speedup < 2.0  # conv1 was ~half the cycles at 8x factor
