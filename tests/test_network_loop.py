"""The network loop every analytic simulator shares.

``simulate_network`` must return exactly the per-layer results of
``simulate_layer``, except that the last layer also pays the DRAM write
of the network's output at the accelerator's I/O width. The shared DRAM
term must leave the arrays a batched run hands it as they were.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.arch.stats import RunStats
from repro.arch.workload import NetworkWorkload
from repro.harness.experiments import ALL_ACCELERATORS, _simulator
from repro.harness.workloads import paper_workload
from repro.olaccel import OLAccelSimulator, olaccel16


@pytest.fixture(scope="module")
def vgg16():
    return paper_workload("vgg16")


@pytest.mark.parametrize("kind", ALL_ACCELERATORS)
def test_network_is_its_layers_plus_the_output_write(kind, vgg16):
    sim = _simulator(kind, "vgg16")
    run = sim.simulate_network(vgg16)
    single = [sim.simulate_layer(layer) for layer in vgg16.layers]
    assert len(run.layers) == len(single) == len(vgg16.layers)
    assert run.layers[:-1] == single[:-1]

    cfg = sim.config
    io_bits = cfg.act_bits if isinstance(sim, OLAccelSimulator) else cfg.bits
    output_write = sim.energy.dram_energy(vgg16.layers[-1].output_count * io_bits)
    assert output_write > 0.0
    assert run.layers[-1].energy.dram == single[-1].energy.dram + output_write


@pytest.mark.parametrize("kind", ALL_ACCELERATORS)
def test_empty_network_has_no_layers(kind):
    run = _simulator(kind, "alexnet").simulate_network(NetworkWorkload("empty", ()))
    assert isinstance(run, RunStats)
    assert run.network == "empty" and run.layers == []


@pytest.mark.parametrize("is_first", [False, True])
def test_dram_energy_leaves_array_arguments_alone(is_first):
    # A batch may hand in per-design arrays; the caller reads them again.
    sim = OLAccelSimulator(olaccel16(swarm_buffer_bytes=64 * 1024))
    weight_bits = np.array([1.0e5, 3.5e6, 0.0, 2.25e7])
    in_bits = np.array([1.0e5, 8.0e5, 2.0e6, 0.5])
    out_bits = np.array([2.0e5, 1.0e5, 4.0e6, 0.25])
    args = [a.copy() for a in (weight_bits, in_bits, out_bits)]
    got = sim._dram_energy(weight_bits, in_bits, out_bits, is_first)
    for arg, before in zip((weight_bits, in_bits, out_bits), args):
        assert np.array_equal(arg, before)
    want = [
        sim._dram_energy(float(w), float(i), float(o), is_first)
        for w, i, o in zip(weight_bits, in_bits, out_bits)
    ]
    assert got.tolist() == want
