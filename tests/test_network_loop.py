"""The network loop every analytic simulator shares.

``simulate_network`` must return exactly the per-layer results of
``simulate_layer``, except that the last layer also pays the DRAM write
of the network's output at the accelerator's I/O width.
"""

from __future__ import annotations

import pytest

from repro.arch.stats import RunStats
from repro.arch.workload import NetworkWorkload
from repro.harness.experiments import ALL_ACCELERATORS, _simulator
from repro.harness.workloads import paper_workload
from repro.olaccel import OLAccelSimulator


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
