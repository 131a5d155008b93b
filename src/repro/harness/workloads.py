"""Workload construction for the performance experiments.

Builds :class:`~repro.arch.workload.NetworkWorkload` objects from either
the paper-shape specs (Figs. 11-15, 18, 19) or a measured quantized mini
model, applies the paper's evaluation conventions (conv layers only, as in
Eyeriss/ZeNA-era comparisons — Figs. 11/13 label layers C1..C5 and Fig. 18
covers "the convolutional layers"), and carries Table I's per-network
on-chip memory sizes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from ..arch.workload import LayerWorkload, NetworkWorkload, from_spec
from ..constants import MEMORY_TABLE
from ..errors import ConfigError
from ..nn.zoo_paper import build_paper

if TYPE_CHECKING:
    import numpy as np

    from ..nn.model import Model
    from ..quant.qmodel import LayerQuantStats

__all__ = [
    "MEMORY_TABLE",
    "check_network",
    "memory_bytes",
    "conv_only",
    "paper_workload",
    "from_quantized_model",
]


def check_network(network: str) -> None:
    """Refuse a network with no paper workload and memory budget."""
    if network not in MEMORY_TABLE:
        raise ConfigError(
            f"unknown network {network!r}; available: {', '.join(sorted(MEMORY_TABLE))}",
            field="network",
        )


def memory_bytes(network: str, bits: int) -> int:
    """On-chip memory budget for a network at a comparison precision."""
    if network not in MEMORY_TABLE:
        raise KeyError(f"no memory budget recorded for network {network!r}")
    mem16, mem8 = MEMORY_TABLE[network]
    if bits == 16:
        return mem16
    if bits == 8:
        return mem8
    raise ValueError(f"comparison precision must be 16 or 8, got {bits}")


def conv_only(network: NetworkWorkload) -> NetworkWorkload:
    """Restrict a workload to its convolutional layers (the paper's scope)."""
    layers = tuple(layer for layer in network.layers if layer.kind == "conv")
    if not layers:
        raise ValueError(f"network {network.name!r} has no conv layers")
    return NetworkWorkload(network.name, layers)


def paper_workload(
    name: str,
    ratio: float = 0.03,
    include_fc: bool = False,
) -> NetworkWorkload:
    """Build the evaluation workload for a paper network.

    ``ratio`` sets both activation and weight outlier ratios (the paper's
    default 3%); pass ``include_fc=True`` to extend beyond the paper's
    conv-only scope.
    """
    net = from_spec(build_paper(name), act_outlier_ratio=ratio, weight_outlier_ratio=ratio)
    return net if include_fc else conv_only(net)


def from_quantized_model(
    model: Model,
    stats: List[LayerQuantStats],
    sample_input: np.ndarray,
    name: Optional[str] = None,
) -> NetworkWorkload:
    """Build a workload from a trained mini model's measured statistics.

    ``stats`` comes from :meth:`repro.quant.QuantizedModel.measure_layer_stats`;
    geometry is read off the model's layers and a single forward pass over
    ``sample_input`` (which provides each layer's input tensor shape).
    """
    from ..nn.layers import Conv2d, Linear

    compute = model.compute_layers()
    if len(stats) != len(compute):
        raise ValueError(f"stats cover {len(stats)} layers but the model has {len(compute)}")
    captured = model.record_activations(sample_input[:1])

    layers: List[LayerWorkload] = []
    for index, layer in enumerate(compute):
        shape = captured[index].shape
        stat = stats[index]
        if isinstance(layer, Conv2d):
            _, in_c, in_h, in_w = shape
            out_h = (in_h + 2 * layer.pad - layer.kernel) // layer.stride + 1
            out_w = (in_w + 2 * layer.pad - layer.kernel) // layer.stride + 1
            weight_count = layer.weight.value.size  # correct for grouped convs too
            layers.append(
                LayerWorkload(
                    name=stat.layer_name,
                    kind="conv",
                    macs=out_h * out_w * weight_count,
                    weight_count=weight_count,
                    input_count=in_c * in_h * in_w,
                    output_count=layer.out_channels * out_h * out_w,
                    out_channels=layer.out_channels,
                    kernel=layer.kernel,
                    stride=layer.stride,
                    act_density=stat.act_density,
                    weight_density=stat.weight_density,
                    act_outlier_ratio=stat.act_outlier_ratio,
                    weight_outlier_ratio=stat.weight_outlier_ratio,
                    is_first=stat.is_first,
                )
            )
        elif isinstance(layer, Linear):
            layers.append(
                LayerWorkload(
                    name=stat.layer_name,
                    kind="fc",
                    macs=layer.out_features * layer.in_features,
                    weight_count=layer.out_features * layer.in_features,
                    input_count=layer.in_features,
                    output_count=layer.out_features,
                    out_channels=layer.out_features,
                    act_density=stat.act_density,
                    weight_density=stat.weight_density,
                    act_outlier_ratio=stat.act_outlier_ratio,
                    weight_outlier_ratio=stat.weight_outlier_ratio,
                    is_first=stat.is_first,
                )
            )
        else:  # pragma: no cover - compute_layers only yields Conv2d/Linear
            raise TypeError(f"unsupported compute layer {type(layer).__name__}")
    return NetworkWorkload(name or model.name, tuple(layers))
