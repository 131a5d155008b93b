"""Architecture-neutral layer workload description.

All three simulated accelerators (OLAccel, Eyeriss, ZeNA) consume the same
:class:`LayerWorkload` record: pure geometry plus density/outlier
statistics. Workloads come from two sources:

- :func:`from_spec` — the paper-shape networks in
  :mod:`repro.nn.zoo_paper`, with literature-derived densities (used for
  the performance figures);
- :func:`repro.harness.workloads.from_quantized_model` — measured
  statistics of a trained+quantized mini model (used for end-to-end runs).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List

from ..errors import ConfigError
from ..nn.zoo_paper import LayerSpec, NetworkSpec

__all__ = ["LayerWorkload", "NetworkWorkload", "from_spec", "is_fraction", "check_ratio"]


def is_fraction(value: float) -> bool:
    """Whether ``value`` lies in [0, 1] (nan does not): the range
    :class:`LayerWorkload` holds every density and outlier ratio to."""
    return 0.0 <= value <= 1.0


def check_ratio(ratio: float) -> None:
    """Refuse an outlier ratio no :class:`LayerWorkload` can hold."""
    if not is_fraction(ratio):
        raise ConfigError(f"outlier ratio must be in [0, 1], got {ratio}", field="ratio")


@dataclass(frozen=True)
class LayerWorkload:
    """One compute layer as the accelerator simulators see it.

    ``act_density`` is the nonzero fraction of input activations
    (including outliers); ``act_outlier_ratio`` the outlier fraction of
    the *nonzero* inputs; ``weight_outlier_ratio`` the outlier fraction of
    all weights. ``first_weight_bits`` is the dense weight precision used
    when ``is_first`` (Sec. II: 8 for ResNet-18/101, else 4).
    """

    name: str
    kind: str  # "conv" or "fc"
    macs: int
    weight_count: int
    input_count: int
    output_count: int
    out_channels: int
    kernel: int = 1
    stride: int = 1
    act_density: float = 0.5
    weight_density: float = 1.0
    act_outlier_ratio: float = 0.03
    weight_outlier_ratio: float = 0.03
    is_first: bool = False
    first_weight_bits: int = 4

    def __post_init__(self):
        for field_name in ("act_density", "weight_density", "act_outlier_ratio", "weight_outlier_ratio"):
            value = getattr(self, field_name)
            if not 0.0 <= value <= 1.0:  # is_fraction, inline: built per layer
                raise ConfigError(f"{field_name} must be in [0, 1], got {value}")
        if self.macs <= 0 or self.weight_count <= 0:
            raise ConfigError("macs and weight_count must be positive")

    @property
    def out_groups(self) -> int:
        """Output-channel groups of 16 (PE-group granularity)."""
        return -(-self.out_channels // 16)

    @property
    def broadcast_slots(self) -> float:
        """16-lane broadcast slots at full density (= macs / 16)."""
        return self.macs / 16.0

    @property
    def slots_per_input(self) -> float:
        """Broadcast slots each input activation participates in."""
        return self.broadcast_slots / self.input_count

    def with_ratio(self, ratio: float) -> "LayerWorkload":
        """Copy with both outlier ratios replaced (for Fig. 14 sweeps)."""
        if self.is_first:
            return self
        return replace(self, act_outlier_ratio=ratio, weight_outlier_ratio=ratio)


@dataclass(frozen=True)
class NetworkWorkload:
    """A full network: ordered layers plus a name."""

    name: str
    layers: tuple

    def with_ratio(self, ratio: float) -> "NetworkWorkload":
        return NetworkWorkload(self.name, tuple(layer.with_ratio(ratio) for layer in self.layers))

    @property
    def total_macs(self) -> int:
        return sum(layer.macs for layer in self.layers)


def from_spec(
    spec: NetworkSpec,
    act_outlier_ratio: float = 0.03,
    weight_outlier_ratio: float = 0.03,
) -> NetworkWorkload:
    """Convert a paper-shape :class:`NetworkSpec` into a simulator workload."""
    layers: List[LayerWorkload] = []
    for layer in spec.layers:
        layers.append(_layer_from_spec(layer, spec, act_outlier_ratio, weight_outlier_ratio))
    return NetworkWorkload(spec.name, tuple(layers))


def _layer_from_spec(
    layer: LayerSpec,
    spec: NetworkSpec,
    act_outlier_ratio: float,
    weight_outlier_ratio: float,
) -> LayerWorkload:
    return LayerWorkload(
        name=layer.name,
        kind=layer.kind,
        macs=layer.macs,
        weight_count=layer.weight_count,
        input_count=layer.input_count,
        output_count=layer.output_count,
        out_channels=layer.out_c,
        kernel=layer.kernel,
        stride=layer.stride,
        act_density=layer.act_density,
        weight_density=layer.weight_density,
        act_outlier_ratio=0.0 if layer.is_first else act_outlier_ratio,
        weight_outlier_ratio=0.0 if layer.is_first and spec.first_layer_weight_bits > 4 else weight_outlier_ratio,
        is_first=layer.is_first,
        first_weight_bits=spec.first_layer_weight_bits,
    )
