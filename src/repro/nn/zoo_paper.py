"""Paper-shape network descriptions for performance simulation.

The cycle/energy simulators do not need trained ImageNet weights — they need
layer *shapes* plus weight/activation density statistics. This module
encodes the exact layer geometry of the networks the paper evaluates
(AlexNet, VGG-16, ResNet-18, plus ResNet-101 and DenseNet-121 heads used in
the accuracy discussion) together with per-layer densities.

Density provenance (documented substitution, see DESIGN.md):

- AlexNet / VGG-16 weight densities follow the published Deep Compression
  pruning results (Han et al., ICLR'16), which is the pruned model the paper
  says it used.
- ResNet-18 weight densities model the paper's own moderate pruning
  (~60% kept in convs); its activation densities (~0.3) reflect the high
  post-BN/ReLU sparsity of the pruned model, chosen so the ZeNA baseline's
  relative speed matches the paper's reported reductions.
- Activation densities are the fraction of *nonzero* (post-ReLU) inputs per
  layer, set from published ineffectual-activation measurements (Cnvlutin,
  ISCA'16) and the qualitative per-layer ordering the paper itself reports
  in Fig. 18 (AlexNet conv2 input nearly dense; conv4/conv5 inputs sparse).
  They can be overridden per experiment, or re-measured from the mini zoo.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List

from .geometry import conv_out_size

__all__ = [
    "LayerSpec",
    "NetworkSpec",
    "alexnet_spec",
    "vgg16_spec",
    "resnet18_spec",
    "resnet101_spec",
    "densenet121_spec",
    "PAPER_ZOO",
    "build_paper",
]


@dataclass(frozen=True)
class LayerSpec:
    """Geometry and statistics of one compute layer.

    Fully connected layers are expressed as 1x1 convolutions over a 1x1
    spatial extent, which is how all three simulated accelerators treat
    them. ``act_density`` is the nonzero fraction of the layer's *input*
    activations; ``weight_density`` the nonzero fraction of its weights
    after pruning. ``is_first`` marks layers fed by raw (dense,
    high-precision) network input.
    """

    name: str
    kind: str  # "conv" or "fc"
    in_c: int
    out_c: int
    in_h: int
    in_w: int
    kernel: int = 1
    stride: int = 1
    pad: int = 0
    groups: int = 1
    act_density: float = 0.5
    weight_density: float = 1.0
    is_first: bool = False

    @property
    def out_h(self) -> int:
        return conv_out_size(self.in_h, self.kernel, self.stride, self.pad)

    @property
    def out_w(self) -> int:
        return conv_out_size(self.in_w, self.kernel, self.stride, self.pad)

    @property
    def weight_count(self) -> int:
        """Number of weight scalars."""
        return self.out_c * (self.in_c // self.groups) * self.kernel * self.kernel

    @property
    def macs(self) -> int:
        """Dense multiply-accumulate count."""
        return self.out_h * self.out_w * self.weight_count

    @property
    def input_count(self) -> int:
        return self.in_c * self.in_h * self.in_w

    @property
    def output_count(self) -> int:
        return self.out_c * self.out_h * self.out_w

    def with_density(self, act_density: float = None, weight_density: float = None) -> "LayerSpec":
        """Copy with overridden densities (None keeps the current value)."""
        updates = {}
        if act_density is not None:
            updates["act_density"] = act_density
        if weight_density is not None:
            updates["weight_density"] = weight_density
        return replace(self, **updates) if updates else self


@dataclass(frozen=True)
class NetworkSpec:
    """An ordered list of compute layers plus network-level metadata.

    ``first_layer_weight_bits`` reflects Sec. II: ResNet-18/101 need 8-bit
    weights in the first conv layer while AlexNet/VGG-16 use 4-bit there.
    """

    name: str
    layers: tuple
    first_layer_weight_bits: int = 4

    @property
    def conv_layers(self) -> List[LayerSpec]:
        return [layer for layer in self.layers if layer.kind == "conv"]

    @property
    def total_macs(self) -> int:
        return sum(layer.macs for layer in self.layers)

    @property
    def total_weights(self) -> int:
        return sum(layer.weight_count for layer in self.layers)


def _fc(name: str, in_f: int, out_f: int, act_density: float, weight_density: float) -> LayerSpec:
    return LayerSpec(
        name=name,
        kind="fc",
        in_c=in_f,
        out_c=out_f,
        in_h=1,
        in_w=1,
        act_density=act_density,
        weight_density=weight_density,
    )


def alexnet_spec() -> NetworkSpec:
    """AlexNet (Caffe variant, 227x227 input, grouped conv2/4/5)."""
    layers = (
        LayerSpec("conv1", "conv", 3, 96, 227, 227, kernel=11, stride=4, act_density=1.0,
                  weight_density=0.84, is_first=True),
        LayerSpec("conv2", "conv", 96, 256, 27, 27, kernel=5, pad=2, groups=2,
                  act_density=0.85, weight_density=0.38),
        LayerSpec("conv3", "conv", 256, 384, 13, 13, kernel=3, pad=1,
                  act_density=0.50, weight_density=0.35),
        LayerSpec("conv4", "conv", 384, 384, 13, 13, kernel=3, pad=1, groups=2,
                  act_density=0.25, weight_density=0.37),
        LayerSpec("conv5", "conv", 384, 256, 13, 13, kernel=3, pad=1, groups=2,
                  act_density=0.30, weight_density=0.37),
        _fc("fc6", 9216, 4096, act_density=0.30, weight_density=0.09),
        _fc("fc7", 4096, 4096, act_density=0.25, weight_density=0.09),
        _fc("fc8", 4096, 1000, act_density=0.40, weight_density=0.25),
    )
    return NetworkSpec("alexnet", layers)


def vgg16_spec() -> NetworkSpec:
    """VGG-16 (224x224 input)."""
    # (name, in_c, out_c, size, act_density, weight_density)
    conv_rows = [
        ("conv1_1", 3, 64, 224, 1.00, 0.58),
        ("conv1_2", 64, 64, 224, 0.65, 0.22),
        ("conv2_1", 64, 128, 112, 0.60, 0.34),
        ("conv2_2", 128, 128, 112, 0.50, 0.36),
        ("conv3_1", 128, 256, 56, 0.55, 0.53),
        ("conv3_2", 256, 256, 56, 0.40, 0.24),
        ("conv3_3", 256, 256, 56, 0.40, 0.42),
        ("conv4_1", 256, 512, 28, 0.45, 0.32),
        ("conv4_2", 512, 512, 28, 0.30, 0.27),
        ("conv4_3", 512, 512, 28, 0.30, 0.34),
        ("conv5_1", 512, 512, 14, 0.35, 0.35),
        ("conv5_2", 512, 512, 14, 0.25, 0.29),
        ("conv5_3", 512, 512, 14, 0.25, 0.36),
    ]
    layers = tuple(
        LayerSpec(name, "conv", cin, cout, size, size, kernel=3, pad=1,
                  act_density=act, weight_density=wd, is_first=(name == "conv1_1"))
        for name, cin, cout, size, act, wd in conv_rows
    ) + (
        _fc("fc6", 25088, 4096, act_density=0.25, weight_density=0.04),
        _fc("fc7", 4096, 4096, act_density=0.25, weight_density=0.04),
        _fc("fc8", 4096, 1000, act_density=0.40, weight_density=0.23),
    )
    return NetworkSpec("vgg16", layers)


def resnet18_spec() -> NetworkSpec:
    """ResNet-18 (224x224 input); 8-bit first-layer weights per Sec. II."""
    layers: List[LayerSpec] = [
        LayerSpec("conv1", "conv", 3, 64, 224, 224, kernel=7, stride=2, pad=3,
                  act_density=1.0, weight_density=0.80, is_first=True),
    ]

    def stage(tag: str, cin: int, cout: int, size_in: int, downsample: bool) -> None:
        stride = 2 if downsample else 1
        size_mid = size_in // stride
        layers.append(LayerSpec(f"{tag}a_1", "conv", cin, cout, size_in, size_in, kernel=3,
                                stride=stride, pad=1, act_density=0.35, weight_density=0.60))
        layers.append(LayerSpec(f"{tag}a_2", "conv", cout, cout, size_mid, size_mid, kernel=3,
                                pad=1, act_density=0.28, weight_density=0.60))
        if downsample:
            layers.append(LayerSpec(f"{tag}a_ds", "conv", cin, cout, size_in, size_in, kernel=1,
                                    stride=2, act_density=0.35, weight_density=0.60))
        layers.append(LayerSpec(f"{tag}b_1", "conv", cout, cout, size_mid, size_mid, kernel=3,
                                pad=1, act_density=0.30, weight_density=0.60))
        layers.append(LayerSpec(f"{tag}b_2", "conv", cout, cout, size_mid, size_mid, kernel=3,
                                pad=1, act_density=0.28, weight_density=0.60))

    stage("layer1", 64, 64, 56, downsample=False)
    stage("layer2", 64, 128, 56, downsample=True)
    stage("layer3", 128, 256, 28, downsample=True)
    stage("layer4", 256, 512, 14, downsample=True)
    layers.append(_fc("fc", 512, 1000, act_density=0.60, weight_density=0.90))
    return NetworkSpec("resnet18", tuple(layers), first_layer_weight_bits=8)


def resnet101_spec() -> NetworkSpec:
    """ResNet-101 (bottleneck blocks; the paper's "deeper network" case).

    The paper quantizes ResNet-101 (Figs. 2-3 context) and predicts in
    Sec. V that OLAccel's advantage over ZeNA grows on it because the
    first layer's share of total work shrinks. Densities mirror the
    ResNet-18 settings (paper-style own pruning, sparse post-BN/ReLU
    activations).
    """
    layers: List[LayerSpec] = [
        LayerSpec("conv1", "conv", 3, 64, 224, 224, kernel=7, stride=2, pad=3,
                  act_density=1.0, weight_density=0.80, is_first=True),
    ]

    def bottleneck(tag: str, cin: int, width: int, size_in: int, stride: int, project: bool) -> int:
        size_out = size_in // stride
        cout = width * 4
        layers.append(LayerSpec(f"{tag}.1", "conv", cin, width, size_in, size_in, kernel=1,
                                stride=1, act_density=0.35, weight_density=0.60))
        layers.append(LayerSpec(f"{tag}.2", "conv", width, width, size_in, size_in, kernel=3,
                                stride=stride, pad=1, act_density=0.30, weight_density=0.60))
        layers.append(LayerSpec(f"{tag}.3", "conv", width, cout, size_out, size_out, kernel=1,
                                act_density=0.30, weight_density=0.60))
        if project:
            layers.append(LayerSpec(f"{tag}.ds", "conv", cin, cout, size_in, size_in, kernel=1,
                                    stride=stride, act_density=0.35, weight_density=0.60))
        return cout

    # ResNet-101 stages: 3, 4, 23, 3 bottlenecks (after a 56x56 max pool).
    stage_cfg = [("layer1", 64, 56, 1, 3), ("layer2", 128, 56, 2, 4),
                 ("layer3", 256, 28, 2, 23), ("layer4", 512, 14, 2, 3)]
    cin = 64
    for tag, width, size_in, stride, blocks in stage_cfg:
        for b in range(blocks):
            s = stride if b == 0 else 1
            size = size_in if b == 0 else size_in // stride
            cin = bottleneck(f"{tag}.{b}", cin, width, size, s, project=(b == 0))
    layers.append(_fc("fc", 2048, 1000, act_density=0.60, weight_density=0.90))
    return NetworkSpec("resnet101", tuple(layers), first_layer_weight_bits=8)


def densenet121_spec() -> NetworkSpec:
    """DenseNet-121 (growth 32, blocks 6/12/24/16 with 1x1 bottlenecks).

    Included because the paper's quantization results (Fig. 3) cover
    DenseNet-121 and its narrow concatenated layers stress channel-level
    parallelism (the Sec. V discussion around PE-group width).
    """
    growth = 32
    layers: List[LayerSpec] = [
        LayerSpec("conv1", "conv", 3, 64, 224, 224, kernel=7, stride=2, pad=3,
                  act_density=1.0, weight_density=0.85, is_first=True),
    ]
    size = 56  # after the stem max pool
    channels = 64
    for block_idx, n_stages in enumerate((6, 12, 24, 16), start=1):
        for stage in range(n_stages):
            tag = f"dense{block_idx}.{stage}"
            layers.append(LayerSpec(f"{tag}.bottleneck", "conv", channels, 4 * growth, size, size,
                                    kernel=1, act_density=0.30, weight_density=0.70))
            layers.append(LayerSpec(f"{tag}.conv", "conv", 4 * growth, growth, size, size,
                                    kernel=3, pad=1, act_density=0.35, weight_density=0.70))
            channels += growth
        if block_idx < 4:
            layers.append(LayerSpec(f"trans{block_idx}", "conv", channels, channels // 2, size, size,
                                    kernel=1, act_density=0.35, weight_density=0.70))
            channels //= 2
            size //= 2
    layers.append(_fc("fc", channels, 1000, act_density=0.60, weight_density=0.90))
    return NetworkSpec("densenet121", tuple(layers), first_layer_weight_bits=8)


#: Networks whose performance the paper reports (Figs. 11-13, 15, 18, 19),
#: plus the deeper models it discusses (Sec. II / Sec. V outlook).
PAPER_ZOO = {
    "alexnet": alexnet_spec,
    "vgg16": vgg16_spec,
    "resnet18": resnet18_spec,
    "resnet101": resnet101_spec,
    "densenet121": densenet121_spec,
}


def build_paper(name: str) -> NetworkSpec:
    """Build a paper-shape spec by name (raises ``KeyError`` on unknown names)."""
    return PAPER_ZOO[name]()
