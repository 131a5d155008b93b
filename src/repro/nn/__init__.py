"""Numpy neural-network substrate: layers, models, training, datasets.

This package replaces the PyTorch/Caffe environments the paper used (see
DESIGN.md for the substitution table). It provides:

- :mod:`repro.nn.functional` — GEMM convolution and friends;
- :mod:`repro.nn.layers` / :mod:`repro.nn.model` — trainable layers and a
  sequential model container;
- :mod:`repro.nn.train` — SGD training;
- :mod:`repro.nn.data` — a synthetic classification dataset;
- :mod:`repro.nn.prune` — magnitude pruning;
- :mod:`repro.nn.zoo_mini` — trainable miniatures of the paper's networks;
- :mod:`repro.nn.zoo_paper` — exact layer geometry of the paper's networks
  for performance simulation.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".data": ("SyntheticImageDataset", "make_dataset"),
        ".layers": (
            "AvgPool2d",
            "BatchNorm2d",
            "Conv2d",
            "DenseBlock",
            "Dropout",
            "Flatten",
            "GlobalAvgPool",
            "Layer",
            "Linear",
            "LocalResponseNorm",
            "MaxPool2d",
            "Parameter",
            "ReLU",
            "ResidualBlock",
        ),
        ".model": ("Model", "iter_compute_layers"),
        ".prune": ("prune_layer", "prune_model", "weight_density"),
        ".train": ("SGD", "TrainConfig", "TrainResult", "evaluate_loss", "train_model"),
        ".zoo_mini": (
            "MINI_ZOO",
            "build_mini",
            "mini_alexnet",
            "mini_densenet",
            "mini_resnet",
            "mini_vgg",
        ),
        ".zoo_paper": (
            "PAPER_ZOO",
            "LayerSpec",
            "NetworkSpec",
            "alexnet_spec",
            "build_paper",
            "densenet121_spec",
            "resnet101_spec",
            "resnet18_spec",
            "vgg16_spec",
        ),
    },
)
