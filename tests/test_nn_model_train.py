"""Tests for the model container, training loop, dataset, pruning and zoos."""

import numpy as np
import pytest

from repro.nn import (
    Conv2d,
    Flatten,
    Linear,
    Model,
    ReLU,
    SGD,
    TrainConfig,
    build_mini,
    evaluate_loss,
    make_dataset,
    mini_alexnet,
    mini_densenet,
    mini_resnet,
    mini_vgg,
    prune_layer,
    prune_model,
    score,
    train_model,
    weight_density,
)
from repro.nn.zoo_paper import alexnet_spec, build_paper, resnet18_spec, vgg16_spec


class TestModel:
    def test_forward_and_parameter_enumeration(self, rng):
        model = Model([Conv2d(3, 4, 3, pad=1, rng=rng), ReLU(), Flatten(), Linear(4 * 8 * 8, 5, rng=rng)])
        y = model.forward(rng.normal(size=(2, 3, 8, 8)))
        assert y.shape == (2, 5)
        assert len(model.parameters()) == 4
        assert model.num_parameters() > 0

    def test_compute_layers_descend_into_blocks(self):
        model = mini_resnet(num_classes=5)
        kinds = {type(l).__name__ for l in model.compute_layers()}
        assert kinds == {"Conv2d", "Linear"}
        # stem + 6 blocks x 2 convs + 2 projection shortcuts + fc
        assert len(model.compute_layers()) == 1 + 2 * 6 + 2 + 1

    def test_record_activations_covers_all_compute_layers(self, rng):
        model = mini_densenet(num_classes=4)
        captured = model.record_activations(rng.normal(size=(1, 3, 32, 32)))
        assert set(captured.keys()) == set(range(len(model.compute_layers())))

    def test_record_activations_restores_forward(self, rng):
        model = mini_alexnet(num_classes=4)
        x = rng.normal(size=(2, 3, 32, 32))
        before = model.forward(x)
        model.record_activations(x)
        after = model.forward(x)
        np.testing.assert_allclose(before, after)

    def test_topk_bounds_top1(self, rng, small_dataset):
        model = mini_alexnet(num_classes=small_dataset.num_classes)
        top1, top5 = score(model, small_dataset.test_x, small_dataset.test_y, k=5)
        assert 0.0 <= top1 <= top5 <= 1.0


class TestTraining:
    def test_loss_decreases(self, small_dataset):
        model = mini_alexnet(num_classes=small_dataset.num_classes, seed=5)
        result = train_model(
            model,
            small_dataset.train_x,
            small_dataset.train_y,
            TrainConfig(epochs=3, batch_size=32, lr=0.01, seed=0),
        )
        assert result.losses[-1] < result.losses[0]

    def test_trained_model_beats_chance(self, tiny_trained_model, small_dataset):
        chance = 1.0 / small_dataset.num_classes
        acc, _ = score(tiny_trained_model, small_dataset.test_x, small_dataset.test_y)
        assert acc > 2 * chance

    def test_gradient_clipping_bounds_norm(self, rng):
        layer = Linear(4, 4, rng=rng)
        layer.weight.grad[...] = 100.0
        opt = SGD([layer.weight], lr=0.1, grad_clip=1.0)
        opt._clip_gradients()
        norm = np.sqrt((layer.weight.grad**2).sum())
        assert norm <= 1.0 + 1e-9

    def test_evaluate_loss_matches_batched(self, tiny_trained_model, small_dataset):
        full = evaluate_loss(tiny_trained_model, small_dataset.test_x, small_dataset.test_y, batch_size=1000)
        batched = evaluate_loss(tiny_trained_model, small_dataset.test_x, small_dataset.test_y, batch_size=7)
        assert full == pytest.approx(batched, rel=1e-9)

    def test_weight_decay_skips_biases(self, rng):
        layer = Linear(3, 3, rng=rng)
        layer.bias.value[...] = 10.0
        layer.bias.grad[...] = 0.0
        layer.weight.grad[...] = 0.0
        opt = SGD(layer.parameters(), lr=0.1, momentum=0.0, weight_decay=0.5)
        w_before = layer.weight.value.copy()
        opt.step()
        assert not np.allclose(layer.weight.value, w_before)  # decayed
        np.testing.assert_allclose(layer.bias.value, 10.0)  # untouched


class TestDataset:
    def test_shapes_and_labels(self):
        ds = make_dataset(num_classes=4, train_per_class=10, test_per_class=5, size=16)
        assert ds.train_x.shape == (40, 3, 16, 16)
        assert ds.test_x.shape == (20, 3, 16, 16)
        assert set(np.unique(ds.train_y)) == set(range(4))

    def test_deterministic_by_seed(self):
        a = make_dataset(num_classes=3, train_per_class=5, test_per_class=2, size=8, seed=9)
        b = make_dataset(num_classes=3, train_per_class=5, test_per_class=2, size=8, seed=9)
        np.testing.assert_allclose(a.train_x, b.train_x)

    def test_different_seeds_differ(self):
        a = make_dataset(num_classes=3, train_per_class=5, test_per_class=2, size=8, seed=1)
        b = make_dataset(num_classes=3, train_per_class=5, test_per_class=2, size=8, seed=2)
        assert not np.allclose(a.train_x, b.train_x)


class TestPruning:
    def test_prune_layer_density(self, rng):
        w = rng.normal(size=(64, 64))
        pruned = prune_layer(w, 0.3)
        assert weight_density(pruned) == pytest.approx(0.3, abs=0.01)

    def test_prune_keeps_largest(self, rng):
        w = rng.normal(size=(100,))
        pruned = prune_layer(w, 0.1)
        kept = np.abs(w[pruned != 0])
        dropped = np.abs(w[pruned == 0])
        assert kept.min() >= dropped.max() - 1e-12

    def test_prune_extremes(self, rng):
        w = rng.normal(size=(10, 10))
        np.testing.assert_allclose(prune_layer(w, 1.0), w)
        assert (prune_layer(w, 0.0) == 0).all()

    def test_prune_invalid_density(self, rng):
        with pytest.raises(ValueError):
            prune_layer(rng.normal(size=(4,)), 1.5)

    def test_prune_model_per_layer_overrides(self):
        model = mini_alexnet(num_classes=4)
        achieved = prune_model(model, density=0.5, per_layer={"conv1": 0.9})
        assert achieved["conv1"] == pytest.approx(0.9, abs=0.02)
        assert achieved["conv3"] == pytest.approx(0.5, abs=0.02)


class TestZoos:
    @pytest.mark.parametrize("name", ["alexnet", "vgg", "resnet", "densenet"])
    def test_mini_models_forward(self, name, rng):
        model = build_mini(name, num_classes=7)
        y = model.forward(rng.normal(size=(2, 3, 32, 32)))
        assert y.shape == (2, 7)

    def test_mini_alexnet_macro_shape(self):
        model = mini_alexnet()
        convs = [l for l in model.compute_layers() if type(l).__name__ == "Conv2d"]
        fcs = [l for l in model.compute_layers() if type(l).__name__ == "Linear"]
        assert len(convs) == 5 and len(fcs) == 3  # AlexNet's 5 conv + 3 fc

    def test_paper_alexnet_mac_count(self):
        spec = alexnet_spec()
        # Grouped AlexNet conv MACs ~= 666M; total with FCs ~= 724M.
        conv_macs = sum(l.macs for l in spec.conv_layers)
        assert 6.0e8 < conv_macs < 7.3e8
        assert 7.0e8 < spec.total_macs < 7.8e8

    def test_paper_vgg_mac_count(self):
        spec = vgg16_spec()
        conv_macs = sum(l.macs for l in spec.conv_layers)
        assert 1.4e10 < conv_macs < 1.6e10  # ~15.3G known value

    def test_paper_resnet18_shapes(self):
        spec = resnet18_spec()
        assert spec.first_layer_weight_bits == 8
        assert spec.layers[0].out_h == 112
        conv_macs = sum(l.macs for l in spec.conv_layers)
        assert 1.6e9 < conv_macs < 2.0e9  # ~1.8G known value

    def test_paper_weight_counts(self):
        assert 5.8e7 < alexnet_spec().total_weights < 6.4e7  # ~61M
        assert 1.3e8 < vgg16_spec().total_weights < 1.45e8  # ~138M

    def test_build_paper_unknown_raises(self):
        with pytest.raises(KeyError):
            build_paper("lenet")

    def test_layer_spec_fc_as_1x1(self):
        fc = alexnet_spec().layers[-1]
        assert fc.kind == "fc"
        assert fc.macs == fc.weight_count == 4096 * 1000
