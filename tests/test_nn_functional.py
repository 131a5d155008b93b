"""Unit tests for the numpy tensor operations (repro.nn.functional)."""

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn.layers import Conv2d, MaxPool2d, ReLU


def naive_conv2d(x, w, b, stride, pad):
    """Direct 6-loop convolution used as the golden reference."""
    n, c_in, h, wdt = x.shape
    c_out, _, kh, kw = w.shape
    out_h = (h + 2 * pad - kh) // stride + 1
    out_w = (wdt + 2 * pad - kw) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    y = np.zeros((n, c_out, out_h, out_w))
    for ni in range(n):
        for oc in range(c_out):
            for oh in range(out_h):
                for ow in range(out_w):
                    patch = xp[ni, :, oh * stride : oh * stride + kh, ow * stride : ow * stride + kw]
                    y[ni, oc, oh, ow] = (patch * w[oc]).sum() + (b[oc] if b is not None else 0.0)
    return y


def one_shot_conv2d(x, w, b, stride, pad):
    """The inference conv without blocking: one whole-batch patch matrix, one matmul."""
    n, c_in, h, wdt = x.shape
    c_out, _, kh, kw = w.shape
    out_h = F.conv_out_size(h, kh, stride, pad)
    out_w = F.conv_out_size(wdt, kw, stride, pad)
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    sn, sc, sh, sw = xp.strides
    patches = np.lib.stride_tricks.as_strided(
        xp,
        shape=(n, c_in, kh, kw, out_h, out_w),
        strides=(sn, sc, sh, sw, sh * stride, sw * stride),
        writeable=False,
    ).reshape(n, c_in * kh * kw, out_h * out_w)
    y = np.matmul(w.reshape(c_out, -1), patches)
    if b is not None:
        y += b[:, None]
    return y.reshape(n, c_out, out_h, out_w)


def images_per_chunk(x_shape, kernel, stride, pad, itemsize=8):
    """How many images the inference conv gathers per patch buffer."""
    n, c_in, h, w = x_shape
    per_image = c_in * kernel * kernel * itemsize
    per_image *= F.conv_out_size(h, kernel, stride, pad) * F.conv_out_size(w, kernel, stride, pad)
    return max(1, min(n, F._PATCH_BUFFER_BYTES // per_image))


class TestConvForward:
    """Both forward paths against the direct loop; this class runs inference."""

    train = False

    @pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 0), (2, 1), (3, 2)])
    def test_matches_naive(self, rng, stride, pad):
        x = rng.normal(size=(2, 3, 9, 9))
        w = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=4)
        y, _ = F.conv2d(x, w, b, stride, pad, self.train)
        np.testing.assert_allclose(y, naive_conv2d(x, w, b, stride, pad), atol=1e-10)

    def test_kernel_1x1(self, rng):
        x = rng.normal(size=(1, 5, 4, 4))
        w = rng.normal(size=(7, 5, 1, 1))
        y, _ = F.conv2d(x, w, None, 1, 0, self.train)
        assert y.shape == (1, 7, 4, 4)
        np.testing.assert_allclose(y, naive_conv2d(x, w, None, 1, 0), atol=1e-10)

    def test_rectangular_input(self, rng):
        x = rng.normal(size=(2, 2, 11, 5))
        w = rng.normal(size=(3, 2, 3, 3))
        y, _ = F.conv2d(x, w, None, 2, 1, self.train)
        assert y.shape == (2, 3, 6, 3)
        np.testing.assert_allclose(y, naive_conv2d(x, w, None, 2, 1), atol=1e-10)

    def test_channel_mismatch_raises(self, rng):
        x = rng.normal(size=(1, 3, 8, 8))
        w = rng.normal(size=(4, 5, 3, 3))
        with pytest.raises(ValueError, match="channels"):
            F.conv2d(x, w, train=self.train)

    def test_nonpositive_output_raises(self):
        with pytest.raises(ValueError):
            F.conv_out_size(2, 5, 1, 0)


class TestConvForwardTraining(TestConvForward):
    """The same checks on the im2col path that training takes."""

    train = True


class TestInferencePath:
    """``train=False`` keeps no backward state and computes the same outputs."""

    # 130 images cross a chunk boundary for every kernel here (chunks of
    # 129, 14 and 5 images for kernels 1, 3 and 5).
    @pytest.mark.parametrize("batch", [1, 7, 130])
    @pytest.mark.parametrize("kernel", [1, 3, 5])
    def test_conv2d_inference_matches_training_path(self, rng, batch, kernel):
        x = rng.normal(size=(batch, 6, 13, 13))
        w = rng.normal(size=(8, 6, kernel, kernel))
        b = rng.normal(size=8)
        y_inf, cache_inf = F.conv2d(x, w, b, 1, kernel // 2)
        y_train, cache_train = F.conv2d(x, w, b, 1, kernel // 2, train=True)
        assert cache_inf is None and cache_train is not None
        assert y_inf.flags.c_contiguous
        np.testing.assert_allclose(y_inf, y_train, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize(
        "shape,kernel,stride",
        [((2, 3, 8, 8), 2, None), ((2, 3, 7, 7), 3, 2), ((1, 4, 13, 9), 3, 2), ((3, 2, 9, 6), 3, 1)],
    )
    def test_maxpool2d_inference_is_bit_identical(self, rng, shape, kernel, stride):
        x = rng.normal(size=shape)
        # Signed zeros tie under max: both paths must keep the earliest one.
        x[..., ::3] = np.where(rng.random(x[..., ::3].shape) < 0.5, -0.0, 0.0)
        y_inf, cache_inf = F.maxpool2d(x, kernel, stride)
        y_train, _ = F.maxpool2d(x, kernel, stride, train=True)
        assert cache_inf is None
        assert np.array_equal(y_inf, y_train)
        assert np.array_equal(np.signbit(y_inf), np.signbit(y_train))

    # What each case covers -> (x shape, c_out, kernel, stride, pad, dtype).
    BLOCKED_CASES = {
        "ragged_batch": ((20, 4, 16, 16), 5, 3, 1, 1, np.float64),
        "one_image": ((1, 4, 16, 16), 5, 3, 1, 1, np.float64),
        "empty_batch": ((0, 4, 16, 16), 5, 3, 1, 1, np.float64),
        "image_over_budget": ((3, 16, 32, 32), 4, 3, 1, 1, np.float64),
        "many_chunks": ((43, 4, 16, 16), 5, 3, 1, 1, np.float64),
        "stride2": ((10, 3, 15, 15), 6, 3, 2, 1, np.float64),
        "pad0": ((10, 3, 12, 12), 6, 3, 1, 0, np.float64),
        "kernel1x1": ((10, 8, 9, 9), 6, 1, 1, 0, np.float64),
        "float32_input": ((20, 4, 16, 16), 5, 3, 1, 1, np.float32),
    }

    def test_blocked_cases_cover_the_chunking(self):
        chunks = {
            name: (shape[0], images_per_chunk(shape, k, stride, pad, np.dtype(dtype).itemsize))
            for name, (shape, _, k, stride, pad, dtype) in self.BLOCKED_CASES.items()
        }
        n, chunk = chunks["ragged_batch"]
        assert 1 < chunk < n and n % chunk
        assert chunks["one_image"] == (1, 1)
        assert chunks["image_over_budget"][1] == 1
        n, chunk = chunks["many_chunks"]
        assert chunk > 1 and n > 2 * chunk

    @pytest.mark.parametrize("case", list(BLOCKED_CASES))
    def test_conv2d_inference_is_bit_identical_to_one_shot_gemm(self, rng, case):
        shape, c_out, kernel, stride, pad, dtype = self.BLOCKED_CASES[case]
        x = rng.normal(size=shape).astype(dtype)
        w = rng.normal(size=(c_out, shape[1], kernel, kernel))
        b = rng.normal(size=c_out)
        y, cache = F.conv2d(x, w, b, stride, pad)
        want = one_shot_conv2d(x, w, b, stride, pad)
        assert cache is None
        assert y.dtype == want.dtype and y.flags.c_contiguous == want.flags.c_contiguous
        assert np.array_equal(y, want)

    def test_grouped_conv_inference_is_bit_identical_to_one_shot_gemm(self, rng):
        layer = Conv2d(8, 6, 3, pad=1, groups=2, rng=rng)
        layer.bias.value = rng.normal(size=6)
        x = rng.normal(size=(20, 8, 16, 16))
        w, b = layer.weight.value, layer.bias.value
        want = np.concatenate(
            [one_shot_conv2d(x[:, 4 * g : 4 * g + 4], w[3 * g : 3 * g + 3], b[3 * g : 3 * g + 3], 1, 1) for g in range(2)],
            axis=1,
        )
        y = layer.forward(x)
        assert y.dtype == want.dtype and y.flags.c_contiguous == want.flags.c_contiguous
        assert np.array_equal(y, want)

    # Padded batches that take several chunks, the last one ragged: each
    # chunk reuses one staging buffer, whose borders must stay zero.
    # What each case covers -> (x shape, c_out, kernel, stride, pad, bias).
    STAGED_CASES = {
        "ragged_pad1": ((23, 4, 16, 16), 5, 3, 1, 1, True),
        "ragged_pad2": ((23, 4, 16, 16), 5, 5, 1, 2, True),
        "ragged_pad2_stride2": ((23, 4, 17, 17), 5, 5, 2, 2, True),
        "ragged_pad1_stride2": ((23, 8, 33, 33), 5, 3, 2, 1, True),
        "no_bias": ((23, 4, 16, 16), 5, 3, 1, 1, False),
    }

    @pytest.mark.parametrize("case", list(STAGED_CASES))
    def test_conv2d_staging_keeps_padding_zero_across_chunks(self, rng, case):
        shape, c_out, kernel, stride, pad, with_bias = self.STAGED_CASES[case]
        chunk = images_per_chunk(shape, kernel, stride, pad)
        assert 1 < chunk < shape[0] and shape[0] % chunk
        # No zeros in the data, so a stale value left in a border would show.
        x = rng.normal(loc=5.0, size=shape)
        w = rng.normal(size=(c_out, shape[1], kernel, kernel))
        b = rng.normal(size=c_out) if with_bias else None
        y, cache = F.conv2d(x, w, b, stride, pad)
        want = one_shot_conv2d(x, w, b, stride, pad)
        assert cache is None
        assert y.dtype == want.dtype and y.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "layer",
        [Conv2d(4, 6, 3, pad=1), Conv2d(4, 6, 3, pad=1, groups=2), MaxPool2d(2), ReLU()],
        ids=["conv", "conv_groups2", "maxpool", "relu"],
    )
    def test_layers_keep_no_cache_outside_training(self, rng, layer):
        x = rng.normal(size=(2, 4, 6, 6))
        y = layer.forward(x, train=False)
        assert layer._cache is None
        with pytest.raises(RuntimeError, match="training forward pass"):
            layer.backward(np.ones_like(y))
        layer.forward(x, train=True)
        assert layer.backward(np.ones_like(y)).shape == x.shape


class TestConvBackward:
    def test_gradients_numerically(self, rng):
        x = rng.normal(size=(2, 2, 6, 6))
        w = rng.normal(size=(3, 2, 3, 3))
        b = rng.normal(size=3)
        y, cache = F.conv2d(x, w, b, stride=1, pad=1, train=True)
        dy = rng.normal(size=y.shape)
        dx, dw, db = F.conv2d_backward(dy, cache)

        eps = 1e-6
        # Spot-check a handful of coordinates against central differences.
        for idx in [(0, 0, 0, 0), (1, 1, 3, 2), (0, 1, 5, 5)]:
            xp = x.copy()
            xp[idx] += eps
            xm = x.copy()
            xm[idx] -= eps
            num = ((F.conv2d(xp, w, b, 1, 1)[0] - F.conv2d(xm, w, b, 1, 1)[0]) * dy).sum() / (2 * eps)
            assert abs(num - dx[idx]) < 1e-4

        for idx in [(0, 0, 0, 0), (2, 1, 2, 2)]:
            wp = w.copy()
            wp[idx] += eps
            wm = w.copy()
            wm[idx] -= eps
            num = ((F.conv2d(x, wp, b, 1, 1)[0] - F.conv2d(x, wm, b, 1, 1)[0]) * dy).sum() / (2 * eps)
            assert abs(num - dw[idx]) < 1e-4

        num_db = dy.sum(axis=(0, 2, 3))
        np.testing.assert_allclose(db, num_db, atol=1e-10)


class TestIm2col:
    def test_col2im_adjoint(self, rng):
        """col2im is the adjoint of im2col: <im2col(x), y> == <x, col2im(y)>."""
        x = rng.normal(size=(2, 3, 7, 7))
        cols = F.im2col(x, 3, 3, 2, 1)
        y = rng.normal(size=cols.shape)
        lhs = (cols * y).sum()
        rhs = (x * F.col2im(y, x.shape, 3, 3, 2, 1)).sum()
        assert abs(lhs - rhs) < 1e-9

    def test_row_ordering(self):
        """Rows follow (n, oh, ow); columns follow (c, kh, kw)."""
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        cols = F.im2col(x, 2, 2, 2, 0)
        np.testing.assert_allclose(cols[0], [0, 1, 4, 5])
        np.testing.assert_allclose(cols[1], [2, 3, 6, 7])
        np.testing.assert_allclose(cols[3], [10, 11, 14, 15])


class TestPooling:
    def test_maxpool_values(self):
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        y, _ = F.maxpool2d(x, 2)
        np.testing.assert_allclose(y[0, 0], [[5, 7], [13, 15]])

    def test_maxpool_backward_routes_to_argmax(self, rng):
        x = rng.normal(size=(1, 2, 4, 4))
        y, cache = F.maxpool2d(x, 2, train=True)
        dy = np.ones_like(y)
        dx = F.maxpool2d_backward(dy, cache)
        assert dx.sum() == pytest.approx(dy.sum())
        # Gradient lands only on max positions.
        assert ((dx != 0).sum(axis=(2, 3)) == 4).all()

    def test_avgpool_values(self):
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        y, _ = F.avgpool2d(x, 2)
        np.testing.assert_allclose(y[0, 0], [[2.5, 4.5], [10.5, 12.5]])

    def test_avgpool_backward_uniform(self, rng):
        x = rng.normal(size=(2, 3, 6, 6))
        y, cache = F.avgpool2d(x, 2)
        dx = F.avgpool2d_backward(np.ones_like(y), cache)
        np.testing.assert_allclose(dx, np.full_like(x, 0.25))

    def test_strided_maxpool(self, rng):
        x = rng.normal(size=(1, 1, 7, 7))
        y, _ = F.maxpool2d(x, 3, stride=2)
        assert y.shape == (1, 1, 3, 3)


class TestActivationsAndLoss:
    def test_relu(self):
        x = np.array([[-1.0, 0.0, 2.0]])
        y, mask = F.relu(x)
        np.testing.assert_allclose(y, [[0, 0, 2]])
        np.testing.assert_allclose(F.relu_backward(np.ones_like(x), mask), [[0, 0, 1]])

    def test_softmax_rows_sum_to_one(self, rng):
        logits = rng.normal(size=(5, 9)) * 50  # large values: stability check
        probs = F.softmax(logits)
        np.testing.assert_allclose(probs.sum(axis=1), np.ones(5), atol=1e-12)
        assert (probs >= 0).all()

    def test_cross_entropy_perfect_prediction(self):
        logits = np.array([[100.0, 0.0, 0.0]])
        assert F.cross_entropy(logits, np.array([0])) < 1e-6

    def test_cross_entropy_gradient(self, rng):
        logits = rng.normal(size=(4, 6))
        labels = np.array([0, 2, 5, 1])
        grad = F.cross_entropy_backward(logits, labels)
        eps = 1e-6
        for idx in [(0, 0), (1, 2), (3, 5)]:
            lp = logits.copy()
            lp[idx] += eps
            lm = logits.copy()
            lm[idx] -= eps
            num = (F.cross_entropy(lp, labels) - F.cross_entropy(lm, labels)) / (2 * eps)
            assert abs(num - grad[idx]) < 1e-6

    def test_linear_backward(self, rng):
        x = rng.normal(size=(3, 5))
        w = rng.normal(size=(4, 5))
        b = rng.normal(size=4)
        y, cache = F.linear(x, w, b)
        dy = rng.normal(size=y.shape)
        dx, dw, db = F.linear_backward(dy, cache)
        np.testing.assert_allclose(dx, dy @ w)
        np.testing.assert_allclose(dw, dy.T @ x)
        np.testing.assert_allclose(db, dy.sum(axis=0))
