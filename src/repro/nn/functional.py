"""Core tensor operations for the numpy neural-network substrate.

All activation tensors use NCHW layout: ``(batch, channels, height, width)``.
Convolution reduces to matrix multiplication, the only way to get acceptable
throughput out of pure numpy. A training forward pass (``train=True``) goes
through :func:`im2col` and keeps the patch matrix for the backward pass, which
scatters gradients back with :func:`col2im`. An inference forward pass keeps no
backward state: :func:`conv2d` pads a few images at a time into a
zero-bordered staging buffer, gathers their ``(C*kh*kw, out_h*out_w)`` patch
matrices into one reused, cache-sized buffer and runs the same per-image GEMMs
as a one-shot batched matmul would, so its output is bit-identical to it and
already in NCHW order; :func:`maxpool2d` takes a running maximum over strided
slices.

These functions are the computational substrate everything else builds on:
the trainable layers in :mod:`repro.nn.layers`, the quantized executor in
:mod:`repro.quant.qmodel`, and the bit-exact OLAccel functional simulator in
:mod:`repro.olaccel.functional` (which runs the same im2col loop in integer
arithmetic).
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from .geometry import conv_out_size

__all__ = [
    "conv_out_size",
    "im2col",
    "col2im",
    "conv2d",
    "conv2d_backward",
    "linear",
    "linear_backward",
    "relu",
    "relu_backward",
    "maxpool2d",
    "maxpool2d_backward",
    "avgpool2d",
    "avgpool2d_backward",
    "softmax",
    "cross_entropy",
    "cross_entropy_backward",
]


#: Bounded LRU of convolution coordinate tables keyed by
#: (h, w, kernel_h, kernel_w, stride, pad). Each entry is a mutable
#: ``[out_h, out_w, flat_indices_or_None]`` triple — the flat scatter
#: indices into the padded plane are built lazily the first time the
#: col2im scatter needs them, then reused by every backward pass that
#: shares the layer geometry (networks repeat a handful of shapes).
_COORD_CACHE: "OrderedDict[tuple, list]" = OrderedDict()
_COORD_CACHE_MAX = 64

#: col2im implementation crossover, in per-kernel-position slice
#: elements (n*c*out_h*out_w). The K^2 blocked slice-adds cost roughly
#: K^2 python dispatches plus the element traffic, so when each slice is
#: tiny the dispatch overhead dominates and one indexed ``np.add.at``
#: over the cached coordinate table wins (measured up to ~6x); once
#: slices carry a few hundred elements the slice-adds win back (the
#: scatter's index/copy traffic dominates, measured down to ~0.2x).
_SCATTER_SLICE_LIMIT = 256

#: Byte budget of the inference conv's patch buffer. :func:`conv2d` gathers
#: as many images' patch matrices per GEMM batch as fit in it (at least one),
#: so the buffer is still in L2 when the GEMM reads it, where one patch
#: matrix for the whole batch would be tens of MB of fresh pages.
_PATCH_BUFFER_BYTES = 1 << 20


def _coord_table(
    h: int, w: int, kernel_h: int, kernel_w: int, stride: int, pad: int,
    need_indices: bool = False,
) -> list:
    """The cached ``[out_h, out_w, flat_indices]`` entry for one geometry.

    ``flat_indices`` (built only when ``need_indices``) maps each
    (kh, kw, oh, ow) patch element, in that C-order, to its offset in the
    flattened padded plane: ``(kh + stride*oh) * (w + 2*pad) +
    (kw + stride*ow)``.
    """
    key = (h, w, kernel_h, kernel_w, stride, pad)
    entry = _COORD_CACHE.get(key)
    if entry is None:
        out_h = conv_out_size(h, kernel_h, stride, pad)
        out_w = conv_out_size(w, kernel_w, stride, pad)
        entry = [out_h, out_w, None]
        _COORD_CACHE[key] = entry
    _COORD_CACHE.move_to_end(key)
    while len(_COORD_CACHE) > _COORD_CACHE_MAX:
        _COORD_CACHE.popitem(last=False)
    if need_indices and entry[2] is None:
        out_h, out_w = entry[0], entry[1]
        pw = w + 2 * pad
        kh = np.arange(kernel_h, dtype=np.int64)[:, None, None, None]
        kw = np.arange(kernel_w, dtype=np.int64)[None, :, None, None]
        oh = np.arange(out_h, dtype=np.int64)[None, None, :, None]
        ow = np.arange(out_w, dtype=np.int64)[None, None, None, :]
        entry[2] = ((kh + stride * oh) * pw + (kw + stride * ow)).ravel()
    return entry


def im2col(x: np.ndarray, kernel_h: int, kernel_w: int, stride: int, pad: int) -> np.ndarray:
    """Unfold ``x`` (N, C, H, W) into patch columns.

    Returns an array of shape ``(N * out_h * out_w, C * kernel_h * kernel_w)``
    where each row is one receptive field, flattened channel-major. Row order
    is (n, oh, ow); column order is (c, kh, kw). The quantized and integer
    simulators rely on this exact ordering.
    """
    n, c, h, w = x.shape
    out_h, out_w, _ = _coord_table(h, w, kernel_h, kernel_w, stride, pad)

    if pad > 0:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)), mode="constant")

    # Strided sliding-window view: (N, C, out_h, out_w, kernel_h, kernel_w).
    sn, sc, sh, sw = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, out_h, out_w, kernel_h, kernel_w),
        strides=(sn, sc, sh * stride, sw * stride, sh, sw),
        writeable=False,
    )
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(n * out_h * out_w, c * kernel_h * kernel_w)
    return np.ascontiguousarray(cols)


def col2im(
    cols: np.ndarray,
    x_shape: tuple,
    kernel_h: int,
    kernel_w: int,
    stride: int,
    pad: int,
) -> np.ndarray:
    """Inverse of :func:`im2col`: scatter-add patch columns back to an image.

    Overlapping patch contributions accumulate, which is exactly the adjoint
    of the unfold operation and therefore what the convolution backward pass
    needs.

    Small-slice problems (see :data:`_SCATTER_SLICE_LIMIT`) take an
    indexed ``np.add.at`` scatter over the cached coordinate table
    (:func:`_col2im_scatter`); larger ones take the blocked slice-add
    loop (:func:`_col2im_slices`), which wins there. Both accumulate each
    padded element's contributions in the same (kh, kw)-major order, so
    the float rounding — and therefore every downstream gradient — is
    bit-identical across the two.
    """
    n, c, h, w = x_shape
    out_h, out_w, _ = _coord_table(h, w, kernel_h, kernel_w, stride, pad)
    if n * c * out_h * out_w <= _SCATTER_SLICE_LIMIT:
        return _col2im_scatter(cols, x_shape, kernel_h, kernel_w, stride, pad)
    return _col2im_slices(cols, x_shape, kernel_h, kernel_w, stride, pad)


def _col2im_scatter(
    cols: np.ndarray, x_shape: tuple, kernel_h: int, kernel_w: int, stride: int, pad: int
) -> np.ndarray:
    """:func:`col2im` as one ``np.add.at`` over the cached coordinate table."""
    n, c, h, w = x_shape
    out_h, out_w, flat = _coord_table(h, w, kernel_h, kernel_w, stride, pad, need_indices=True)
    plane = (h + 2 * pad) * (w + 2 * pad)
    updates = (
        cols.reshape(n, out_h, out_w, c, kernel_h, kernel_w)
        .transpose(0, 3, 4, 5, 1, 2)
        .reshape(n * c, -1)
    )
    buf = np.zeros(n * c * plane, dtype=cols.dtype)
    base = np.arange(n * c, dtype=np.int64)[:, None] * plane
    np.add.at(buf, base + flat[None, :], updates)
    return buf.reshape(n, c, h + 2 * pad, w + 2 * pad)[:, :, pad : pad + h, pad : pad + w]


def _col2im_slices(
    cols: np.ndarray, x_shape: tuple, kernel_h: int, kernel_w: int, stride: int, pad: int
) -> np.ndarray:
    """:func:`col2im` as one strided slice-add per kernel position."""
    n, c, h, w = x_shape
    out_h, out_w, _ = _coord_table(h, w, kernel_h, kernel_w, stride, pad)
    padded = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=cols.dtype)
    patches = cols.reshape(n, out_h, out_w, c, kernel_h, kernel_w).transpose(0, 3, 1, 2, 4, 5)
    for kh in range(kernel_h):
        h_end = kh + stride * out_h
        for kw in range(kernel_w):
            w_end = kw + stride * out_w
            padded[:, :, kh:h_end:stride, kw:w_end:stride] += patches[:, :, :, :, kh, kw]
    return padded[:, :, pad : pad + h, pad : pad + w]


def conv2d(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray | None = None,
    stride: int = 1,
    pad: int = 0,
    train: bool = False,
) -> tuple:
    """2-D convolution.

    ``x`` is (N, C_in, H, W); ``weight`` is (C_out, C_in, K_h, K_w). Returns
    ``(y, cache)``.

    With ``train=True`` the input is unfolded by :func:`im2col` and ``cache``
    carries that matrix for :func:`conv2d_backward`. With ``train=False``
    ``cache`` is ``None``: each image's patches form a
    ``(C_in*K_h*K_w, out_h*out_w)`` matrix (reduction order (c, kh, kw), as
    in im2col), and one GEMM per image writes the output directly in NCHW.
    The patches are gathered a chunk of images at a time into one reused
    buffer of about :data:`_PATCH_BUFFER_BYTES`. With ``pad > 0`` each
    chunk's images are first copied into the interior of a staging buffer
    of one chunk's padded images, whose borders are zeroed once per call, so
    no padded copy of the whole batch is made. Each chunk's batched matmul
    issues the same per-image GEMMs, on the same C-contiguous operands, as
    one matmul over a whole-batch patch matrix, so the output is
    bit-identical to it; the bias is added to that chunk's output right
    after its GEMM, while it is still in cache. The inference and training
    paths sum the same products in a different BLAS order, so they agree to
    about 1e-13 absolute on float64, not bit for bit; training keeps the
    im2col path so trained weights do not depend on this.
    """
    n, c_in, h, w = x.shape
    c_out, c_in_w, k_h, k_w = weight.shape
    if c_in != c_in_w:
        raise ValueError(f"input has {c_in} channels but weight expects {c_in_w}")

    out_h = conv_out_size(h, k_h, stride, pad)
    out_w = conv_out_size(w, k_w, stride, pad)

    if not train:
        k, p = c_in * k_h * k_w, out_h * out_w
        chunk = max(1, min(n, _PATCH_BUFFER_BYTES // (k * p * x.itemsize)))
        if pad > 0:
            # One chunk's padded images; the borders stay zero across chunks.
            source = np.zeros((chunk, c_in, h + 2 * pad, w + 2 * pad), dtype=x.dtype)
            interior = source[:, :, pad : pad + h, pad : pad + w]
        else:
            source = x
        # Strided view (N, C, kh, kw, oh, ow), copied chunk by chunk into buf.
        sn, sc, sh, sw = source.strides
        windows = np.lib.stride_tricks.as_strided(
            source,
            shape=(source.shape[0], c_in, k_h, k_w, out_h, out_w),
            strides=(sn, sc, sh, sw, sh * stride, sw * stride),
            writeable=False,
        )
        buf = np.empty((chunk,) + windows.shape[1:], dtype=x.dtype)
        patches = buf.reshape(chunk, k, p)
        w_mat = weight.reshape(c_out, k)
        y = np.empty((n, c_out, p), dtype=np.result_type(weight, x))
        for s in range(0, n, chunk):
            b = min(chunk, n - s)
            if pad > 0:
                interior[:b] = x[s : s + b]
                np.copyto(buf[:b], windows[:b])
            else:
                np.copyto(buf[:b], windows[s : s + b])
            out = y[s : s + b]
            np.matmul(w_mat, patches[:b], out=out)
            if bias is not None:
                out += bias[:, None]
        return y.reshape(n, c_out, out_h, out_w), None

    cols = im2col(x, k_h, k_w, stride, pad)
    w_mat = weight.reshape(c_out, -1)
    y = cols @ w_mat.T
    if bias is not None:
        y += bias
    y = y.reshape(n, out_h, out_w, c_out).transpose(0, 3, 1, 2)
    cache = (x.shape, cols, weight, stride, pad)
    return np.ascontiguousarray(y), cache


def conv2d_backward(dy: np.ndarray, cache: tuple) -> tuple:
    """Backward pass of :func:`conv2d`.

    Returns ``(dx, dweight, dbias)`` for upstream gradient ``dy`` of shape
    (N, C_out, out_h, out_w).
    """
    x_shape, cols, weight, stride, pad = cache
    c_out, c_in, k_h, k_w = weight.shape
    n = x_shape[0]

    dy_mat = dy.transpose(0, 2, 3, 1).reshape(-1, c_out)
    dbias = dy_mat.sum(axis=0)
    dw_mat = dy_mat.T @ cols
    dweight = dw_mat.reshape(weight.shape)
    dcols = dy_mat @ weight.reshape(c_out, -1)
    dx = col2im(dcols, x_shape, k_h, k_w, stride, pad)
    return dx, dweight, dbias


def linear(x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None = None) -> tuple:
    """Fully connected layer: ``y = x @ weight.T + bias``.

    ``x`` is (N, in_features); ``weight`` is (out_features, in_features).
    """
    y = x @ weight.T
    if bias is not None:
        y = y + bias
    return y, (x, weight)


def linear_backward(dy: np.ndarray, cache: tuple) -> tuple:
    x, weight = cache
    dx = dy @ weight
    dweight = dy.T @ x
    dbias = dy.sum(axis=0)
    return dx, dweight, dbias


def relu(x: np.ndarray) -> tuple:
    y = np.maximum(x, 0.0)
    return y, (x > 0.0)


def relu_backward(dy: np.ndarray, mask: np.ndarray) -> np.ndarray:
    return dy * mask


def maxpool2d(
    x: np.ndarray, kernel: int, stride: int | None = None, train: bool = False
) -> tuple:
    """Max pooling with square windows (no padding).

    Returns ``(y, cache)``. With ``train=True`` ``cache`` holds each window's
    argmax for :func:`maxpool2d_backward`. With ``train=False`` ``cache`` is
    ``None`` and ``y`` is a running maximum over the ``kernel**2`` strided
    slices of ``x``; max is exact, so ``y`` is bit-identical either way.
    """
    stride = kernel if stride is None else stride
    n, c, h, w = x.shape
    out_h = conv_out_size(h, kernel, stride, 0)
    out_w = conv_out_size(w, kernel, stride, 0)

    if not train:
        h_end, w_end = stride * out_h, stride * out_w
        y = x[:, :, :h_end:stride, :w_end:stride].copy()
        for i in range(kernel):
            for j in range(kernel):
                if i or j:
                    # np.maximum returns its second operand on ties, so the
                    # earliest window element wins, as with argmax (-0.0 vs 0.0).
                    np.maximum(x[:, :, i : i + h_end : stride, j : j + w_end : stride], y, out=y)
        return y, None

    sn, sc, sh, sw = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, out_h, out_w, kernel, kernel),
        strides=(sn, sc, sh * stride, sw * stride, sh, sw),
        writeable=False,
    )
    flat = windows.reshape(n, c, out_h, out_w, kernel * kernel)
    argmax = flat.argmax(axis=4)
    y = np.take_along_axis(flat, argmax[..., None], axis=4)[..., 0]
    cache = (x.shape, argmax, kernel, stride)
    return y, cache


def maxpool2d_backward(dy: np.ndarray, cache: tuple) -> np.ndarray:
    x_shape, argmax, kernel, stride = cache
    n, c, h, w = x_shape
    out_h, out_w = dy.shape[2], dy.shape[3]
    dx = np.zeros(x_shape, dtype=dy.dtype)

    kh = argmax // kernel
    kw = argmax % kernel
    oh = np.arange(out_h)[None, None, :, None]
    ow = np.arange(out_w)[None, None, None, :]
    rows = oh * stride + kh
    cols = ow * stride + kw
    nn_idx = np.arange(n)[:, None, None, None]
    cc_idx = np.arange(c)[None, :, None, None]
    np.add.at(dx, (nn_idx, cc_idx, rows, cols), dy)
    return dx


def avgpool2d(x: np.ndarray, kernel: int, stride: int | None = None) -> tuple:
    """Average pooling with square windows (no padding)."""
    stride = kernel if stride is None else stride
    n, c, h, w = x.shape
    out_h = conv_out_size(h, kernel, stride, 0)
    out_w = conv_out_size(w, kernel, stride, 0)

    sn, sc, sh, sw = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, out_h, out_w, kernel, kernel),
        strides=(sn, sc, sh * stride, sw * stride, sh, sw),
        writeable=False,
    )
    y = windows.mean(axis=(4, 5))
    cache = (x.shape, kernel, stride)
    return y, cache


def avgpool2d_backward(dy: np.ndarray, cache: tuple) -> np.ndarray:
    x_shape, kernel, stride = cache
    dx = np.zeros(x_shape, dtype=dy.dtype)
    out_h, out_w = dy.shape[2], dy.shape[3]
    share = dy / (kernel * kernel)
    for kh in range(kernel):
        for kw in range(kernel):
            dx[:, :, kh : kh + stride * out_h : stride, kw : kw + stride * out_w : stride] += share
    return dx


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax, numerically stabilized."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean cross-entropy of integer ``labels`` under ``logits``."""
    probs = softmax(logits)
    n = logits.shape[0]
    picked = probs[np.arange(n), labels]
    return float(-np.log(np.clip(picked, 1e-12, None)).mean())


def cross_entropy_backward(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Gradient of mean cross-entropy w.r.t. logits."""
    n = logits.shape[0]
    grad = softmax(logits)
    grad[np.arange(n), labels] -= 1.0
    return grad / n
