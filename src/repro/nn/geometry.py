"""Window-sweep geometry shared by the numpy layers and the paper specs.

:mod:`repro.nn.functional` re-exports :func:`conv_out_size`; it lives
here, without numpy, so the paper-shape specs in
:mod:`repro.nn.zoo_paper` (and with them every analytic experiment) can
use it without loading the array substrate.
"""

from __future__ import annotations

__all__ = ["conv_out_size"]


def conv_out_size(size: int, kernel: int, stride: int, pad: int) -> int:
    """Output spatial size of a convolution/pooling window sweep."""
    out = (size + 2 * pad - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"non-positive output size {out} for input {size}, kernel {kernel},"
            f" stride {stride}, pad {pad}"
        )
    return out
