"""Baseline accelerator models the paper compares against (Sec. IV)."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".eyeriss": ("EyerissConfig", "EyerissSimulator", "eyeriss16", "eyeriss8"),
        ".zena": ("ZenaConfig", "ZenaSimulator", "zena16", "zena8"),
    },
)
