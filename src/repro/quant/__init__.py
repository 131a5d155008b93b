"""Outlier-aware quantization library (paper Sec. II).

- :mod:`repro.quant.linear` — sign-magnitude integer grids, linear baseline;
- :mod:`repro.quant.outlier` — outlier-aware quantization of weights and
  activations on a shared integer step;
- :mod:`repro.quant.calibrate` — static per-layer activation thresholds
  from sample inputs;
- :mod:`repro.quant.qmodel` — fake-quant inference over a trained model;
- :mod:`repro.quant.metrics` — quantization error metrics.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".alternatives": (
            "QUANTIZER_REGISTRY",
            "QuantizerSpec",
            "compare_quantizers",
            "quantize_balanced",
            "quantize_clipped",
            "quantize_log",
        ),
        ".finetune": ("FinetuneConfig", "finetune_quantized", "quantized_weight_view"),
        ".sensitivity": (
            "LayerSensitivity",
            "SensitivityReport",
            "layer_sensitivity",
            "leave_one_out",
        ),
        ".calibrate": (
            "CalibrationResult",
            "LayerCalibration",
            "calibrate_activation_thresholds",
            "effective_outlier_ratios",
        ),
        ".linear": ("LinearQuantizer", "quantize_linear", "signed_levels", "unsigned_levels"),
        ".metrics": (
            "DistributionSummary",
            "level_occupancy",
            "max_abs_error",
            "mse",
            "sqnr_db",
            "summarize",
        ),
        ".outlier": (
            "OutlierQuantConfig",
            "QuantizedTensor",
            "magnitude_threshold",
            "quantize_activations",
            "quantize_weights",
        ),
        ".qmodel": ("LayerQuantStats", "QuantConfig", "QuantizedModel"),
    },
)
