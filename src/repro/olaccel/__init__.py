"""OLAccel: the outlier-aware accelerator simulator (paper Sec. III)."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".accelerator": ("OLAccelSimulator",),
        ".cluster": ("load_balance_efficiency", "schedule_passes"),
        ".event_sim": (
            "ClusterSim",
            "PassDescriptor",
            "PassMatrix",
            "passes_from_levels",
        ),
        ".mapper": ("LayerProgram", "ModelProgram", "compile_model"),
        ".pipeline": (
            "LayerSchedule",
            "PipelineResult",
            "bandwidth_to_compute_bound",
            "schedule_network",
        ),
        ".config": ("OLAccelConfig", "olaccel16", "olaccel8"),
        ".functional": (
            "ACC_LIMIT",
            "FunctionalResult",
            "olaccel_conv2d",
            "reference_conv2d_int",
            "split_activation_levels",
            "split_weight_levels",
        ),
        ".outlier_group": ("OutlierWork", "outlier_work"),
        ".pe_group": (
            "PassCosts",
            "batch_pass_cycles",
            "chunk_pass_cycles",
            "dense_pass_factor",
            "pass_op_counts",
            "expected_pass_costs",
            "multi_outlier_probability",
            "sample_pass_cycles",
            "single_or_more_outlier_probability",
        ),
        ".tribuffer": ("TriBuffer", "accumulation_drain_cycles"),
    },
)
