"""Shared accelerator infrastructure: chunk formats, energy, area, stats."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".area": (
            "AreaParams",
            "DEFAULT_AREA",
            "eyeriss_pe_area",
            "iso_area_clusters",
            "olaccel_area",
            "olaccel_cluster_area",
            "olaccel_group_area",
            "olaccel_outlier_group_area",
            "zena_pe_area",
        ),
        ".chunks": (
            "LANES",
            "WEIGHT_CHUNK_BITS",
            "ActivationChunk",
            "OutlierActivation",
            "OutlierActivationFifo",
            "WeightChunk",
            "combine_outlier_weight",
            "decode_weight_nibble",
            "encode_weight_nibble",
            "split_outlier_weight",
        ),
        ".act_packing": (
            "ACT_NORMAL_MAX",
            "PackedActivations",
            "pack_activations",
            "unpack_activations",
        ),
        ".memory": (
            "Footprint",
            "OLAccelTiling",
            "check_network",
            "layer_footprint",
            "olaccel_tiling",
        ),
        ".bitcodec": ("MAX_SPILL_CHUNKS", "decode_packed", "encode_packed"),
        ".energy": ("DEFAULT_ENERGY", "EnergyBreakdown", "EnergyModel", "EnergyParams"),
        ".packing": ("PackedWeights", "WeightTables", "pack_weights"),
        ".stats": ("LayerStats", "RunStats", "STATS_SCHEMA_VERSION"),
    },
)
