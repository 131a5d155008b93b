"""Tests for the experiment harness: workloads, scaling, reporting."""

import numpy as np
import pytest

from repro.harness import (
    MEMORY_TABLE,
    NpuSpec,
    ScalingModel,
    bar,
    conv_only,
    fig17_multi_outlier,
    fig18_utilization,
    fig19_chunk_cycles,
    format_breakdown,
    format_series,
    format_table,
    memory_bytes,
    paper_workload,
    table1_configurations,
)
from repro.harness.experiments import breakdown_experiment, fig15_scalability


class TestWorkloads:
    def test_memory_table_matches_paper(self):
        assert memory_bytes("alexnet", 16) == 393 * 1024
        assert memory_bytes("alexnet", 8) == 196 * 1024
        assert memory_bytes("vgg16", 16) == 4800 * 1024
        assert memory_bytes("resnet18", 8) == 2400 * 1024

    def test_memory_invalid(self):
        with pytest.raises(KeyError):
            memory_bytes("lenet", 16)
        with pytest.raises(ValueError):
            memory_bytes("alexnet", 4)

    def test_paper_workload_conv_only_by_default(self):
        net = paper_workload("alexnet")
        assert all(l.kind == "conv" for l in net.layers)
        full = paper_workload("alexnet", include_fc=True)
        assert len(full.layers) == len(net.layers) + 3

    def test_all_networks_buildable(self):
        for name in MEMORY_TABLE:
            net = paper_workload(name)
            assert net.total_macs > 0


class TestTable1:
    def test_pe_counts(self):
        by_name = table1_configurations().by_name()
        assert by_name["eyeriss16"][0] == 165
        assert by_name["zena16"][0] == 168
        assert by_name["olaccel16"][0] == 768
        assert by_name["olaccel8"][0] == 576

    def test_areas_close_to_paper(self):
        by_name = table1_configurations().by_name()
        paper = {
            "eyeriss16": 1.53, "eyeriss8": 0.96,
            "zena16": 1.66, "zena8": 1.01,
            "olaccel16": 1.67, "olaccel8": 0.93,
        }
        for name, (_, area) in by_name.items():
            assert area == pytest.approx(paper[name], rel=0.12), name

    def test_format_contains_rows(self):
        text = table1_configurations().format()
        assert "olaccel16" in text and "768" in text


class TestScalingModel:
    def make(self, demand=12.0):
        return ScalingModel(NpuSpec("x", cycles_per_image=1e6, dram_bits_per_image=demand * 1e6))

    def test_single_npu_is_unity(self):
        assert self.make().speedup(1, 1).speedup == pytest.approx(1.0)

    def test_batch_parallelism_linear_until_bandwidth(self):
        model = self.make(demand=1.0)
        assert model.speedup(8, 8).speedup == pytest.approx(8.0)

    def test_single_batch_saturates(self):
        model = self.make(demand=1.0)
        s8 = model.speedup(8, 1).speedup
        s16 = model.speedup(16, 1).speedup
        assert s16 < 16 * 0.75  # clearly sub-linear
        assert s16 > s8  # but still improving

    def test_bandwidth_cap_binds(self):
        model = self.make(demand=100.0)  # hugely memory bound
        point = model.speedup(16, 16)
        assert point.bandwidth_bound
        assert point.speedup < 16

    def test_batch4_beats_batch16_when_capped(self):
        """The Fig. 15 observation for OLAccel."""
        model = self.make(demand=13.0)
        b4 = model.speedup(16, 4).speedup
        b16 = model.speedup(16, 16).speedup
        assert b4 > b16

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            self.make().speedup(0, 1)
        with pytest.raises(ValueError):
            ScalingModel(NpuSpec("x", 1e6, 1e6), dram_bandwidth_bits_per_cycle=0)

    def test_sweep_grid_size(self):
        points = self.make().sweep([1, 2, 4], [1, 4])
        assert len(points) == 6


class TestFig15:
    def test_series_structure(self):
        result = fig15_scalability(npu_counts=(1, 2, 4, 8, 16))
        assert ("olaccel16", 1) in result.series
        assert len(result.series[("olaccel16", 4)]) == 5

    def test_olaccel_above_zena(self):
        result = fig15_scalability()
        for batch in (1, 4, 16):
            ol = result.series[("olaccel16", batch)]
            ze = result.series[("zena16", batch)]
            assert all(o > z for o, z in zip(ol, ze))

    def test_batch4_slightly_better_than_batch16_at_scale(self):
        result = fig15_scalability()
        assert result.series[("olaccel16", 4)][-1] > result.series[("olaccel16", 16)][-1]

    def test_monotone_in_npus(self):
        result = fig15_scalability()
        for series in result.series.values():
            assert all(b >= a - 1e-9 for a, b in zip(series, series[1:]))


class TestFig17:
    def test_matches_monte_carlo(self):
        result = fig17_multi_outlier(ratios=(0.01, 0.03, 0.05), lane_counts=(16, 32))
        for lanes in (16, 32):
            for analytic, mc in zip(result.series[lanes], result.monte_carlo[lanes]):
                assert mc == pytest.approx(analytic, abs=0.02)


class TestFig18And19:
    def test_fig18_rows_cover_conv_layers(self):
        result = fig18_utilization("alexnet")
        assert [r.layer for r in result.rows] == ["conv1", "conv2", "conv3", "conv4", "conv5"]

    def test_fig18_run_tracks_nonzero(self):
        """The paper: active period is proportional to nonzero ratio."""
        result = fig18_utilization("alexnet")
        rows = {r.layer: r for r in result.rows}
        assert rows["conv2"].run > rows["conv4"].run
        assert rows["conv4"].skip > rows["conv2"].skip

    def test_fig18_skip_overhead_near_paper(self):
        """Skip overhead can reach ~20% in sparse layers (Sec. V)."""
        result = fig18_utilization("alexnet")
        max_skip = max(r.skip for r in result.rows)
        assert 0.1 < max_skip < 0.3

    def test_fig18_shares_bounded(self):
        for row in fig18_utilization("alexnet").rows:
            assert row.run + row.skip + row.idle == pytest.approx(1.0, abs=0.05)

    def test_fig19_peaks(self):
        result = fig19_chunk_cycles("alexnet", samples=30000)
        assert 13 <= result.peaks["conv2"] <= 17  # paper: near 15-16
        assert 3 <= result.peaks["conv4"] <= 6  # paper: near 5
        assert 3 <= result.peaks["conv5"] <= 6

    def test_fig19_excludes_first_layer(self):
        result = fig19_chunk_cycles("alexnet", samples=1000)
        assert "conv1" not in result.histograms


class TestBreakdownResult:
    def test_reduction_symmetry(self):
        result = breakdown_experiment("alexnet")
        r = result.reduction("olaccel16", "zena16")
        assert 0 < r < 1
        assert result.reduction("zena16", "olaccel16") < 0

    def test_invalid_metric(self):
        result = breakdown_experiment("alexnet")
        with pytest.raises(ValueError):
            result.reduction("olaccel16", "zena16", "power")

    def test_normalized_reference_is_one(self):
        result = breakdown_experiment("vgg16")
        assert result.normalized_cycles()["eyeriss16"] == pytest.approx(1.0)
        assert result.normalized_energy()["eyeriss16"]["total"] == pytest.approx(1.0)

    def test_format_output(self):
        text = breakdown_experiment("alexnet").format()
        assert "OLAccel16 vs ZeNA16" in text
        assert "dram" in text

    def test_headline_prints_a_signed_change(self):
        # At ratio 1 OLAccel8 loses to ZeNA8: a cost increase prints "+",
        # never the double sign of a negated reduction.
        result = breakdown_experiment("alexnet", ratio=1.0)
        headlines = [line for line in result.format().splitlines() if "vs ZeNA" in line]
        assert len(headlines) == 2
        assert not any("--" in line for line in headlines)
        change = -result.reduction("olaccel8", "zena8") * 100
        assert change > 0
        assert headlines[1].startswith(f"OLAccel8  vs ZeNA8 : energy +{change:.1f}%")
        # a saving keeps its minus sign, as at the default ratio
        assert "OLAccel16 vs ZeNA16: energy -" in breakdown_experiment("alexnet").format()


class TestReportFormatting:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [(1, 2.5), ("x", "y")])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")

    def test_format_series(self):
        text = format_series("curve", [1, 2], [0.5, 1.0])
        assert "curve" in text and "0.5" in text

    def test_format_breakdown(self):
        text = format_breakdown("x", {"dram": 1.0, "logic": 0.5})
        assert "total=1.5" in text

    def test_bar(self):
        assert bar(1.0, scale=1.0, width=10) == "#" * 10
        assert bar(0.0, scale=1.0) == ""
        with pytest.raises(ValueError):
            bar(1.0, scale=0.0)
