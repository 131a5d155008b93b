"""Tests for result serialization (repro.harness.serialize)."""

import hashlib
import json
import tempfile
from dataclasses import asdict, dataclass, field, is_dataclass
from enum import IntEnum
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import EnergyBreakdown
from repro.arch.stats import LayerStats, RunStats
from repro.harness import (
    breakdown_experiment,
    experiment_envelope,
    fig15_scalability,
    fig17_multi_outlier,
)
from repro.harness.serialize import (
    INTEGRITY_KEY,
    _canonical_dumps,
    _encode,
    _key,
    load_json,
    run_stats_rows,
    save_csv,
    save_json,
    to_jsonable,
)

REPO = Path(__file__).resolve().parents[1]


def make_run():
    run = RunStats(accelerator="olaccel16", network="testnet")
    run.add(LayerStats("conv1", cycles=100.0, energy=EnergyBreakdown(1, 2, 3, 4), macs=1000))
    run.add(LayerStats("conv2", cycles=50.0, energy=EnergyBreakdown(5, 6, 7, 8), macs=500))
    return run


class TestToJsonable:
    def test_numpy_scalars_and_arrays(self):
        out = to_jsonable({"a": np.float64(1.5), "b": np.int32(2), "c": np.arange(3)})
        assert out == {"a": 1.5, "b": 2, "c": [0, 1, 2]}

    def test_dataclasses(self):
        out = to_jsonable(EnergyBreakdown(dram=1.0, buffer=2.0))
        assert out["dram"] == 1.0 and out["local"] == 0.0

    def test_tuple_keys_joined(self):
        out = to_jsonable({("olaccel16", 4): [1.0]})
        assert out == {"olaccel16/4": [1.0]}

    def test_unserializable_raises(self):
        with pytest.raises(TypeError):
            to_jsonable(object())

    def test_experiment_results_serialize(self):
        """Real experiment payloads pass through without error."""
        to_jsonable(fig17_multi_outlier(ratios=(0.01,), lane_counts=(16,)))
        result = breakdown_experiment("alexnet")
        to_jsonable({"cycles": result.normalized_cycles(), "energy": result.normalized_energy()})


def asdict_to_jsonable(obj):
    """The converter as it was: a dataclass goes through ``asdict`` (a
    deep copy), and the copy is walked a second time."""
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    if is_dataclass(obj) and not isinstance(obj, type):
        return {k: asdict_to_jsonable(v) for k, v in asdict(obj).items()}
    if isinstance(obj, dict):
        return {_key(k): asdict_to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set)):
        return [asdict_to_jsonable(v) for v in obj]
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"cannot serialize {type(obj).__name__}")


@dataclass
class Leaf:
    value: object
    tags: tuple = ()


@dataclass
class Tree:
    name: str
    leaf: Leaf
    leaves: list
    by_key: dict
    pair: tuple
    size: int = field(init=False)

    def __post_init__(self):
        self.size = len(self.leaves)


def nested_tree():
    return Tree(
        name="t",
        leaf=Leaf(np.arange(6).reshape(2, 3), tags=("a", 1)),
        leaves=[Leaf(1.0), Leaf(np.float32(2.5)), [Leaf(np.int64(3))]],
        by_key={
            ("olaccel16", 4): Leaf(np.float64(-0.0)),
            "plain": {"inner": Leaf([np.int8(-1), (2, 3.5)])},
            7: np.array([0.25, 1e300]),
        },
        pair=(Leaf(None, tags=(Leaf(True),)), (np.uint16(9), "x")),
    )


class TestToJsonableOneWalk:
    """``to_jsonable`` reads dataclass fields in place and gives exactly
    what the ``asdict``-based converter gave."""

    @pytest.mark.parametrize(
        "make",
        [
            nested_tree,
            lambda: [nested_tree(), {"tree": nested_tree()}],
            make_run,
            lambda: breakdown_experiment("alexnet"),
            lambda: fig15_scalability("alexnet"),
            lambda: fig17_multi_outlier(ratios=(0.01,), lane_counts=(16,)),
        ],
    )
    def test_equals_the_asdict_reference(self, make):
        obj = make()
        assert _canonical_dumps(to_jsonable(obj)) == _canonical_dumps(asdict_to_jsonable(obj))

    def test_init_false_field_is_kept(self):
        assert to_jsonable(nested_tree())["size"] == 3

    def test_source_is_not_modified(self):
        tree = nested_tree()
        before = _canonical_dumps(asdict_to_jsonable(tree))
        out = to_jsonable(tree)
        out["leaf"]["value"][0][0] = 99
        out["leaves"].clear()
        assert _canonical_dumps(asdict_to_jsonable(tree)) == before


class TestFiles:
    def test_json_roundtrip(self, tmp_path):
        payload = {"x": 1, "y": [1.5, 2.5]}
        path = save_json(payload, tmp_path / "out.json")
        assert load_json(path) == payload

    def test_run_stats_rows(self):
        rows = run_stats_rows(make_run())
        assert len(rows) == 2
        assert rows[0]["layer"] == "conv1"
        assert rows[0]["energy_total_pj"] == 10.0
        assert rows[1]["accelerator"] == "olaccel16"

    def test_csv_writes_header_and_rows(self, tmp_path):
        path = save_csv(run_stats_rows(make_run()), tmp_path / "runs.csv")
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("accelerator,")

    def test_csv_empty_raises(self, tmp_path):
        with pytest.raises(ValueError):
            save_csv([], tmp_path / "empty.csv")

    def test_nested_directory_created(self, tmp_path):
        path = save_json({"a": 1}, tmp_path / "deep" / "dir" / "out.json")
        assert path.exists()


def stdlib_dumps(doc):
    return json.dumps(doc, indent=2, sort_keys=True)


def old_save_text(obj, digest=True):
    """What ``save_json`` wrote when it encoded the document twice."""
    doc = to_jsonable(obj)
    if digest and isinstance(doc, dict):
        body = {k: v for k, v in doc.items() if k != INTEGRITY_KEY}
        doc = dict(doc)
        doc[INTEGRITY_KEY] = {"algo": "sha256", "digest": hashlib.sha256(stdlib_dumps(body).encode()).hexdigest()}
    return stdlib_dumps(doc)


def outcome(dumps, doc):
    try:
        return dumps(doc)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


#: Any code point, lone surrogates and control characters included.
TEXT = st.text(st.characters(exclude_categories=()), max_size=6)
EDGE_FLOATS = st.sampled_from(
    [float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 5e-324, -1e-310, 2.2250738585072014e-308, 1e16, 0.1]
)
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**60), max_value=10**60)
    | st.floats()
    | EDGE_FLOATS
    | TEXT
    | st.sampled_from(["", "\x00\x1f\x7f", "\u2028\ud800\udfff", "caf\u00e9 \U0001f600", '"\\/'])
)
TREES = st.recursive(
    SCALARS,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(TEXT, children, max_size=4),
    max_leaves=25,
)


class Color(IntEnum):
    RED = 1


class StrKey(str):
    def __str__(self):
        return "converted"


class TestCanonicalJson:
    @settings(max_examples=300, deadline=None)
    @given(TREES)
    def test_encoder_equals_stdlib(self, doc):
        want = stdlib_dumps(doc)
        assert _encode(doc, "\n") == want  # the direct path, no fallback
        assert _canonical_dumps(doc) == want

    @settings(max_examples=100, deadline=None)
    @given(st.dictionaries(st.sampled_from(["A", "_", "__a", INTEGRITY_KEY, "__z", "a"]) | TEXT, TREES, max_size=6))
    def test_save_json_writes_the_two_encode_bytes(self, doc):
        """Keys that sort on either side of the digest's key included."""
        with tempfile.TemporaryDirectory() as tmp:
            path = save_json(doc, Path(tmp) / "doc.json")
            assert path.read_text() == old_save_text(doc)
            load_json(path)  # and its digest verifies

    @pytest.mark.parametrize(
        "doc",
        [
            {"a": np.float64(0.1), "b": [np.float64(-0.0)]},
            {"a": np.int64(3)},
            {1: "int", 2: "keys"},
            {2.5: "float", -1.0: "keys"},
            {True: "bool", False: "keys"},
            {None: "none key"},
            {"str": 1, 2: "mixed keys"},
            {"tuple": (1, (2.5, "x"))},
            {"enum": Color.RED, Color.RED: "enum key"},
            [[], {}, ()],
        ],
        ids=["np-float64", "np-int64", "int-keys", "float-keys", "bool-keys", "none-key", "mixed-keys",
             "tuple", "int-enum", "empty-tuple"],
    )
    def test_other_types_fall_back_to_stdlib(self, doc):
        with pytest.raises(TypeError):
            _encode(doc, "\n")
        assert outcome(_canonical_dumps, doc) == outcome(stdlib_dumps, doc)

    def test_self_reference_raises_value_error(self):
        doc = []
        doc.append(doc)
        with pytest.raises(ValueError, match="Circular reference"):
            _canonical_dumps(doc)

    @pytest.mark.parametrize(
        "obj, digest",
        [
            (experiment_envelope("fig11", breakdown_experiment("alexnet")), True),
            ({"A": 1, "_": 2, "__a": 3, INTEGRITY_KEY: "stale", "a": 4}, True),
            ({}, True),
            ({"np": np.float64(0.5), "arr": np.arange(3)}, True),
            ({"x": 1}, False),
            ([1, {"b": 2, "a": 1}], True),
        ],
        ids=["envelope", "integrity-sorts-between", "empty", "numpy", "no-digest", "list"],
    )
    def test_save_json_bytes_unchanged(self, tmp_path, obj, digest):
        path = save_json(obj, tmp_path / "doc.json", digest=digest)
        assert path.read_text() == old_save_text(obj, digest)

    @pytest.mark.parametrize(
        "obj",
        [
            {"tuple": (1, (2.5, "x")), "list": [()]},
            {"np": [np.float64(0.1), np.int64(3)], "nested": {"x": np.float32(0.5)}},
            {"stats": EnergyBreakdown(1.0, 2.0, 3.0, 4.0), "plain": 1},
            {1: "int", 2: {3: "keys"}},
            {StrKey("k"): "a key that converts"},
        ],
        ids=["tuples", "numpy-scalars", "dataclass", "int-keys", "str-subclass-key"],
    )
    def test_save_json_one_walk_writes_the_converted_bytes(self, tmp_path, obj):
        """A document of other types takes the to_jsonable path, so it
        writes what converting first wrote."""
        path = save_json(obj, tmp_path / "doc.json")
        assert path.read_text() == old_save_text(obj)

    def test_save_json_of_a_self_reference_raises_as_converting_did(self, tmp_path):
        loop = []
        loop.append(loop)
        with pytest.raises(RecursionError):
            old_save_text({"loop": loop})
        with pytest.raises(RecursionError):
            save_json({"loop": loop}, tmp_path / "doc.json")
        assert not list(tmp_path.iterdir())

    def test_committed_baseline_still_verifies(self, tmp_path):
        committed = REPO / "benchmarks" / "BENCH_BASELINE_SMOKE.json"
        doc = load_json(committed)
        assert INTEGRITY_KEY not in doc
        assert save_json(doc, tmp_path / "again.json").read_bytes() == committed.read_bytes()
