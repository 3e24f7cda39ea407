"""Unit tests for the shared operator helpers (used by most queries)."""

import numpy as np
import pyarrow as pa


class TestGb:
    def test_basic_and_names(self):
        from ocr_ray.functions.relational import _gb

        t = pa.table({"k": ["a", "a", "b"], "v": [1, 2, 5]})
        g = _gb(t, ["k"], [("v", "sum"), ("v", "count")], ["s", "n"])
        got = {r["k"]: (r["s"], r["n"]) for r in g.to_pylist()}
        assert got == {"a": (3, 2), "b": (5, 1)}
        assert g.column_names == ["k", "s", "n"]

    def test_empty_batch_keeps_schema(self):
        from ocr_ray.functions.relational import _gb

        t = pa.table({"k": pa.array([], pa.string()),
                      "v": pa.array([], pa.int64())})
        g = _gb(t, ["k"], [("v", "sum")], ["s"])
        assert g.num_rows == 0 and g.column_names == ["k", "s"]


class TestDenseLookup:
    def test_sparse_keys_and_missing(self):
        from ocr_ray.functions.relational import _dense_lookup

        arr = _dense_lookup([3, 7], ["c", "g"])
        assert arr[3] == "c" and arr[7] == "g"
        assert arr[0] is None and arr[5] is None

    def test_empty(self):
        from ocr_ray.functions.relational import _dense_lookup

        arr = _dense_lookup([], [])
        assert len(arr) == 1 and arr[0] is None


class TestBloom:
    """The q3 filter: ``_bloom4_probe`` at 2^20 bits over int keys."""

    LOG2M = 20

    def test_no_false_negatives(self):
        from ocr_ray.functions.relational import (_BLOOM4_SEEDS,
                                                  _bloom4_probe,
                                                  _key_hash_u64)

        keys = np.arange(1, 50001, dtype=np.int64)
        # the bit positions _bloom4_build's per-block accumulate sets
        h, _ = _key_hash_u64(keys)
        bm = np.zeros((1 << self.LOG2M) // 64, np.uint64)
        for seed in _BLOOM4_SEEDS:
            with np.errstate(over="ignore"):
                b = (h * np.uint64(seed)) >> np.uint64(64 - self.LOG2M)
            np.bitwise_or.at(bm, (b >> np.uint64(6)).astype(np.int64),
                             np.uint64(1) << (b & np.uint64(63)))

        assert _bloom4_probe(bm, self.LOG2M, keys).all()  # no false negatives
        probe = np.arange(10_000_000, 10_050_000, dtype=np.int64)
        fp_rate = _bloom4_probe(bm, self.LOG2M, probe).mean()
        assert fp_rate < 0.02                         # ~0.1% at 50k keys

    def test_empty_filter_rejects_all(self):
        from ocr_ray.functions.relational import _bloom4_probe

        bm = np.zeros((1 << self.LOG2M) // 64, np.uint64)
        assert not _bloom4_probe(bm, self.LOG2M,
                                 np.array([1, 2, 3], np.int64)).any()


class TestNparts:
    def test_data_sized(self):
        from ocr_ray.functions.relational import _nparts_for

        assert _nparts_for(0) == 2
        assert _nparts_for(100) == 2
        assert _nparts_for(1_000_000) == 10
        assert _nparts_for(10**9) == 256   # bounded


class TestWithSchema:
    def test_fixes_schema_less_empty(self):
        from ocr_ray.functions.dedup import _with_schema

        sch = pa.schema([("a", pa.int64()), ("b", pa.string())])
        fix = _with_schema(sch)
        out = fix(pa.table({}))
        assert out.schema == sch and out.num_rows == 0
        # column order normalized on non-empty too
        t = pa.table({"b": ["x"], "a": [1]})
        assert fix(t).column_names == ["a", "b"]
