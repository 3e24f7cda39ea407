"""Generic keyed window operators: LAG / LEAD and trailing RANGE
aggregates over Datasets.

The concrete renditions live in events.py (``user_trailing_window_
spend`` is the SQL-checked RANGE-interval window, ``user_peak_window_
spend`` the ROWS-k window, ``sessionize`` the gap window); this module
exposes the remaining two shapes as reusable Dataset-level APIs with
the same column contract as asof_pairs — int64 (key, ts, id, val) —
completing the generic windowing family (assign_sessions,
grouped_top_k, asof_pairs, interval_overlap, melt, and now keyed_lag /
rolling_range_agg).

Scale design:

* ``keyed_lag`` — rows shuffle once by hash(key) %% P (data-sized P,
  never a per-key groupby); each partition is answered in ONE numpy
  pass: lexsort (key, ts, id), the offset-n neighbor is ``i - n``
  whenever that index stays inside the row's key segment (segment
  starts via the standard new-key cumsum), NULL otherwise.  The
  partitioning assumption (custom-operator rule): one partition fits a
  worker; a key's history never crosses partitions.

* ``rolling_range_agg`` — a hot key's full history never gathers in
  one place: time is cut into buckets exactly one window wide; every
  row is a QUERY in its own bucket and a CANDIDATE replicated to
  buckets b and b+1, so a hash shuffle on (key, bucket) co-locates
  each query with every row that can fall in its trailing window.
  Group size is bounded by one key's rows in a 2-window slice, not its
  total history.  Within a partition: one lexsort, the range join's
  disjoint band encoding, then ONE searchsorted pair + a prefix-sum
  difference answers every query.  (Same kernel family as
  events.user_trailing_window_spend — generalized, and kept
  independently tested against brute force + DuckDB RANGE windows.)

Determinism: sums are exact int64 (quantize floats upstream); LAG tie
order is (ts, id) — a pure function of the data.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ._part import nparts_for

_MIX_A = np.uint64(0x9E3779B97F4A7C15)
_MIX_B = np.uint64(0xC2B2AE3D27D4EB4F)

_LAG_SCHEMA = pa.schema([("id", pa.int64()), ("key", pa.int64()),
                         ("lag_id", pa.int64()),
                         ("lag_val", pa.int64()),
                         ("gap", pa.int64())])


def keyed_lag(ds, n: int = 1, direction: str = "lag",
              n_parts: int | None = None):
    """For every row, the value/id of the row ``n`` positions earlier
    (``lag``) or later (``lead``) within the same key, ordered by
    (ts, id).  Input: Dataset with int64 (key, ts, id, val).  Returns
    (id, key, lag_id, lag_val, gap) with NULLs where no such row
    exists; ``gap`` is the non-negative |ts - neighbor ts|.

    SQL mirror: ``LAG(val, n) OVER (PARTITION BY key ORDER BY ts, id)``
    (or LEAD)."""
    import ray.data  # noqa: F401

    if direction not in ("lag", "lead"):
        raise ValueError(f"direction {direction!r}")
    if n < 1:
        raise ValueError("n must be >= 1")
    flip = -1 if direction == "lead" else 1

    def prep(batch: pa.Table, P: int) -> pa.Table:
        k = batch["key"].to_numpy(zero_copy_only=False)
        h = k.astype(np.uint64) * _MIX_A
        part = ((h >> np.uint64(33)) % np.uint64(P)).astype(np.int64)
        ts = batch["ts"].to_numpy(zero_copy_only=False) * flip
        rid = batch["id"].to_numpy(zero_copy_only=False)
        return pa.table({
            "key": pa.array(k, pa.int64()),
            "ts": pa.array(ts, pa.int64()),
            # lead = lag over (-ts, -id): id flips WITH ts so the
            # within-tie order stays the SQL one reversed end-to-end
            "oid": pa.array(rid * flip, pa.int64()),
            "id": pa.array(rid, pa.int64()),
            "val": pa.array(batch["val"].to_numpy(
                zero_copy_only=False), pa.int64()),
            "part": pa.array(part, pa.int64()),
        })

    def per_part(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _LAG_SCHEMA.empty_table()
        key = t["key"].to_numpy(zero_copy_only=False)
        ts = t["ts"].to_numpy(zero_copy_only=False)
        oid = t["oid"].to_numpy(zero_copy_only=False)
        rid = t["id"].to_numpy(zero_copy_only=False)
        val = t["val"].to_numpy(zero_copy_only=False)
        order = np.lexsort((oid, ts, key))
        key, ts, rid, val = key[order], ts[order], rid[order], val[order]
        m = len(key)
        new = np.empty(m, bool)
        new[0] = True
        new[1:] = key[1:] != key[:-1]
        starts = np.flatnonzero(new)
        rank = np.cumsum(new) - 1
        seg_start = starts[rank]
        idx = np.arange(m, dtype=np.int64)
        src = idx - n
        has = src >= seg_start
        src = np.maximum(src, 0)
        gap = np.abs(ts[idx] - ts[src])
        return pa.table({
            "id": pa.array(rid, pa.int64()),
            "key": pa.array(key, pa.int64()),
            "lag_id": pa.array(rid[src], pa.int64(), mask=~has),
            "lag_val": pa.array(val[src], pa.int64(), mask=~has),
            "gap": pa.array(gap, pa.int64(), mask=~has),
        })

    P = n_parts or nparts_for(ds.count(), rows_per_part=500_000,
                              floor=8)
    return (ds.map_batches(lambda b: prep(b, P),
                           batch_format="pyarrow")
            .groupby("part")
            .map_groups(per_part, batch_format="pyarrow"))


_ROLL_SCHEMA = pa.schema([("id", pa.int64()), ("key", pa.int64()),
                          ("n_in_window", pa.int64()),
                          ("win_sum", pa.int64())])


def rolling_range_agg(ds, window: int, n_parts: int | None = None):
    """For every row, the count and exact int64 sum of same-key rows
    with ts in [row.ts - window, row.ts] — inclusive both ends, self
    and equal-ts peers included (SQL ``RANGE BETWEEN window PRECEDING
    AND CURRENT ROW``).  Input: Dataset with int64 (key, ts, id, val).
    Returns (id, key, n_in_window, win_sum)."""
    import ray.data  # noqa: F401

    if window < 1:
        raise ValueError("window must be >= 1")
    w = np.int64(window)

    def prep(batch: pa.Table, P: int) -> pa.Table:
        k = batch["key"].to_numpy(zero_copy_only=False)
        ts = batch["ts"].to_numpy(zero_copy_only=False)
        rid = batch["id"].to_numpy(zero_copy_only=False)
        val = batch["val"].to_numpy(zero_copy_only=False)
        nrow = len(k)
        b = ts // w  # floor division: exact for negative ts too
        ks, tss, bs, cand, ids, vals = [], [], [], [], [], []
        # query copy (own bucket), then candidate copies in b, b+1
        ks.append(k); tss.append(ts); bs.append(b)
        cand.append(np.zeros(nrow, np.int64))
        ids.append(rid); vals.append(np.zeros(nrow, np.int64))
        for d in (0, 1):
            ks.append(k); tss.append(ts); bs.append(b + d)
            cand.append(np.ones(nrow, np.int64))
            ids.append(np.zeros(nrow, np.int64)); vals.append(val)
        kc = np.concatenate(ks)
        bc = np.concatenate(bs)
        mix = (kc.astype(np.uint64) * _MIX_A
               + bc.astype(np.uint64) * _MIX_B)
        part = ((mix >> np.uint64(33)) % np.uint64(P)).astype(np.int64)
        return pa.table({
            "key": pa.array(kc, pa.int64()),
            "ts": pa.array(np.concatenate(tss), pa.int64()),
            "bucket": pa.array(bc, pa.int64()),
            "is_cand": pa.array(np.concatenate(cand), pa.int64()),
            "id": pa.array(np.concatenate(ids), pa.int64()),
            "val": pa.array(np.concatenate(vals), pa.int64()),
            "part": pa.array(part, pa.int64()),
        })

    def per_part(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _ROLL_SCHEMA.empty_table()
        key = t["key"].to_numpy(zero_copy_only=False)
        ts = t["ts"].to_numpy(zero_copy_only=False)
        bucket = t["bucket"].to_numpy(zero_copy_only=False)
        is_cand = t["is_cand"].to_numpy(zero_copy_only=False)
        rid = t["id"].to_numpy(zero_copy_only=False)
        val = t["val"].to_numpy(zero_copy_only=False)
        order = np.lexsort((ts, is_cand, bucket, key))
        key, ts = key[order], ts[order]
        bucket, is_cand = bucket[order], is_cand[order]
        rid, val = rid[order], val[order]
        m = len(key)
        new = np.empty(m, bool)
        new[0] = True
        new[1:] = (key[1:] != key[:-1]) | (bucket[1:] != bucket[:-1])
        gid = np.cumsum(new) - 1
        # disjoint per-(key,bucket) band: candidates span [0, 2w) of
        # the band, queries probe [enc-w, enc] and never leave it.
        # The encoding must fit int64: n_groups * 4w < 2^63, or the
        # multiply wraps SILENTLY and scrambles the searchsorted bands
        # — refuse with the remedy instead (real risk at, e.g., a
        # 1-day window in epoch-microseconds over >~10^9 rows/part).
        n_groups = int(gid[-1]) + 1
        if n_groups > (2 ** 62) // (2 * w):
            raise ValueError(
                f"rolling_range_agg: band encoding would overflow "
                f"int64 ({n_groups} (key,bucket) groups x window "
                f"{w}); raise num_partitions so each partition holds "
                f"fewer groups, or coarsen ts units / the window")
        enc = gid * (4 * w) + (ts - bucket * w) + w
        c = is_cand == 1
        enc_c, val_c = enc[c], val[c]
        cs = np.cumsum(val_c)
        q = ~c
        if not q.any():
            return _ROLL_SCHEMA.empty_table()
        enc_q = enc[q]
        lo = np.searchsorted(enc_c, enc_q - w, side="left")
        hi = np.searchsorted(enc_c, enc_q, side="right")
        n_in = hi - lo
        total = (np.where(hi > 0, cs[np.maximum(hi - 1, 0)], 0)
                 - np.where(lo > 0, cs[np.maximum(lo - 1, 0)], 0))
        return pa.table({
            "id": pa.array(rid[q], pa.int64()),
            "key": pa.array(key[q], pa.int64()),
            "n_in_window": pa.array(n_in, pa.int64()),
            "win_sum": pa.array(total, pa.int64()),
        })

    P = n_parts or nparts_for(3 * ds.count(), rows_per_part=500_000,
                              floor=8)
    return (ds.map_batches(lambda b: prep(b, P),
                           batch_format="pyarrow")
            .groupby("part")
            .map_groups(per_part, batch_format="pyarrow"))


def rolling_rows_agg(ds, k: int, n_parts: int | None = None):
    """For every row, the count and exact int64 sum of the up-to-``k``
    most recent same-key rows ending at it, ordered by (ts, id) —
    SQL ``ROWS BETWEEN k-1 PRECEDING AND CURRENT ROW`` (deterministic
    because id is the tiebreak).  Input: int64 (key, ts, id, val).
    Returns (id, key, n_in_window, win_sum).

    Same shuffle as keyed_lag — hash(key) %% P once, one lexsort + one
    cumsum per partition, window sum as ``cs[i] - cs[j-1]`` with
    ``j = max(segment_start, i-k+1)`` (the user_peak_window_spend
    kernel, exposed generically and per-row instead of max-reduced)."""
    import ray.data  # noqa: F401

    if k < 1:
        raise ValueError("k must be >= 1")

    def prep(batch: pa.Table, P: int) -> pa.Table:
        key = batch["key"].to_numpy(zero_copy_only=False)
        h = key.astype(np.uint64) * _MIX_A
        part = ((h >> np.uint64(33)) % np.uint64(P)).astype(np.int64)
        return pa.table({
            "key": batch["key"], "ts": batch["ts"],
            "id": batch["id"], "val": batch["val"],
            "part": pa.array(part, pa.int64()),
        })

    def per_part(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _ROLL_SCHEMA.empty_table()
        key = t["key"].to_numpy(zero_copy_only=False)
        ts = t["ts"].to_numpy(zero_copy_only=False)
        rid = t["id"].to_numpy(zero_copy_only=False)
        val = t["val"].to_numpy(zero_copy_only=False)
        order = np.lexsort((rid, ts, key))
        key, rid, val = key[order], rid[order], val[order]
        m = len(key)
        new = np.empty(m, bool)
        new[0] = True
        new[1:] = key[1:] != key[:-1]
        starts = np.flatnonzero(new)
        seg_start = starts[np.cumsum(new) - 1]
        cs = np.cumsum(val)
        idx = np.arange(m, dtype=np.int64)
        j = np.maximum(seg_start, idx - (k - 1))
        total = cs - np.where(j > 0, cs[np.maximum(j - 1, 0)], 0)
        return pa.table({
            "id": pa.array(rid, pa.int64()),
            "key": pa.array(key, pa.int64()),
            "n_in_window": pa.array(idx - j + 1, pa.int64()),
            "win_sum": pa.array(total, pa.int64()),
        })

    P = n_parts or nparts_for(ds.count(), rows_per_part=500_000,
                              floor=8)
    return (ds.map_batches(lambda b: prep(b, P),
                           batch_format="pyarrow")
            .groupby("part")
            .map_groups(per_part, batch_format="pyarrow"))


_FILL_SCHEMA = pa.schema([("id", pa.int64()), ("key", pa.int64()),
                          ("ts", pa.int64()), ("val", pa.int64())])


def keyed_fill(ds, direction: str = "forward",
               n_parts: int | None = None):
    """Per-key gap filling: replace each NULL ``val`` with the nearest
    non-NULL value at-or-before it (``forward`` — LOCF) or at-or-after
    it (``backward`` — NOCB) within the same key, ordered by (ts, id).
    Rows with no such value keep NULL.  Input: Dataset with int64
    (key, ts, id) and nullable int64 val; returns (id, key, ts, val).

    SQL mirror: ``last_value(val IGNORE NULLS) OVER (PARTITION BY key
    ORDER BY ts, id ROWS UNBOUNDED PRECEDING)`` (backward: first_value
    / UNBOUNDED FOLLOWING).

    Scale shape = keyed_lag: ONE hash(key) %% P shuffle (data-sized P,
    no per-key groups), then one branch-free numpy pass per partition —
    lexsort, maximum.accumulate over where(valid, idx, -1), and the
    segment-start guard nulls any carry that would leak across keys.
    """
    import ray.data  # noqa: F401

    if direction not in ("forward", "backward"):
        raise ValueError(f"direction {direction!r}")
    flip = -1 if direction == "backward" else 1

    def prep(batch: pa.Table, P: int) -> pa.Table:
        k = batch["key"].to_numpy(zero_copy_only=False)
        h = k.astype(np.uint64) * _MIX_A
        part = ((h >> np.uint64(33)) % np.uint64(P)).astype(np.int64)
        ts = batch["ts"].to_numpy(zero_copy_only=False) * flip
        rid = batch["id"].to_numpy(zero_copy_only=False)
        return pa.table({
            "key": pa.array(k, pa.int64()),
            "sts": pa.array(ts, pa.int64()),
            # backward = forward over (-ts, -id): id flips WITH ts so
            # the within-tie order stays the SQL one reversed
            "oid": pa.array(rid * flip, pa.int64()),
            "id": pa.array(rid, pa.int64()),
            "val": batch["val"].cast(pa.int64()),
            "part": pa.array(part, pa.int64()),
        })

    def per_part(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _FILL_SCHEMA.empty_table()
        key = t["key"].to_numpy(zero_copy_only=False)
        sts = t["sts"].to_numpy(zero_copy_only=False)
        oid = t["oid"].to_numpy(zero_copy_only=False)
        rid = t["id"].to_numpy(zero_copy_only=False)
        vcol = t["val"].combine_chunks()
        valid = vcol.is_valid().to_numpy(zero_copy_only=False)
        val = vcol.fill_null(0).to_numpy(zero_copy_only=False)
        order = np.lexsort((oid, sts, key))
        key, sts, rid = key[order], sts[order], rid[order]
        valid, val = valid[order], val[order]
        m = len(key)
        new = np.empty(m, bool)
        new[0] = True
        new[1:] = key[1:] != key[:-1]
        starts = np.flatnonzero(new)
        seg_start = starts[np.cumsum(new) - 1]
        idx = np.arange(m, dtype=np.int64)
        src = np.maximum.accumulate(np.where(valid, idx, -1))
        has = src >= seg_start          # carry never crosses a key
        src = np.maximum(src, 0)
        return pa.table({
            "id": pa.array(rid, pa.int64()),
            "key": pa.array(key, pa.int64()),
            "ts": pa.array(sts * flip, pa.int64()),
            "val": pa.array(val[src], pa.int64(), mask=~has),
        })

    P = n_parts or nparts_for(ds.count(), rows_per_part=500_000,
                              floor=8)
    return (ds.map_batches(lambda b: prep(b, P),
                           batch_format="pyarrow")
            .groupby("part")
            .map_groups(per_part, batch_format="pyarrow"))
