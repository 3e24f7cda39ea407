"""Stream-shaped operators over the ``events`` table.

Ray Data has no event-time windows (ray guide "Streaming-shaped
workloads"); the pattern is: partition by key, sort by ts within the
group, window with pandas inside ``groupby(key).map_groups``.  Tumbling
windows reduce to a groupby on the truncated timestamp.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ._num import round_half_up, np_round_half_up
from .relational import _dense_lookup, _gb


def _read(sf_dir: str, columns=None):
    import ray.data as rd

    from ._io import clean_read

    return clean_read(f"{sf_dir}/events.parquet", columns=columns)


def _val_milli(arr) -> pa.Array:
    """value (float) -> exact int64 millis for order-free summation."""
    return pc.cast(pc.floor(pc.add(pc.multiply(arr, pa.scalar(1000.0)),
                                   pa.scalar(0.5))), pa.int64())


def events_daily(sf_dir: str):
    """Tumbling daily window = groupby the truncated timestamp (emitted as
    a string so both engines hash the same value)."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, ["ts", "value"])

    def partial(batch: pa.Table) -> pa.Table:
        day = pc.strftime(batch["ts"], format="%Y-%m-%d")
        t = pa.table({"day": day, "v": _val_milli(batch["value"])})
        return _gb(t, ["day"], [("v", "sum"), ("v", "count_all")], ["v", "n"])

    agg = ds.map_batches(partial, batch_format="pyarrow").groupby("day") \
        .aggregate(Sum("v", alias_name="v"), Sum("n", alias_name="n_events"))

    def finalize(batch: pa.Table) -> pa.Table:
        return pa.table({
            "day": batch["day"],
            "n_events": batch["n_events"],
            "sum_value": round_half_up(pc.divide(pc.cast(
                batch["v"], pa.float64()), pa.scalar(1000.0)), 3),
        })

    return agg.map_batches(finalize, batch_format="pyarrow")


def events_daily_dense(sf_dir: str):
    """Daily event counts over a DENSE calendar spine: every epoch day
    between the corpus min and max appears, gap days as n_events = 0 —
    the generate_series LEFT JOIN shape (reporting and
    time-series-model inputs cannot tolerate missing rows).

    Scale design: the shuffle is the ordinary per-day partial-agg
    groupby; the dense fill then runs over the AGGREGATED table, whose
    size is the number of distinct days — bounded by the calendar, not
    the data — so the `repartition(1)` that makes the spine one
    vectorized pass is a documented small-result gate (a century is
    ~37k rows).  Days are exact floor divisions of epoch-microseconds
    (negative timestamps included), matching the mirror's
    floor(epoch/86400).  Oracle: EVENTS_DAILY_DENSE_SQL.
    """
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, ["ts"])

    def partial(batch: pa.Table) -> pa.Table:
        us = pc.cast(batch["ts"], pa.int64()).to_numpy(
            zero_copy_only=False)
        d = us // 86_400_000_000        # numpy floor division, exact
        days, counts = np.unique(d, return_counts=True)
        return pa.table({"epoch_day": pa.array(days, pa.int64()),
                         "n": pa.array(counts, pa.int64())})

    agg = (ds.map_batches(partial, batch_format="pyarrow")
           .groupby("epoch_day")
           .aggregate(Sum("n", alias_name="n_events")))

    out_schema = pa.schema([("epoch_day", pa.int64()),
                            ("n_events", pa.int64())])

    def fill(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return out_schema.empty_table()
        d = batch["epoch_day"].to_numpy(zero_copy_only=False)
        n = batch["n_events"].to_numpy(zero_copy_only=False)
        lo, hi = int(d.min()), int(d.max())
        full = np.arange(lo, hi + 1, dtype=np.int64)
        dense = np.zeros(len(full), np.int64)
        dense[d - lo] = n
        return pa.table({"epoch_day": pa.array(full, pa.int64()),
                         "n_events": pa.array(dense, pa.int64())})

    return agg.repartition(1).map_batches(fill, batch_format="pyarrow")


EVENTS_DAILY_DENSE_SQL = """
WITH b AS (
  SELECT CAST(floor(epoch(ts) / 86400.0) AS BIGINT) AS epoch_day,
         count(*) AS n
  FROM events GROUP BY 1
), s AS (
  -- list-form generate_series: the table-function form rejects
  -- subquery bounds in DuckDB
  SELECT unnest(generate_series((SELECT min(epoch_day) FROM b),
                                (SELECT max(epoch_day) FROM b)))
         AS epoch_day
)
SELECT s.epoch_day, CAST(COALESCE(b.n, 0) AS BIGINT) AS n_events
FROM s LEFT JOIN b ON s.epoch_day = b.epoch_day
"""


def top_users_by_value(sf_dir: str, k: int = 20):
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, ["user_id", "value"])

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table({"user_id": batch["user_id"], "v": _val_milli(batch["value"])})
        return _gb(t, ["user_id"], [("v", "sum")], ["v"])

    agg = ds.map_batches(partial, batch_format="pyarrow").groupby("user_id") \
        .aggregate(Sum("v", alias_name="v"))

    def finalize(batch: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": batch["user_id"],
            "total_value": round_half_up(pc.divide(pc.cast(
                batch["v"], pa.float64()), pa.scalar(1000.0)), 3),
        })

    return (agg.map_batches(finalize, batch_format="pyarrow")
            .sort(["total_value", "user_id"], descending=[True, False]).limit(k))


TOP_USERS_SQL = """
SELECT user_id,
       floor((sum(CAST(floor(value * 1000.0 + 0.5) AS BIGINT)) / 1000.0) * 1000.0 + 0.5) / 1000.0 AS total_value
FROM events GROUP BY user_id
ORDER BY total_value DESC, user_id ASC LIMIT 20
"""


def sessionize(sf_dir: str, gap_minutes: int = 30):
    """Session windows per user: sorted by ts within the user, a new
    session starts when the gap to the previous event exceeds
    ``gap_minutes``.

    Round-5 kernel (the same rewrite as ``error_click_asof`` /
    ``error_click_range_join``): the shuffle key is hash(user) % P, not
    the raw user_id — groupby(user_id).map_groups paid one Python call
    + a pandas sort PER USER (millions of interpreter round-trips at
    scale).  A hash partition co-locates each user's full history just
    as well; the whole partition is answered in one numpy pass:
    lexsort by (user, ts), segmented diff, ``new session = user
    boundary OR gap > threshold``, then a per-user rollup with one
    Arrow group_by per partition.  Null user_ids keep the oracle's
    NULL group via a ``uid_null`` sentinel (same discipline as asof).
    Partitioning assumption (custom-operator rule): one PARTITION
    (~500k rows) fits in a worker — per-key history never needs to be
    driver-resident, and hot keys share their partition with others.
    """
    from ._part import nparts_for

    ds = _read(sf_dir, ["user_id", "ts"])
    gap_us = np.int64(gap_minutes) * 60 * 1_000_000

    import pyarrow.parquet as _pq
    n_events = _pq.ParquetFile(
        f"{sf_dir}/events.parquet").metadata.num_rows
    n_parts = nparts_for(n_events, rows_per_part=500_000, floor=8)

    def tag(batch: pa.Table) -> pa.Table:
        ua = batch["user_id"]
        unull = pc.is_null(ua).to_numpy(zero_copy_only=False)
        users = pc.fill_null(ua, 0).to_numpy(zero_copy_only=False)
        ts_us = pc.cast(batch["ts"], pa.int64()).to_numpy(
            zero_copy_only=False)
        mix = (users.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
               + unull.astype(np.uint64))
        part = ((mix >> np.uint64(33)) % np.uint64(n_parts)).astype(
            np.int64)
        return pa.table({
            "user_id": pa.array(users, pa.int64()),
            "uid_null": pa.array(unull.astype(np.int64), pa.int64()),
            "ts_us": pa.array(ts_us, pa.int64()),
            "part": pa.array(part, pa.int64()),
        })

    def per_part(part: pa.Table) -> pa.Table:
        users = part["user_id"].to_numpy(zero_copy_only=False)
        unull = part["uid_null"].to_numpy(zero_copy_only=False)
        ts = part["ts_us"].to_numpy(zero_copy_only=False)
        order = np.lexsort((ts, users, unull))
        users, unull, ts = users[order], unull[order], ts[order]
        n = len(users)
        new_sess = np.ones(n, np.int64)
        if n > 1:
            same_user = ((users[1:] == users[:-1])
                         & (unull[1:] == unull[:-1]))
            new_sess[1:] = np.where(
                same_user & (ts[1:] - ts[:-1] <= gap_us), 0, 1)
        t = pa.table({
            "user_id": pa.array(users, pa.int64()),
            "uid_null": pa.array(unull, pa.int64()),
            "new_sess": pa.array(new_sess, pa.int64()),
        })
        g = t.group_by(["user_id", "uid_null"]).aggregate(
            [("new_sess", "count"), ("new_sess", "sum")])
        uid = g["user_id"].to_numpy(zero_copy_only=False)
        gnull = g["uid_null"].to_numpy(zero_copy_only=False) == 1
        return pa.table({
            "user_id": pa.array(
                [None if isnull else int(u)
                 for u, isnull in zip(uid, gnull)], pa.int64()),
            "n_events": g["new_sess_count"].cast(pa.int64()),
            "n_sessions": g["new_sess_sum"].cast(pa.int64()),
        })

    return (ds.map_batches(tag, batch_format="pyarrow")
            .groupby("part")
            .map_groups(per_part, batch_format="pyarrow")
            .select_columns(["user_id", "n_events", "n_sessions"]))


SESSIONIZE_SQL = """
SELECT user_id, count(*) AS n_events, CAST(sum(new_sess) AS BIGINT) AS n_sessions
FROM (
  SELECT user_id,
         CASE WHEN lag(ts) OVER w IS NULL
                OR ts - lag(ts) OVER w > INTERVAL 30 MINUTE
              THEN 1 ELSE 0 END AS new_sess
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts)
) GROUP BY user_id
"""


def props_k_stats(sf_dir: str):
    """Parse the JSON ``props`` column and aggregate the ``k`` field per
    event type — the scalar-function-library JSON op (SURVEY.md §2.8)."""
    import json

    from ray.data.aggregate import Max, Min, Sum

    ds = _read(sf_dir, ["event_type", "props"])

    def parse(batch: pa.Table) -> pa.Table:
        ks = [json.loads(p_)["k"] for p_ in batch["props"].to_pylist()]
        t = pa.table({"event_type": batch["event_type"],
                      "k": pa.array(ks, pa.int64())})
        return _gb(t, ["event_type"],
                   [("k", "sum"), ("k", "max"), ("k", "min"), ("k", "count_all")],
                   ["sum_k", "max_k", "min_k", "n"])

    agg = ds.map_batches(parse, batch_format="pyarrow").groupby("event_type") \
        .aggregate(Sum("sum_k", alias_name="sum_k"),
                   Max("max_k", alias_name="max_k"),
                   Min("min_k", alias_name="min_k"),
                   Sum("n", alias_name="n_events"))

    def finalize(batch: pa.Table) -> pa.Table:
        return pa.table({
            "event_type": batch["event_type"],
            "sum_k": batch["sum_k"],
            "max_k": batch["max_k"],
            "min_k": batch["min_k"],
            "n_events": batch["n_events"],
        })

    return agg.map_batches(finalize, batch_format="pyarrow")


PROPS_K_SQL = """
SELECT event_type,
       CAST(sum(CAST(json_extract(props, '$.k') AS BIGINT)) AS BIGINT) AS sum_k,
       max(CAST(json_extract(props, '$.k') AS BIGINT)) AS max_k,
       min(CAST(json_extract(props, '$.k') AS BIGINT)) AS min_k,
       count(*) AS n_events
FROM events GROUP BY event_type
"""


def user_activity_join(sf_dir: str):
    """events x customer broadcast semi-join: per-mktsegment event value
    (user_id maps to c_custkey).  Small side broadcast, no shuffle on
    events (SURVEY.md §2.4 J-family)."""
    import pyarrow.parquet as pq

    from ray.data.aggregate import Sum

    cust = pq.read_table(f"{sf_dir}/customer.parquet",
                         columns=["c_custkey", "c_mktsegment"])
    seg_arr = _dense_lookup(cust["c_custkey"].to_numpy(),
                            cust["c_mktsegment"].to_pylist())

    ds = _read(sf_dir, ["user_id", "value"])

    def partial(batch: pa.Table, seg_arr=seg_arr) -> pa.Table:
        uid = batch["user_id"].to_numpy(zero_copy_only=False)
        segs = np.where(uid < len(seg_arr), seg_arr[np.minimum(
            uid, len(seg_arr) - 1)], None)
        t = pa.table({"c_mktsegment": pa.array(segs, pa.string()),
                      "v": _val_milli(batch["value"])})
        t = t.filter(pa.compute.is_valid(t["c_mktsegment"]))
        return _gb(t, ["c_mktsegment"], [("v", "sum"), ("v", "count_all")],
                   ["v", "n"])

    agg = ds.map_batches(partial, batch_format="pyarrow").groupby(
        "c_mktsegment").aggregate(Sum("v", alias_name="v"),
                                  Sum("n", alias_name="n_events"))

    def finalize(batch: pa.Table) -> pa.Table:
        return pa.table({
            "c_mktsegment": batch["c_mktsegment"],
            "n_events": batch["n_events"],
            "sum_value": round_half_up(pc.divide(pc.cast(
                batch["v"], pa.float64()), pa.scalar(1000.0)), 3),
        })

    return agg.map_batches(finalize, batch_format="pyarrow")


USER_ACTIVITY_SQL = """
SELECT c.c_mktsegment, count(*) AS n_events,
       floor((sum(CAST(floor(e.value * 1000.0 + 0.5) AS BIGINT)) / 1000.0) * 1000.0 + 0.5) / 1000.0 AS sum_value
FROM events e JOIN customer c ON e.user_id = c.c_custkey
GROUP BY c.c_mktsegment
"""


def events_hourly_histogram(sf_dir: str):
    """Hour-of-day activity histogram (cyclic window rollup)."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, ["ts"])

    def partial(batch: pa.Table) -> pa.Table:
        hours = pc.cast(pc.hour(batch["ts"]), pa.int64())
        return _gb(pa.table({"hour": hours}), ["hour"],
                   [("hour", "count_all")], ["n"])

    return ds.map_batches(partial, batch_format="pyarrow").groupby(
        "hour").aggregate(Sum("n", alias_name="n_events"))


EVENTS_HOURLY_SQL = """
SELECT CAST(hour(ts) AS BIGINT) AS hour, count(*) AS n_events
FROM events GROUP BY 1
"""


def events_daily_moving_avg(sf_dir: str, window: int = 7):
    """Sliding window over the tumbling daily rollup: 7-day moving average
    of daily event counts.  The heavy part is the (already small) daily
    aggregate; the window pass runs over ~30 rows."""
    daily = events_daily(sf_dir)

    def moving(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas().sort_values("day").reset_index(drop=True)
        ma = df["n_events"].rolling(window, min_periods=1).mean()
        df["ma7_events"] = np.floor(ma * 1e6 + 0.5) / 1e6
        return pa.Table.from_pandas(
            df[["day", "n_events", "ma7_events"]], preserve_index=False)

    # single small batch: coalesce so the window sees all days together
    return daily.repartition(1).map_batches(moving, batch_format="pyarrow",
                                            batch_size=None)


EVENTS_MOVING_AVG_SQL = """
WITH daily AS (
  SELECT strftime(ts, '%Y-%m-%d') AS day, count(*) AS n_events,
         floor((sum(CAST(floor(value * 1000.0 + 0.5) AS BIGINT)) / 1000.0) * 1000.0 + 0.5) / 1000.0 AS sum_value
  FROM events GROUP BY 1
)
SELECT day, n_events,
       floor(avg(n_events) OVER (ORDER BY day ROWS BETWEEN 6 PRECEDING AND CURRENT ROW) * 1000000.0 + 0.5) / 1000000.0 AS ma7_events
FROM daily
"""


def events_windows_watermark(sf_dir: str, lateness_hours: int = 12):
    """Tumbling daily windows with WATERMARK semantics (the batch
    rendition of late-data handling, SURVEY.md §2.9): the watermark is
    max(ts) - allowed lateness; a window is FINAL iff its end is at or
    before the watermark, else still OPEN.  Events later than the
    watermark inside a final window would be "late" in a live stream —
    here the flag tells a downstream incremental consumer which daily
    partitions are safe to commit (the lineage-marker analog for
    event-time data).

    Two passes: a cheap global max(ts) aggregate (the watermark), then
    the daily rollup with the final/open flag — both streaming, no
    driver materialization.  Exact SQL oracle in
    EVENTS_WINDOWS_WATERMARK_SQL (pytest-gated; driver registry is
    full)."""
    from ray.data.aggregate import Max, Sum

    ds = _read(sf_dir, ["ts", "value"])
    wm = ds.aggregate(Max("ts", alias_name="m"))["m"]
    watermark = pd.Timestamp(wm) - pd.Timedelta(hours=lateness_hours)

    def partial(batch: pa.Table) -> pa.Table:
        day = pc.strftime(batch["ts"], format="%Y-%m-%d")
        t = pa.table({"day": day, "v": _val_milli(batch["value"])})
        return _gb(t, ["day"], [("v", "sum"), ("v", "count_all")], ["v", "n"])

    agg = ds.map_batches(partial, batch_format="pyarrow").groupby("day") \
        .aggregate(Sum("v", alias_name="v"), Sum("n", alias_name="n_events"))

    def finalize(batch: pa.Table, watermark=watermark) -> pa.Table:
        days = pd.to_datetime(batch["day"].to_pylist())
        window_end = days + pd.Timedelta(days=1)
        return pa.table({
            "day": batch["day"],
            "n_events": batch["n_events"],
            "sum_value": round_half_up(pc.divide(pc.cast(
                batch["v"], pa.float64()), pa.scalar(1000.0)), 3),
            "is_final": pa.array(window_end <= watermark, pa.bool_()),
        })

    return agg.map_batches(finalize, batch_format="pyarrow")


EVENTS_WINDOWS_WATERMARK_SQL = """
WITH wm AS (SELECT max(ts) - INTERVAL 12 HOUR AS watermark FROM events),
daily AS (
  SELECT strftime(ts, '%Y-%m-%d') AS day, count(*) AS n_events,
         floor((sum(CAST(floor(value * 1000.0 + 0.5) AS BIGINT)) / 1000.0) * 1000.0 + 0.5) / 1000.0 AS sum_value
  FROM events GROUP BY 1
)
SELECT day, n_events, sum_value,
       (CAST(day AS TIMESTAMP) + INTERVAL 1 DAY)
         <= (SELECT watermark FROM wm) AS is_final
FROM daily
"""


def error_click_asof(sf_dir: str, max_gap_minutes: int = 60):
    """As-of join (custom operator, SURVEY.md §2 "custom operators"):
    for every 'error' event, the most recent preceding 'click' by the
    same user within a tolerance.  Oracle: DuckDB ASOF JOIN.

    Round-4 kernel (the same rewrite the range join got): partitioning
    by hash(user) %% P instead of groupby(user_id) — the raw key made
    one Python map_groups call per user.  Each partition is answered in
    one numpy pass: rows lexsorted by (user, ts, is_error) so a click
    at the same ts precedes the error it may match (gap 0 counts), then
    the most-recent-prior-click index is a SEGMENTED cumulative max of
    `rank*(n+2) + click_pos+1` — rank is the user's dense rank in sort
    order, so the rank term dominates anything carried over from an
    earlier user and the cummax resets per user without a loop.
    Per-user rollup finishes inside the partition (a user's rows are
    co-located by construction); null-user errors keep the oracle's
    NULL group (zero matches), null-user clicks never join."""
    from ._io import clean_read
    from ._part import nparts_for

    ds = clean_read(f"{sf_dir}/events.parquet",
                    columns=["user_id", "ts", "event_type"])
    tol_us = np.int64(max_gap_minutes) * 60 * 1_000_000

    import pyarrow.parquet as _pq
    n_events = _pq.ParquetFile(
        f"{sf_dir}/events.parquet").metadata.num_rows
    n_parts = nparts_for(n_events, rows_per_part=500_000, floor=8)

    def tag(batch: pa.Table) -> pa.Table:
        kind = batch["event_type"].to_numpy(zero_copy_only=False)
        ts_us = pc.cast(batch["ts"], pa.int64()).to_numpy(
            zero_copy_only=False)
        ua = batch["user_id"]
        unull = pc.is_null(ua).to_numpy(zero_copy_only=False)
        users = pc.fill_null(ua, 0).to_numpy(zero_copy_only=False)
        err = kind == "error"
        keep = err | ((kind == "click") & ~unull)
        users, ts_us = users[keep], ts_us[keep]
        unull_k, is_err = unull[keep], err[keep]
        mix = (users.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
               + unull_k.astype(np.uint64))
        part = ((mix >> np.uint64(33)) % np.uint64(n_parts)).astype(
            np.int64)
        return pa.table({
            "user_id": pa.array(users, pa.int64()),
            "uid_null": pa.array(unull_k.astype(np.int64), pa.int64()),
            "ts_us": pa.array(ts_us, pa.int64()),
            "is_error": pa.array(is_err.astype(np.int64), pa.int64()),
            "part": pa.array(part, pa.int64()),
        })

    _SCHEMA = pa.schema([("user_id", pa.int64()),
                         ("n_errors", pa.int64()),
                         ("n_matched", pa.int64()),
                         ("avg_gap_s", pa.float64())])

    def per_part(part: pa.Table) -> pa.Table:
        users = part["user_id"].to_numpy(zero_copy_only=False)
        unull = part["uid_null"].to_numpy(zero_copy_only=False)
        ts = part["ts_us"].to_numpy(zero_copy_only=False)
        is_err = part["is_error"].to_numpy(zero_copy_only=False)
        order = np.lexsort((is_err, ts, users, unull))
        users, unull = users[order], unull[order]
        ts, is_err = ts[order], is_err[order]
        n = len(users)
        new = np.empty(n, bool)
        new[0] = True
        new[1:] = (users[1:] != users[:-1]) | (unull[1:] != unull[:-1])
        rank = np.cumsum(new) - 1
        big = np.int64(n + 2)
        pos = np.arange(n, dtype=np.int64)
        v = rank * big + np.where(is_err == 0, pos + 1, 0)
        m = np.maximum.accumulate(v)
        e = is_err == 1
        if not e.any():
            return pa.Table.from_pylist([], schema=_SCHEMA)
        off = m[e] - rank[e] * big           # 0 = no prior click
        has = off >= 1
        click_idx = np.where(has, off - 1, 0)
        gap = ts[e] - ts[click_idx]
        matched = has & (gap <= tol_us)
        gap_us = np.where(matched, gap, 0)
        t = pa.table({
            "user_id": pa.array(users[e], pa.int64()),
            "uid_null": pa.array(unull[e], pa.int64()),
            "matched": pa.array(matched.astype(np.int64), pa.int64()),
            "gap_us": pa.array(gap_us, pa.int64()),
        })
        g = t.group_by(["user_id", "uid_null"]).aggregate(
            [("matched", "count"), ("matched", "sum"), ("gap_us", "sum")])
        uid = g["user_id"].to_numpy(zero_copy_only=False)
        gnull = g["uid_null"].to_numpy(zero_copy_only=False) == 1
        n_err = g["matched_count"].to_numpy(zero_copy_only=False)
        n_m = g["matched_sum"].to_numpy(zero_copy_only=False)
        gsum = g["gap_us_sum"].to_numpy(zero_copy_only=False)
        # integer-us sums; float only in the final floor-rounded average
        avg = np.where(n_m > 0,
                       np.floor(gsum / 1e6 / np.maximum(n_m, 1) * 1e3
                                + 0.5) / 1e3, -1.0)
        return pa.table({
            "user_id": pa.array(
                [None if isnull else int(u)
                 for u, isnull in zip(uid, gnull)], pa.int64()),
            "n_errors": pa.array(n_err, pa.int64()),
            "n_matched": pa.array(n_m, pa.int64()),
            "avg_gap_s": pa.array(avg, pa.float64()),
        })

    return (ds.map_batches(tag, batch_format="pyarrow")
            .groupby("part")
            .map_groups(per_part, batch_format="pyarrow")
            .select_columns(["user_id", "n_errors", "n_matched",
                             "avg_gap_s"]))


ERROR_CLICK_ASOF_SQL = """
WITH e AS (SELECT user_id, ts FROM events WHERE event_type = 'error'),
     c AS (SELECT user_id, ts AS click_ts FROM events WHERE event_type = 'click'),
     j AS (
       SELECT e.user_id, e.ts, c.click_ts
       FROM e ASOF LEFT JOIN c
         ON e.user_id = c.user_id AND e.ts >= c.click_ts
     ),
     jj AS (
       SELECT user_id, ts,
              CASE WHEN click_ts IS NOT NULL
                        AND ts - click_ts <= INTERVAL 60 MINUTE
                   THEN date_diff('microsecond', click_ts, ts)
              END AS gap_us
       FROM j
     )
SELECT user_id,
       count(*) AS n_errors,
       CAST(count(gap_us) AS BIGINT) AS n_matched,
       CASE WHEN count(gap_us) = 0 THEN -1.0
            ELSE floor((sum(gap_us) / 1000000.0 / count(gap_us)) * 1000.0 + 0.5)
                 / 1000.0 END AS avg_gap_s
FROM jj GROUP BY user_id
"""


def error_click_range_join(sf_dir: str, window_minutes: int = 5,
                           ts_as: str = "timestamp"):
    """RANGE JOIN as a custom distributed operator (the third of the
    brief's lacking-in-Ray-Data trio: as-of ✓, windowed ✓, range ✓):
    for every 'error' event, count the same user's 'click' events with
    |click_ts - error_ts| <= window (inclusive both ends).

    Scale design — bucketized band join, NOT a per-user group: time is
    cut into buckets of exactly the window width; each error lands in
    its own bucket, each click is REPLICATED to its bucket and both
    neighbors (any in-range partner of an error in bucket b lives in
    b-1..b+1), and a hash shuffle on (user_id, bucket) co-locates every
    error with all its candidate clicks.  Group size is bounded by the
    events in a 3-window time slice of one user — NOT by the user's
    total history (the per-user sessionize assumption does not apply
    here; a hot user's year of events still splits across buckets).

    Round-4 kernel (r3 VERDICT Next #4 — this was the slowest bench
    query): the shuffle key is hash(user, bucket) %% P, NOT the raw
    (user, bucket) pair — at sf0.1 the raw key made ~79k groups of a
    handful of rows each and map_groups paid a Python call + Arrow
    table build PER GROUP.  Now there are P data-sized partitions and
    each one is counted in a single numpy pass: rows lexsorted by
    (group, is_click, ts), every group's timestamps transposed onto a
    disjoint 4w-wide band (enc = gid*4w + ts - bucket*w + w, clicks
    span [0,3w) of the band, error queries ±w never leave it), then
    ONE global searchsorted pair answers every error in the partition.
    """
    import numpy as np

    from ._io import clean_read
    from ._part import nparts_for

    ds = clean_read(f"{sf_dir}/events.parquet",
                    columns=["user_id", "ts", "event_type"])
    w_us = np.int64(window_minutes) * 60 * 1_000_000

    import pyarrow.parquet as _pq
    n_events = _pq.ParquetFile(
        f"{sf_dir}/events.parquet").metadata.num_rows
    # tagged rows ~= errors + 3x clicks ~= 2x input (driver-side footer
    # read, no data scan); partitions scale with data, floor 8
    n_parts = nparts_for(2 * n_events, rows_per_part=500_000, floor=8)

    def tag(batch: pa.Table, w_us=w_us) -> pa.Table:
        kind = batch["event_type"].to_numpy(zero_copy_only=False)
        ts_us = pc.cast(batch["ts"], pa.int64()).to_numpy(
            zero_copy_only=False)
        # NULL user_id semantics mirror the SQL oracle's equi-join:
        # null-user clicks never join anything (dropped here); null-user
        # errors survive as zero-count groups.  Nullness rides as a
        # sentinel int column (uid_null) because to_numpy on a nullable
        # int64 would produce float NaN and Ray's sort groupby cannot
        # order None keys (ADVICE r3).
        ua = batch["user_id"]
        unull = pc.is_null(ua).to_numpy(zero_copy_only=False)
        users = pc.fill_null(ua, 0).to_numpy(zero_copy_only=False)
        b = ts_us // w_us
        out_u, out_t, out_b, out_r, out_n = [], [], [], [], []
        err = kind == "error"
        clk = (kind == "click") & ~unull
        # errors: one row each, in their own bucket
        out_u.append(users[err]); out_t.append(ts_us[err])
        out_b.append(b[err]); out_r.append(np.zeros(err.sum(), np.int64))
        out_n.append(unull[err].astype(np.int64))
        # clicks: replicated to bucket-1, bucket, bucket+1
        for d in (-1, 0, 1):
            out_u.append(users[clk]); out_t.append(ts_us[clk])
            out_b.append(b[clk] + d)
            out_r.append(np.ones(clk.sum(), np.int64))
            out_n.append(np.zeros(clk.sum(), np.int64))
        users_c = np.concatenate(out_u)
        bucket_c = np.concatenate(out_b)
        # shuffle key: multiplicative hash of (user, bucket) -> P parts
        mix = (users_c.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
               + bucket_c.astype(np.uint64) * np.uint64(0xC2B2AE3D27D4EB4F))
        part = ((mix >> np.uint64(33)) % np.uint64(n_parts)).astype(np.int64)
        return pa.table({
            "user_id": pa.array(users_c, pa.int64()),
            "uid_null": pa.array(np.concatenate(out_n), pa.int64()),
            "ts_us": pa.array(np.concatenate(out_t), pa.int64()),
            "bucket": pa.array(bucket_c, pa.int64()),
            "is_click": pa.array(np.concatenate(out_r), pa.int64()),
            "part": pa.array(part, pa.int64()),
        })

    _EMPTY = pa.table({"user_id": pa.array([], pa.int64()),
                       "ts_us": pa.array([], pa.int64()),
                       "n_nearby_clicks": pa.array([], pa.int64())})

    def per_part(part: pa.Table, w_us=w_us) -> pa.Table:
        users = part["user_id"].to_numpy(zero_copy_only=False)
        unull = part["uid_null"].to_numpy(zero_copy_only=False)
        ts = part["ts_us"].to_numpy(zero_copy_only=False)
        bucket = part["bucket"].to_numpy(zero_copy_only=False)
        is_click = part["is_click"].to_numpy(zero_copy_only=False)
        order = np.lexsort((ts, is_click, bucket, users, unull))
        users, unull, ts = users[order], unull[order], ts[order]
        bucket, is_click = bucket[order], is_click[order]
        new = np.empty(len(users), bool)
        new[0] = True
        new[1:] = ((users[1:] != users[:-1]) | (bucket[1:] != bucket[:-1])
                   | (unull[1:] != unull[:-1]))
        gid = np.cumsum(new) - 1
        # band encoding: rel = ts - bucket*w is in [0,w) for errors (own
        # bucket) and [-w,2w) for replicated clicks, so enc = gid*4w +
        # rel + w packs each group into a disjoint [gid*4w, gid*4w+3w)
        # band and error queries enc±w stay inside it.  int64 headroom:
        # gid*4w overflows only past ~7e9 groups PER PARTITION — size
        # rows_per_part well below that.
        enc = gid * (4 * w_us) + (ts - bucket * w_us) + w_us
        clk = is_click == 1
        clicks_enc = enc[clk]          # globally sorted by (gid, ts)
        e_sel = ~clk
        e_ts = ts[e_sel]
        if len(e_ts) == 0:
            return _EMPTY
        e_gid, e_enc = gid[e_sel], enc[e_sel]
        # duplicate (user, ts) error rows collapse into ONE output row
        # whose count is multiplicity * clicks-in-range — exactly the
        # oracle's GROUP BY e.user_id, e.ts over the joined pairs
        # (duplicates always share a group: same user, same bucket)
        first = np.empty(len(e_gid), bool)
        first[0] = True
        first[1:] = (e_gid[1:] != e_gid[:-1]) | (e_ts[1:] != e_ts[:-1])
        idx = np.flatnonzero(first)
        mult = np.diff(np.append(idx, len(e_gid)))
        lo = np.searchsorted(clicks_enc, e_enc[idx] - w_us, side="left")
        hi = np.searchsorted(clicks_enc, e_enc[idx] + w_us, side="right")
        e_null = unull[e_sel][idx].astype(bool)
        uid_arr = pa.array(users[e_sel][idx], pa.int64(),
                           mask=e_null if e_null.any() else None)
        return pa.table({
            "user_id": uid_arr,
            "ts_us": pa.array(e_ts[idx], pa.int64()),
            "n_nearby_clicks": pa.array((hi - lo) * mult, pa.int64()),
        })

    out = (ds.map_batches(tag, batch_format="pyarrow")
           .groupby("part")
           .map_groups(per_part, batch_format="pyarrow"))

    def finalize(batch: pa.Table, ts_as=ts_as) -> pa.Table:
        # ts_as="us": epoch-microsecond int64 (dtype-robust for the
        # driver's cross-engine value hash); "timestamp": arrow ts[us]
        ts = (batch["ts_us"] if ts_as == "us"
              else pc.cast(batch["ts_us"], pa.timestamp("us")))
        return pa.table({
            "user_id": batch["user_id"],
            "ts": ts,
            "n_nearby_clicks": batch["n_nearby_clicks"],
        })

    return out.map_batches(finalize, batch_format="pyarrow")


ERROR_CLICK_RANGE_SQL = """
WITH e AS (SELECT user_id, ts FROM events WHERE event_type = 'error'),
     c AS (SELECT user_id, ts FROM events WHERE event_type = 'click')
SELECT e.user_id, e.ts, CAST(count(c.ts) AS BIGINT) AS n_nearby_clicks
FROM e LEFT JOIN c ON e.user_id = c.user_id
  AND c.ts BETWEEN e.ts - INTERVAL 5 MINUTE AND e.ts + INTERVAL 5 MINUTE
GROUP BY e.user_id, e.ts
"""

# registry variant: ts as epoch microseconds on BOTH engines, so the
# driver's value hash never depends on timestamp-dtype round-tripping
ERROR_CLICK_RANGE_US_SQL = """
WITH e AS (SELECT user_id, ts FROM events WHERE event_type = 'error'),
     c AS (SELECT user_id, ts FROM events WHERE event_type = 'click')
SELECT e.user_id, epoch_us(e.ts) AS ts,
       CAST(count(c.ts) AS BIGINT) AS n_nearby_clicks
FROM e LEFT JOIN c ON e.user_id = c.user_id
  AND c.ts BETWEEN e.ts - INTERVAL 5 MINUTE AND e.ts + INTERVAL 5 MINUTE
GROUP BY e.user_id, e.ts
"""


def distinct_users_by_type(sf_dir: str, n_salts: int = 16):
    """Exact per-key COUNT(DISTINCT user_id) via a SALTED groupby — the
    skew mechanism the north rule names, applied where partial
    aggregation alone cannot help (distinct state is not decomposable
    by row subsets).

    Salt = user_id % n_salts (VALUE-hash salting): every occurrence of
    one user lands in the same (event_type, salt) group, so per-group
    distinct counts are disjoint and their per-key SUM is exact.  A hot
    event_type's distinct-user state is split across n_salts groups —
    per-task state is bounded by |distinct users| / n_salts instead of
    the full key's cardinality.  Raise n_salts with the user universe.
    """
    import numpy as np

    from ray.data.aggregate import AggregateFn, Sum

    from ._io import clean_read

    ds = clean_read(f"{sf_dir}/events.parquet",
                    columns=["event_type", "user_id"])

    def add_salt(batch: pa.Table) -> pa.Table:
        # NULL user_ids: count(DISTINCT) ignores them, but the GROUP
        # must still exist (an all-NULL key yields a 0 row in SQL) —
        # null rows ride through under salt 0 and the accumulator
        # skips them, so they contribute presence, not a count
        valid = pc.is_valid(batch["user_id"])
        users = pc.fill_null(batch["user_id"], 0) \
            .to_numpy(zero_copy_only=False)
        salt = np.where(valid.to_numpy(zero_copy_only=False),
                        users % n_salts, 0)
        # local pre-dedup: one row per (type, salt, user) per batch
        t = pa.table({"event_type": batch["event_type"],
                      "salt": pa.array(salt, pa.int64()),
                      "user_id": batch["user_id"]})
        return t.group_by(["event_type", "salt", "user_id"]).aggregate([])

    # state is a sorted LIST: partial accumulators round-trip through
    # Arrow blocks between the map and reduce sides of the shuffle, so a
    # Python set would come back as a list — keep one canonical type
    agg = AggregateFn(
        init=lambda _: [],
        merge=lambda a, b: sorted(set(a) | set(b)),
        accumulate_block=lambda s, blk: sorted(
            set(s) | {u for u in blk["user_id"].to_pylist()
                      if u is not None}),
        finalize=lambda s: len(s),
        name="n_distinct")

    per_salt = (ds.map_batches(add_salt, batch_format="pyarrow",
                               batch_size=8192)
                .groupby(["event_type", "salt"])
                .aggregate(agg))

    def partial(batch: pa.Table) -> pa.Table:
        return pa.table({"event_type": batch["event_type"],
                         "n_distinct": batch["n_distinct"]})

    return (per_salt.map_batches(partial, batch_format="pyarrow")
            .groupby("event_type")
            .aggregate(Sum("n_distinct", alias_name="n_users")))


DISTINCT_USERS_SQL = """
SELECT event_type, CAST(count(DISTINCT user_id) AS BIGINT) AS n_users
FROM events GROUP BY event_type
"""


def event_funnel(sf_dir: str,
                 steps: tuple = ("view", "click", "purchase"),
                 within_hours: int = 24):
    """Funnel analysis (first-touch): how many users complete each
    ordered step, where step k+1 must happen AT or after the user's
    step-k completion time and within ``within_hours`` of it.
    t1 = min ts of step 1; t_k = min ts of step k with
    t_{k-1} <= ts <= t_{k-1} + window.  NULL users are excluded.

    Kernel: the sessionize/asof shape — hash(user) %% P partitions,
    ONE lexsort(user, ts) per partition, then per step one masked
    ``np.minimum.reduceat`` over the user segments (no per-user
    Python).  Partitions emit per-step partial counts; a tiny groupby
    sums them and a 3-row finalize adds the conversion ratios.

    Returns (step, event_type, n_users, conversion) — conversion =
    n_users / step-1 users, round_half_up 6.  DuckDB mirror:
    ``event_funnel_sql`` (pytest-gated; driver registry is full)."""
    from ray.data.aggregate import Sum

    from ._io import clean_read
    from ._num import np_round_half_up
    from ._part import nparts_for

    ds = clean_read(f"{sf_dir}/events.parquet",
                    columns=["user_id", "ts", "event_type"])
    win_us = np.int64(within_hours) * 3600 * 1_000_000
    step_list = list(steps)
    n_steps = len(step_list)

    import pyarrow.parquet as _pq
    n_events = _pq.ParquetFile(
        f"{sf_dir}/events.parquet").metadata.num_rows
    n_parts = nparts_for(n_events, rows_per_part=500_000, floor=8)

    def tag(batch: pa.Table) -> pa.Table:
        kind = batch["event_type"].to_numpy(zero_copy_only=False)
        keep_type = np.isin(kind, step_list)
        unull = pc.is_null(batch["user_id"]).to_numpy(
            zero_copy_only=False)
        keep = keep_type & ~unull
        users = pc.fill_null(batch["user_id"], 0).to_numpy(
            zero_copy_only=False)[keep]
        ts_us = pc.cast(batch["ts"], pa.int64()).to_numpy(
            zero_copy_only=False)[keep]
        sidx = np.empty(int(keep.sum()), np.int64)
        kk = kind[keep]
        for i, s in enumerate(step_list):
            sidx[kk == s] = i
        mix = users.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
        part = ((mix >> np.uint64(33)) % np.uint64(n_parts)) \
            .astype(np.int64)
        return pa.table({"user_id": pa.array(users, pa.int64()),
                         "ts_us": pa.array(ts_us, pa.int64()),
                         "sidx": pa.array(sidx, pa.int64()),
                         "part": pa.array(part, pa.int64())})

    part_schema = pa.schema([("step", pa.int64()), ("n", pa.int64())])

    def per_part(part: pa.Table) -> pa.Table:
        users = part["user_id"].to_numpy(zero_copy_only=False)
        ts = part["ts_us"].to_numpy(zero_copy_only=False)
        sidx = part["sidx"].to_numpy(zero_copy_only=False)
        order = np.lexsort((ts, users))
        users, ts, sidx = users[order], ts[order], sidx[order]
        n = len(users)
        if n == 0:
            return part_schema.empty_table()
        new = np.empty(n, bool)
        new[0] = True
        new[1:] = users[1:] != users[:-1]
        starts = np.flatnonzero(new)
        rank = np.cumsum(new) - 1
        big = np.int64(1) << np.int64(62)
        counts = np.zeros(n_steps, np.int64)
        # t_prev per USER (indexed by rank), +inf sentinel = not reached
        t_prev = None
        for si in range(n_steps):
            if si == 0:
                ok = sidx == 0
            else:
                tp_row = t_prev[rank]
                ok = ((sidx == si) & (tp_row < big)
                      & (ts >= tp_row) & (ts <= tp_row + win_us))
            masked = np.where(ok, ts, big)
            t_step = np.minimum.reduceat(masked, starts)
            counts[si] = int((t_step < big).sum())
            t_prev = t_step
        return pa.table({
            "step": pa.array(np.arange(n_steps), pa.int64()),
            "n": pa.array(counts, pa.int64())})

    agg = (ds.map_batches(tag, batch_format="pyarrow")
           .groupby("part").map_groups(per_part, batch_format="pyarrow")
           .groupby("step").aggregate(Sum("n", alias_name="n_users")))

    # driver fold over <= n_steps rows (bounded): ALWAYS emit one row
    # per step — a corpus with no step events at all must match the SQL
    # oracle's len(steps) zero-count rows, and Ray skips map UDFs on
    # empty blocks so a dataset-side finalize could not backfill them
    import ray.data as rd

    by_step = {int(r["step"]): int(r["n_users"])
               for r in agg.take_all()}
    nu = np.array([by_step.get(i, 0) for i in range(n_steps)],
                  dtype=np.int64)
    base = float(nu[0]) if nu[0] else 1.0
    conv = np_round_half_up(nu / base, 6)
    return rd.from_arrow(pa.table({
        "step": pa.array(np.arange(1, n_steps + 1), pa.int64()),
        "event_type": pa.array(step_list, pa.string()),
        "n_users": pa.array(nu, pa.int64()),
        "conversion": pa.array(conv, pa.float64())}))


def event_funnel_sql(steps: tuple = ("view", "click", "purchase"),
                     within_hours: int = 24) -> str:
    """DuckDB mirror of event_funnel (first-touch semantics, inclusive
    boundaries, NULL users excluded)."""
    ctes = [f"""s1 AS (
  SELECT user_id, min(ts) AS t1 FROM events
  WHERE event_type = '{steps[0]}' AND user_id IS NOT NULL
  GROUP BY user_id)"""]
    for i in range(1, len(steps)):
        ctes.append(f"""s{i + 1} AS (
  SELECT e.user_id, min(e.ts) AS t{i + 1}
  FROM events e JOIN s{i} USING (user_id)
  WHERE e.event_type = '{steps[i]}' AND e.ts >= t{i}
    AND e.ts <= t{i} + INTERVAL {within_hours} HOUR
  GROUP BY e.user_id)""")
    selects = [
        f"SELECT CAST({i + 1} AS BIGINT) AS step, '{s}' AS event_type, "
        f"(SELECT count(*) FROM s{i + 1}) AS n_users"
        for i, s in enumerate(steps)]
    return ("WITH " + ",\n".join(ctes) + "\n, funnel AS ("
            + "\nUNION ALL\n".join(selects) + ")\n"
            "SELECT step, event_type, n_users,\n"
            "  floor(n_users / (SELECT greatest(n_users, 1) FROM funnel "
            "WHERE step = 1) * 1e6 + 0.5) / 1e6 AS conversion\n"
            "FROM funnel ORDER BY step")


def event_transitions(sf_dir: str):
    """Event-to-event transition counts (the Markov matrix behind
    "what do users do next"): for every user, consecutive event pairs
    ordered by (ts, event_id) — the event_id tiebreak makes same-ts
    ordering deterministic and SQL-mirrorable.  NULL users excluded.

    Kernel: hash(user) %% P partitions -> ONE lexsort(user, ts,
    event_id) -> shifted same-user comparison (no per-user Python) ->
    in-partition pair rollup (<= |types|^2 rows leave each partition)
    -> tiny global groupby.  Returns (from_type, to_type, n_transitions)
    sorted by the pair.  DuckDB mirror: EVENT_TRANSITIONS_SQL
    (pytest-gated; driver registry is full)."""
    from ray.data.aggregate import Sum

    from ._io import clean_read
    from ._part import nparts_for

    ds = clean_read(f"{sf_dir}/events.parquet",
                    columns=["event_id", "user_id", "ts", "event_type"])

    import pyarrow.parquet as _pq
    n_events = _pq.ParquetFile(
        f"{sf_dir}/events.parquet").metadata.num_rows
    n_parts = nparts_for(n_events, rows_per_part=500_000, floor=8)

    def tag(batch: pa.Table) -> pa.Table:
        unull = pc.is_null(batch["user_id"]).to_numpy(
            zero_copy_only=False)
        keep = ~unull
        t = batch.filter(pa.array(keep))
        users = t["user_id"].to_numpy(zero_copy_only=False)
        mix = users.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
        part = ((mix >> np.uint64(33)) % np.uint64(n_parts)) \
            .astype(np.int64)
        return pa.table({
            "user_id": pa.array(users, pa.int64()),
            "ts_us": pc.cast(t["ts"], pa.int64()),
            "event_id": t["event_id"],
            "event_type": t["event_type"],
            "part": pa.array(part, pa.int64())})

    out_schema = pa.schema([("from_type", pa.string()),
                            ("to_type", pa.string()),
                            ("n", pa.int64())])

    def per_part(part: pa.Table) -> pa.Table:
        users = part["user_id"].to_numpy(zero_copy_only=False)
        ts = part["ts_us"].to_numpy(zero_copy_only=False)
        eid = part["event_id"].to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, ts, users))
        users = users[order]
        types = part["event_type"].take(pa.array(order))
        n = len(users)
        if n < 2:
            return out_schema.empty_table()
        same = users[1:] == users[:-1]
        idx = np.flatnonzero(same)
        if len(idx) == 0:
            return out_schema.empty_table()
        t = pa.table({
            "from_type": types.take(pa.array(idx)),
            "to_type": types.take(pa.array(idx + 1))})
        g = t.group_by(["from_type", "to_type"]).aggregate(
            [([], "count_all")])
        return pa.table({
            "from_type": g["from_type"], "to_type": g["to_type"],
            "n": pc.cast(g["count_all"], pa.int64())})

    return (ds.map_batches(tag, batch_format="pyarrow")
            .groupby("part").map_groups(per_part,
                                        batch_format="pyarrow")
            .groupby(["from_type", "to_type"])
            .aggregate(Sum("n", alias_name="n_transitions")))


EVENT_TRANSITIONS_SQL = """
WITH nxt AS (
  SELECT event_type AS from_type,
         lead(event_type) OVER (
           PARTITION BY user_id ORDER BY ts, event_id) AS to_type
  FROM events WHERE user_id IS NOT NULL
)
SELECT from_type, to_type, count(*) AS n_transitions
FROM nxt WHERE to_type IS NOT NULL
GROUP BY from_type, to_type
"""


def weekly_retention(sf_dir: str):
    """Cohort retention: users grouped by their FIRST active epoch-week
    (cohort), counted once per (cohort, week_offset) they return in.
    Weeks are pure epoch math (floor(epoch_seconds / 604800)) on BOTH
    engines — no calendar-truncation semantics to disagree on.
    NULL users excluded.

    Kernel: hash(user) %% P co-locates each user's full history, so
    per-user cohort (segmented ``np.minimum.reduceat``) and the
    distinct (cohort, offset, user) triples resolve entirely inside
    the partition (np.unique over a packed key) — only
    <= |cohorts| x |offsets| partial-count rows leave each partition.
    Returns (cohort_week, week_offset, n_users).  DuckDB mirror:
    WEEKLY_RETENTION_SQL (pytest-gated; driver registry is full)."""
    from ray.data.aggregate import Sum

    from ._io import clean_read
    from ._part import nparts_for

    ds = clean_read(f"{sf_dir}/events.parquet",
                    columns=["user_id", "ts"])

    import pyarrow.parquet as _pq
    n_events = _pq.ParquetFile(
        f"{sf_dir}/events.parquet").metadata.num_rows
    n_parts = nparts_for(n_events, rows_per_part=500_000, floor=8)

    def tag(batch: pa.Table) -> pa.Table:
        unull = pc.is_null(batch["user_id"]).to_numpy(
            zero_copy_only=False)
        t = batch.filter(pa.array(~unull))
        users = t["user_id"].to_numpy(zero_copy_only=False)
        ts_us = pc.cast(t["ts"], pa.int64()).to_numpy(
            zero_copy_only=False)
        wk = ts_us // np.int64(604_800_000_000)
        mix = users.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
        part = ((mix >> np.uint64(33)) % np.uint64(n_parts)) \
            .astype(np.int64)
        return pa.table({"user_id": pa.array(users, pa.int64()),
                         "wk": pa.array(wk, pa.int64()),
                         "part": pa.array(part, pa.int64())})

    part_schema = pa.schema([("cohort_week", pa.int64()),
                             ("week_offset", pa.int64()),
                             ("n", pa.int64())])

    def per_part(part: pa.Table) -> pa.Table:
        users = part["user_id"].to_numpy(zero_copy_only=False)
        wk = part["wk"].to_numpy(zero_copy_only=False)
        n = len(users)
        if n == 0:
            return part_schema.empty_table()
        order = np.lexsort((wk, users))
        users, wk = users[order], wk[order]
        new = np.empty(n, bool)
        new[0] = True
        new[1:] = users[1:] != users[:-1]
        starts = np.flatnonzero(new)
        rank = np.cumsum(new) - 1
        cohort = np.minimum.reduceat(wk, starts)[rank]
        offset = wk - cohort
        # distinct (user, cohort, offset) inside the partition: users
        # are fully co-located, so this IS the global distinct (cohort
        # is a function of rank, so (rank, offset) suffices as the key)
        _, ix = np.unique(
            (rank.astype(np.int64) << 32) ^ offset.astype(np.int64),
            return_index=True)
        t = pa.table({"cohort_week": pa.array(cohort[ix], pa.int64()),
                      "week_offset": pa.array(offset[ix], pa.int64())})
        g = t.group_by(["cohort_week", "week_offset"]).aggregate(
            [([], "count_all")])
        return pa.table({"cohort_week": g["cohort_week"],
                         "week_offset": g["week_offset"],
                         "n": pc.cast(g["count_all"], pa.int64())})

    return (ds.map_batches(tag, batch_format="pyarrow")
            .groupby("part").map_groups(per_part,
                                        batch_format="pyarrow")
            .groupby(["cohort_week", "week_offset"])
            .aggregate(Sum("n", alias_name="n_users")))


WEEKLY_RETENTION_SQL = """
WITH w AS (
  SELECT user_id,
         CAST(floor(epoch(ts) / 604800) AS BIGINT) AS wk
  FROM events WHERE user_id IS NOT NULL
), c AS (SELECT user_id, min(wk) AS cw FROM w GROUP BY user_id)
SELECT cw AS cohort_week, wk - cw AS week_offset,
       count(DISTINCT w.user_id) AS n_users
FROM w JOIN c USING (user_id)
GROUP BY cw, wk - cw
"""


def user_peak_window_spend(sf_dir: str, window: int = 5):
    """Per-user PEAK sliding-window spend: the maximum, over every
    run of up to ``window`` consecutive events (ordered by ts with
    event_id as the deterministic tiebreak), of the window's value sum
    — the "biggest burst" analytic (ROWS BETWEEN k-1 PRECEDING AND
    CURRENT ROW, then max per partition key).  SURVEY.md §2.9's
    window-family gap: the tumbling/watermark windows above are
    event-TIME windows; this is the ROWS-window shape, which needs
    per-key ordered history rather than a truncated-key groupby.

    Kernel (same partition family as ``sessionize`` /
    ``error_click_asof``): hash(user) %% P co-locates each user's
    history; one lexsort (user, ts, event_id) per ~500k-row partition,
    ONE cumulative sum, and the sliding sum is ``cs[i] - cs[j-1]``
    with ``j = max(segment_start, i-window+1)`` — no per-user Python,
    no per-row loop.  Values are summed in exact int64 milli-units
    (``_val_milli``) so window sums and their max are order-free and
    bit-exact vs the SQL mirror; NULL values count as 0 (COALESCE in
    the mirror), NULL users keep their own group via the ``uid_null``
    sentinel.  Partitioning assumption (custom-operator rule): one
    partition fits a worker; a user's history never crosses partitions.

    Returns (user_id, n_events, peak_w5).  Oracle: USER_PEAK_WINDOW_SQL.
    """
    from ._part import nparts_for

    ds = _read(sf_dir, ["user_id", "ts", "event_id", "value"])
    k = int(window)

    import pyarrow.parquet as _pq
    n_events = _pq.ParquetFile(
        f"{sf_dir}/events.parquet").metadata.num_rows
    n_parts = nparts_for(n_events, rows_per_part=500_000, floor=8)

    def tag(batch: pa.Table) -> pa.Table:
        ua = batch["user_id"]
        unull = pc.is_null(ua).to_numpy(zero_copy_only=False)
        users = pc.fill_null(ua, 0).to_numpy(zero_copy_only=False)
        mix = (users.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
               + unull.astype(np.uint64))
        part = ((mix >> np.uint64(33)) % np.uint64(n_parts)).astype(
            np.int64)
        return pa.table({
            "user_id": pa.array(users, pa.int64()),
            "uid_null": pa.array(unull.astype(np.int64), pa.int64()),
            "ts_us": pc.cast(batch["ts"], pa.int64()),
            "event_id": pc.cast(batch["event_id"], pa.int64()),
            "v": pc.fill_null(_val_milli(batch["value"]), 0),
            "part": pa.array(part, pa.int64()),
        })

    out_schema = pa.schema([("user_id", pa.int64()),
                            ("n_events", pa.int64()),
                            ("peak_milli", pa.int64()),
                            ("uid_null", pa.int64())])

    def per_part(part: pa.Table) -> pa.Table:
        n = len(part)
        if n == 0:
            return out_schema.empty_table()
        users = part["user_id"].to_numpy(zero_copy_only=False)
        unull = part["uid_null"].to_numpy(zero_copy_only=False)
        ts = part["ts_us"].to_numpy(zero_copy_only=False)
        eid = part["event_id"].to_numpy(zero_copy_only=False)
        v = part["v"].to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, ts, users, unull))
        users, unull, v = users[order], unull[order], v[order]
        new = np.empty(n, bool)
        new[0] = True
        new[1:] = (users[1:] != users[:-1]) | (unull[1:] != unull[:-1])
        starts = np.flatnonzero(new)
        rank = np.cumsum(new) - 1
        seg_start = starts[rank]
        cs = np.cumsum(v)
        j = np.maximum(seg_start, np.arange(n, dtype=np.int64) - (k - 1))
        w = cs - np.where(j > 0, cs[np.maximum(j - 1, 0)], 0)
        t = pa.table({"user_id": pa.array(users, pa.int64()),
                      "uid_null": pa.array(unull, pa.int64()),
                      "w": pa.array(w, pa.int64())})
        g = t.group_by(["user_id", "uid_null"]).aggregate(
            [("w", "count"), ("w", "max")])
        return pa.table({
            "user_id": g["user_id"].cast(pa.int64()),
            "n_events": g["w_count"].cast(pa.int64()),
            "peak_milli": g["w_max"].cast(pa.int64()),
            "uid_null": g["uid_null"].cast(pa.int64()),
        })

    def finalize(batch: pa.Table) -> pa.Table:
        gnull = batch["uid_null"].to_numpy(zero_copy_only=False) == 1
        uid = batch["user_id"].to_numpy(zero_copy_only=False)
        return pa.table({
            "user_id": pa.array(
                [None if isnull else int(u)
                 for u, isnull in zip(uid, gnull)], pa.int64()),
            "n_events": batch["n_events"],
            "peak_w5": round_half_up(pc.divide(pc.cast(
                batch["peak_milli"], pa.float64()),
                pa.scalar(1000.0)), 3),
        })

    return (ds.map_batches(tag, batch_format="pyarrow")
            .groupby("part").map_groups(per_part,
                                        batch_format="pyarrow")
            .map_batches(finalize, batch_format="pyarrow"))


USER_PEAK_WINDOW_SQL = """
WITH m AS (
  SELECT user_id, ts, event_id,
         COALESCE(CAST(floor(value * 1000.0 + 0.5) AS BIGINT), 0) AS v
  FROM events
), w AS (
  SELECT user_id,
         sum(v) OVER (PARTITION BY user_id ORDER BY ts, event_id
                      ROWS BETWEEN 4 PRECEDING AND CURRENT ROW) AS w5
  FROM m
)
SELECT user_id, count(*) AS n_events,
       floor((max(w5) / 1000.0) * 1000.0 + 0.5) / 1000.0 AS peak_w5
FROM w GROUP BY user_id
"""


def user_trailing_window_spend(sf_dir: str, window_minutes: int = 10):
    """Per-EVENT trailing event-time window: for every event, the count
    and value sum of the same user's events in the preceding
    ``window_minutes`` (inclusive both ends) — the RANGE-interval
    window shape (``RANGE BETWEEN INTERVAL t PRECEDING AND CURRENT
    ROW``), the one window family the repo lacked (tumbling/watermark
    are bucketed event-time, ``user_peak_window_spend`` is ROWS-k).
    Reference analog: per-doc trailing quality context in the worker's
    rolling stats (ocr_worker.py's per-run rollups); generalized here
    to the event stream.

    Scale design — bucketized band co-scan, NOT a per-user group (a
    hot user's full history never gathers in one place): time is cut
    into buckets exactly one window wide; every event is a QUERY in
    its own bucket and a CANDIDATE replicated to buckets b and b+1
    (a trailing partner of a query in bucket b lives in b-1 or b), and
    a hash shuffle on (user, bucket) co-locates each query with all
    its candidates.  Group size is bounded by one user's events in a
    2-window slice, not their total history.  Within a partition: one
    lexsort, the range join's disjoint band encoding (enc = gid*4w +
    ts - bucket*w + w; candidates span [0,2w) of the band, query
    probes enc-w..enc never leave it), then ONE global searchsorted
    pair + a prefix-sum difference answers every query — no per-user
    Python, no per-row loop.

    Values are summed as exact int64 millis (``_val_milli``; NULL
    counts 0 via COALESCE in the mirror) so window sums are order-free
    and bit-exact vs the SQL mirror; RANGE semantics (all equal-ts
    peers included regardless of tie order) fall out of the
    searchsorted sides (left at ts-T, right at ts).  NULL users form
    one window partition on both engines (uid_null sentinel).

    Returns (event_id, user_id, n_in_window, trail_sum).
    Oracle: TRAILING_WINDOW_SQL.
    """
    from ._part import nparts_for

    ds = _read(sf_dir, ["event_id", "user_id", "ts", "value"])
    w_us = np.int64(window_minutes) * 60 * 1_000_000

    import pyarrow.parquet as _pq
    n_events = _pq.ParquetFile(
        f"{sf_dir}/events.parquet").metadata.num_rows
    # tagged rows = 1 query + 2 candidate copies per input row
    n_parts = nparts_for(3 * n_events, rows_per_part=500_000, floor=8)

    def tag(batch: pa.Table, w_us=w_us) -> pa.Table:
        ts_us = pc.cast(batch["ts"], pa.int64()).to_numpy(
            zero_copy_only=False)
        ua = batch["user_id"]
        unull = pc.is_null(ua).to_numpy(zero_copy_only=False)
        users = pc.fill_null(ua, 0).to_numpy(zero_copy_only=False)
        eid = pc.cast(batch["event_id"], pa.int64()).to_numpy(
            zero_copy_only=False)
        v = pc.fill_null(_val_milli(batch["value"]), 0).to_numpy(
            zero_copy_only=False)
        b = ts_us // w_us
        out_u, out_n, out_t, out_b, out_c, out_e, out_v = \
            [], [], [], [], [], [], []
        # queries: one row each, own bucket
        out_u.append(users); out_n.append(unull.astype(np.int64))
        out_t.append(ts_us); out_b.append(b)
        out_c.append(np.zeros(len(ts_us), np.int64))
        out_e.append(eid); out_v.append(np.zeros(len(ts_us), np.int64))
        # candidates: replicated to buckets b and b+1
        for d in (0, 1):
            out_u.append(users); out_n.append(unull.astype(np.int64))
            out_t.append(ts_us); out_b.append(b + d)
            out_c.append(np.ones(len(ts_us), np.int64))
            out_e.append(np.zeros(len(ts_us), np.int64))
            out_v.append(v)
        users_c = np.concatenate(out_u)
        unull_c = np.concatenate(out_n)
        bucket_c = np.concatenate(out_b)
        mix = (users_c.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
               + bucket_c.astype(np.uint64) * np.uint64(0xC2B2AE3D27D4EB4F)
               + unull_c.astype(np.uint64))
        part = ((mix >> np.uint64(33)) % np.uint64(n_parts)).astype(
            np.int64)
        return pa.table({
            "user_id": pa.array(users_c, pa.int64()),
            "uid_null": pa.array(unull_c, pa.int64()),
            "ts_us": pa.array(np.concatenate(out_t), pa.int64()),
            "bucket": pa.array(bucket_c, pa.int64()),
            "is_cand": pa.array(np.concatenate(out_c), pa.int64()),
            "event_id": pa.array(np.concatenate(out_e), pa.int64()),
            "v": pa.array(np.concatenate(out_v), pa.int64()),
            "part": pa.array(part, pa.int64()),
        })

    out_schema = pa.schema([("event_id", pa.int64()),
                            ("user_id", pa.int64()),
                            ("uid_null", pa.int64()),
                            ("n_in_window", pa.int64()),
                            ("sum_milli", pa.int64())])

    def per_part(part: pa.Table, w_us=w_us) -> pa.Table:
        if len(part) == 0:
            return out_schema.empty_table()
        users = part["user_id"].to_numpy(zero_copy_only=False)
        unull = part["uid_null"].to_numpy(zero_copy_only=False)
        ts = part["ts_us"].to_numpy(zero_copy_only=False)
        bucket = part["bucket"].to_numpy(zero_copy_only=False)
        is_cand = part["is_cand"].to_numpy(zero_copy_only=False)
        eid = part["event_id"].to_numpy(zero_copy_only=False)
        v = part["v"].to_numpy(zero_copy_only=False)
        order = np.lexsort((ts, is_cand, bucket, users, unull))
        users, unull, ts = users[order], unull[order], ts[order]
        bucket, is_cand = bucket[order], is_cand[order]
        eid, v = eid[order], v[order]
        new = np.empty(len(users), bool)
        new[0] = True
        new[1:] = ((users[1:] != users[:-1]) | (bucket[1:] != bucket[:-1])
                   | (unull[1:] != unull[:-1]))
        gid = np.cumsum(new) - 1
        # disjoint band per (user, bucket) group — see range join above
        enc = gid * (4 * w_us) + (ts - bucket * w_us) + w_us
        cand = is_cand == 1
        enc_c, v_c = enc[cand], v[cand]
        cs = np.cumsum(v_c)
        q = ~cand
        if not q.any():
            return out_schema.empty_table()
        enc_q = enc[q]
        lo = np.searchsorted(enc_c, enc_q - w_us, side="left")
        hi = np.searchsorted(enc_c, enc_q, side="right")
        n_in = hi - lo
        total = np.where(hi > 0, cs[np.maximum(hi - 1, 0)], 0) \
            - np.where(lo > 0, cs[np.maximum(lo - 1, 0)], 0)
        return pa.table({
            "event_id": pa.array(eid[q], pa.int64()),
            "user_id": pa.array(users[q], pa.int64()),
            "uid_null": pa.array(unull[q], pa.int64()),
            "n_in_window": pa.array(n_in, pa.int64()),
            "sum_milli": pa.array(total, pa.int64()),
        })

    def finalize(batch: pa.Table) -> pa.Table:
        gnull = batch["uid_null"].to_numpy(zero_copy_only=False) == 1
        uid = batch["user_id"].to_numpy(zero_copy_only=False)
        return pa.table({
            "event_id": batch["event_id"],
            "user_id": pa.array(
                [None if isnull else int(u)
                 for u, isnull in zip(uid, gnull)], pa.int64()),
            "n_in_window": batch["n_in_window"],
            "trail_sum": round_half_up(pc.divide(pc.cast(
                batch["sum_milli"], pa.float64()), pa.scalar(1000.0)), 3),
        })

    return (ds.map_batches(tag, batch_format="pyarrow")
            .groupby("part").map_groups(per_part, batch_format="pyarrow")
            .map_batches(finalize, batch_format="pyarrow"))


TRAILING_WINDOW_SQL = """
WITH m AS (
  SELECT event_id, user_id, ts,
         COALESCE(CAST(floor(value * 1000.0 + 0.5) AS BIGINT), 0) AS v
  FROM events
)
SELECT event_id, user_id,
       CAST(count(*) OVER w AS BIGINT) AS n_in_window,
       floor((sum(v) OVER w) / 1000.0 * 1000.0 + 0.5) / 1000.0
         AS trail_sum
FROM m
WINDOW w AS (PARTITION BY user_id ORDER BY ts
             RANGE BETWEEN INTERVAL 10 MINUTE PRECEDING
                   AND CURRENT ROW)
"""


PIVOT_TYPES = ("click", "error", "purchase", "signup", "view")


def events_type_pivot(sf_dir: str, types: tuple = PIVOT_TYPES):
    """PIVOT: one wide row per user with per-event-type counts and
    value sums as COLUMNS (the classic long->wide reshape; DuckDB's
    PIVOT / conditional-aggregation shape).  The pivoted type set is a
    fixed, declared parameter — a pivot's output schema must be known
    before execution in a distributed engine (column discovery would
    be a full extra scan); types outside it roll into ``n_other`` so
    the pivot stays row-count-preserving.

    Scale design: the reshape happens entirely INSIDE ``map_batches``
    — each block emits one pre-aggregated wide partial per user seen
    in the block (indicator masks + ``_gb``) — and the only shuffle is
    a groupby-sum over those compact partials, exactly the
    pre-aggregate-then-small-groupby rule.  No row-level exchange, no
    per-type pass over the input: one boolean matrix (|batch| x
    |types|) built from ONE equality kernel per type.

    Values sum as exact int64 millis; NULL users keep one group
    (uid_null sentinel); NULL values count 0 toward sums, 1 toward
    counts (COALESCE in the mirror).

    Returns (user_id, n_<type>... , v_<type>..., n_other).
    Oracle: EVENTS_PIVOT_SQL.
    """
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, ["user_id", "event_type", "value"])

    def partial(batch: pa.Table) -> pa.Table:
        ua = batch["user_id"]
        unull = pc.is_null(ua).to_numpy(zero_copy_only=False)
        users = pc.fill_null(ua, 0).to_numpy(zero_copy_only=False)
        et = batch["event_type"].to_numpy(zero_copy_only=False)
        v = pc.fill_null(_val_milli(batch["value"]), 0).to_numpy(
            zero_copy_only=False)
        cols = {"user_id": pa.array(users, pa.int64()),
                "uid_null": pa.array(unull.astype(np.int64), pa.int64())}
        other = np.ones(len(et), bool)
        aggs, names = [], []
        for t in types:
            m = et == t
            other &= ~m
            cols[f"n_{t}"] = pa.array(m.astype(np.int64), pa.int64())
            cols[f"v_{t}"] = pa.array(np.where(m, v, 0), pa.int64())
            aggs += [(f"n_{t}", "sum"), (f"v_{t}", "sum")]
            names += [f"n_{t}", f"v_{t}"]
        cols["n_other"] = pa.array(other.astype(np.int64), pa.int64())
        aggs.append(("n_other", "sum"))
        names.append("n_other")
        return _gb(pa.table(cols), ["user_id", "uid_null"], aggs, names)

    flat = [x for t in types for x in (f"n_{t}", f"v_{t}")] + ["n_other"]
    agg = ds.map_batches(partial, batch_format="pyarrow") \
        .groupby(["user_id", "uid_null"]) \
        .aggregate(*[Sum(c, alias_name=c) for c in flat])

    def finalize(batch: pa.Table) -> pa.Table:
        gnull = batch["uid_null"].to_numpy(zero_copy_only=False) == 1
        uid = batch["user_id"].to_numpy(zero_copy_only=False)
        out = {"user_id": pa.array(
            [None if isnull else int(u)
             for u, isnull in zip(uid, gnull)], pa.int64())}
        for t in types:
            out[f"n_{t}"] = batch[f"n_{t}"]
            out[f"v_{t}"] = round_half_up(pc.divide(pc.cast(
                batch[f"v_{t}"], pa.float64()), pa.scalar(1000.0)), 3)
        out["n_other"] = batch["n_other"]
        return pa.table(out)

    return agg.map_batches(finalize, batch_format="pyarrow")


EVENTS_PIVOT_SQL = """
WITH m AS (
  SELECT user_id, event_type,
         COALESCE(CAST(floor(value * 1000.0 + 0.5) AS BIGINT), 0) AS v
  FROM events
)
SELECT user_id,
""" + ",\n".join(
    f"       CAST(count(*) FILTER (WHERE event_type = '{t}') AS BIGINT)"
    f" AS n_{t},\n"
    f"       floor(COALESCE(sum(v) FILTER (WHERE event_type = '{t}'), 0)"
    f" / 1000.0 * 1000.0 + 0.5) / 1000.0 AS v_{t}"
    for t in PIVOT_TYPES) + f""",
       CAST(count(*) FILTER (WHERE event_type NOT IN
            {PIVOT_TYPES!r}) AS BIGINT) AS n_other
FROM m GROUP BY user_id
"""


def events_unpivot(sf_dir: str, types: tuple = PIVOT_TYPES):
    """UNPIVOT of events_type_pivot: the wide per-user matrix melts
    back to one row per (user, event_type) with n_events/sum_value —
    and because empty cells (n == 0) are dropped, the round trip
    equals the plain long-form groupby restricted to the pivot's type
    set, which is exactly what the oracle asserts (melt(pivot(x)) ==
    groupby(x) — the reshape family's inverse law, SQL-checked).

    Scale: the melt is map-only over the already-aggregated wide rows
    (|users| x |types| output), so the only shuffle remains the
    pivot's partial-aggregate groupby."""
    from .relational import melt

    wide = events_type_pivot(sf_dir, types)
    groups = {t: {"n_events": f"n_{t}", "sum_value": f"v_{t}"}
              for t in types}
    long = melt(wide, ["user_id"], groups, var_name="event_type")
    return long.select_columns(
        ["user_id", "event_type", "n_events", "sum_value"]) \
        .filter(expr="n_events > 0")


EVENTS_UNPIVOT_SQL = f"""
WITH m AS (
  SELECT user_id, event_type,
         COALESCE(CAST(floor(value * 1000.0 + 0.5) AS BIGINT), 0) AS v
  FROM events WHERE event_type IN {PIVOT_TYPES!r}
)
SELECT user_id, event_type, CAST(count(*) AS BIGINT) AS n_events,
       floor(sum(v) / 1000.0 * 1000.0 + 0.5) / 1000.0 AS sum_value
FROM m GROUP BY user_id, event_type
"""


def assign_sessions(ds, gap: int, n_parts: int | None = None):
    """Generic PER-ROW session assignment over any keyed event stream —
    the sessionize kernel as a reusable Dataset API (the asof_pairs /
    interval_overlap_pairs pattern): input columns (key:int64,
    ts:int64, id:int64), output one row per input row with
    (key, id, ts, session_seq, session_start_ts) where ``session_seq``
    is the key's 0-based session ordinal by time and
    ``session_start_ts`` the session's first timestamp — both pure
    functions of the data (ties at equal ts order by id), independent
    of block layout.

    One hash(key) % P shuffle; each partition is answered in one numpy
    pass: lexsort (key, ts, id), ``new session = key boundary OR gap >
    threshold``, per-key ordinal via a cumsum re-based at key starts,
    and session start timestamps via a monotone maximum.accumulate of
    the new-session row indices — no per-key Python."""
    import ray.data  # noqa: F401

    from ._part import nparts_for

    P = n_parts or nparts_for(ds.count(), rows_per_part=500_000,
                              floor=8)

    def tag(batch: pa.Table) -> pa.Table:
        k = batch["key"].to_numpy(zero_copy_only=False)
        h = k.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
        part = ((h >> np.uint64(33)) % np.uint64(P)).astype(np.int64)
        return pa.table({
            "key": pa.array(k, pa.int64()),
            "ts": batch["ts"],
            "id": batch["id"],
            "part": pa.array(part, pa.int64()),
        })

    _OUT = pa.schema([("key", pa.int64()), ("id", pa.int64()),
                      ("ts", pa.int64()),
                      ("session_seq", pa.int64()),
                      ("session_start_ts", pa.int64())])

    def per_part(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.Table.from_pylist([], schema=_OUT)
        key = t["key"].to_numpy(zero_copy_only=False)
        ts = t["ts"].to_numpy(zero_copy_only=False)
        rid = t["id"].to_numpy(zero_copy_only=False)
        order = np.lexsort((rid, ts, key))
        key, ts, rid = key[order], ts[order], rid[order]
        n = len(key)
        newk = np.empty(n, bool)
        newk[0] = True
        newk[1:] = key[1:] != key[:-1]
        gap_br = np.empty(n, bool)
        gap_br[0] = True
        gap_br[1:] = (ts[1:] - ts[:-1]) > gap
        new = newk | gap_br
        sid = np.cumsum(new) - 1                 # global session id
        pos = np.arange(n, dtype=np.int64)
        # per-key re-base: session ordinal = sid - sid[key start]
        key_start_sid = np.maximum.accumulate(
            np.where(newk, sid, -1))
        seq = sid - key_start_sid
        start_idx = np.maximum.accumulate(np.where(new, pos, -1))
        return pa.table({
            "key": pa.array(key, pa.int64()),
            "id": pa.array(rid, pa.int64()),
            "ts": pa.array(ts, pa.int64()),
            "session_seq": pa.array(seq, pa.int64()),
            "session_start_ts": pa.array(ts[start_idx], pa.int64()),
        })

    return (ds.map_batches(tag, batch_format="pyarrow")
            .groupby("part")
            .map_groups(per_part, batch_format="pyarrow")
            .select_columns(["key", "id", "ts", "session_seq",
                             "session_start_ts"]))


def grouped_top_k(ds, k: int, n_parts: int | None = None):
    """Generic per-key top-k over (key:int64, val:int64, id:int64) —
    rows ranked by (val DESC, id ASC) within their key, rank < k kept,
    emitted with their 0-based ``rank``.

    The shuffle ships at most k rows per (key, block): each input block
    pre-prunes to its local per-key top-k (the combiner pattern — a
    block can only contribute k survivors per key, so the exchange is
    bounded by k x keys-per-block, not by row count).  The final pass
    is the usual hash(key) % P partition answered in one lexsort +
    segmented-rank numpy pass."""
    import ray.data  # noqa: F401

    from ._part import nparts_for

    def _local_ranks(key, val, rid):
        order = np.lexsort((rid, -val, key))
        k_s = key[order]
        n = len(k_s)
        newk = np.empty(n, bool)
        newk[0] = True
        newk[1:] = k_s[1:] != k_s[:-1]
        pos = np.arange(n, dtype=np.int64)
        start = np.maximum.accumulate(np.where(newk, pos, -1))
        return order, pos - start            # rank within key

    def prune(batch: pa.Table) -> pa.Table:
        key = batch["key"].to_numpy(zero_copy_only=False)
        val = batch["val"].to_numpy(zero_copy_only=False)
        rid = batch["id"].to_numpy(zero_copy_only=False)
        if len(key) == 0:
            return batch.select(["key", "val", "id"])
        order, rank = _local_ranks(key, val, rid)
        keep = order[rank < k]
        return pa.table({
            "key": pa.array(key[keep], pa.int64()),
            "val": pa.array(val[keep], pa.int64()),
            "id": pa.array(rid[keep], pa.int64()),
        })

    P = n_parts or nparts_for(ds.count(), rows_per_part=500_000,
                              floor=8)

    def tag(batch: pa.Table) -> pa.Table:
        kk = batch["key"].to_numpy(zero_copy_only=False)
        h = kk.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
        return batch.append_column("part", pa.array(
            ((h >> np.uint64(33)) % np.uint64(P)).astype(np.int64)))

    _OUT = pa.schema([("key", pa.int64()), ("val", pa.int64()),
                      ("id", pa.int64()), ("rank", pa.int64())])

    def per_part(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.Table.from_pylist([], schema=_OUT)
        key = t["key"].to_numpy(zero_copy_only=False)
        val = t["val"].to_numpy(zero_copy_only=False)
        rid = t["id"].to_numpy(zero_copy_only=False)
        order, rank = _local_ranks(key, val, rid)
        keep = rank < k
        sel = order[keep]
        return pa.table({
            "key": pa.array(key[sel], pa.int64()),
            "val": pa.array(val[sel], pa.int64()),
            "id": pa.array(rid[sel], pa.int64()),
            "rank": pa.array(rank[keep], pa.int64()),
        })

    return (ds.map_batches(prune, batch_format="pyarrow")
            .map_batches(tag, batch_format="pyarrow")
            .groupby("part")
            .map_groups(per_part, batch_format="pyarrow")
            .select_columns(["key", "val", "id", "rank"]))


def grouped_count_distinct(ds, n_parts: int | None = None):
    """Generic EXACT per-key COUNT(DISTINCT val) over (key:int64,
    val:int64): per-block pre-dedup, ONE distributed groupby on the
    (key, val) PAIR (the pair key spreads a hot key's values across
    partitions by val hash — no per-key distinct set ever assembles in
    one task, which is the same guarantee the concrete
    distinct_users_by_type gets from explicit value-salting inside an
    AggregateFn), then a per-block count rollup summed per key."""
    import ray.data  # noqa: F401
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        return (batch.select(["key", "val"])
                .group_by(["key", "val"]).aggregate([])
                .select(["key", "val"]))

    distinct = (ds.map_batches(partial, batch_format="pyarrow",
                               batch_size=65536)
                .groupby(["key", "val"]).count()
                .drop_columns(["count()"]))

    def count_rows(batch: pa.Table) -> pa.Table:
        t = pa.table({"key": batch["key"],
                      "n": pa.array(np.ones(batch.num_rows, np.int64))})
        return _gb(t, ["key"], [("n", "sum")], ["n_distinct"])

    return (distinct.map_batches(count_rows, batch_format="pyarrow")
            .groupby("key")
            .aggregate(Sum("n_distinct", alias_name="n_distinct")))


def user_last_click_value(sf_dir: str):
    """Per event: the most recent CLICK's value (exact milli-units)
    by the same user at or before it — the LOCF / IGNORE-NULLS window
    shape (``window.keyed_fill``) driven over a sparse signal: only
    clicks carry a value, every other event inherits the last one.

    NULL users share one fill partition (SQL window-partition
    semantics: PARTITION BY groups NULLs together) via a sentinel key;
    the driver corpus has none — the planted pytest covers that leg.
    Milli-unit quantization is the events-family cents rule
    (floor(value * 1000 + 0.5)) so the value is integer-exact on both
    engines.
    """
    from .window import keyed_fill
    from ._num import to_int_scaled

    ds = _read(sf_dir, ["event_id", "ts", "user_id", "event_type",
                        "value"])
    SENT = -(1 << 62) - 11   # NULL-user partition key

    def prep(batch: pa.Table) -> pa.Table:
        key = pc.fill_null(batch["user_id"], SENT)
        millis = to_int_scaled(batch["value"], 1000.0)
        val = pc.if_else(pc.equal(batch["event_type"], "click"),
                         millis, pa.scalar(None, pa.int64()))
        return pa.table({
            "key": pc.cast(key, pa.int64()),
            "ts": pc.cast(batch["ts"], pa.int64()),
            "id": batch["event_id"],
            "val": val})

    filled = keyed_fill(ds.map_batches(prep, batch_format="pyarrow"))

    def finish(t: pa.Table) -> pa.Table:
        user = pc.if_else(pc.equal(t["key"], SENT),
                          pa.scalar(None, pa.int64()), t["key"])
        return pa.table({"event_id": t["id"],
                         "user_id": user,
                         "last_click_millis": t["val"]})

    return filled.map_batches(finish, batch_format="pyarrow")


USER_LAST_CLICK_SQL = """
SELECT event_id, user_id,
       last_value(CASE WHEN event_type = 'click'
                       THEN CAST(floor(value * 1000.0 + 0.5) AS BIGINT)
                  END IGNORE NULLS)
         OVER (PARTITION BY user_id ORDER BY ts, event_id
               ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)
         AS last_click_millis
FROM events
"""
