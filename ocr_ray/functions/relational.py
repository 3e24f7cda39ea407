"""Relational operators over the TPC-H-ish testdata (SURVEY.md §2.4-2.6).

Patterns demonstrated, each annotated with its shuffle footprint:

* partial aggregation inside map_batches before a small groupby (Q1);
* broadcast small-side joins (dimensions shipped once via fn_kwargs, no
  shuffle) — the engine's default join for dim tables (ray guide:
  "small side -> broadcast");
* hash-partitioned Dataset.join only where both sides are large;
* sort + limit top-k on pre-aggregated (small) data.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ._num import round_half_up
import pyarrow.parquet as pq


def _cents(arr: pa.ChunkedArray | pa.Array) -> pa.Array:
    """float money -> exact int64 cents via floor(x*100 + 0.5): identical
    IEEE ops on both engines (pyarrow round() is half-to-even, DuckDB's is
    half-away — floor+0.5 sidesteps the disagreement; values positive)."""
    return pc.cast(pc.floor(pc.add(pc.multiply(arr, pa.scalar(100.0)),
                                   pa.scalar(0.5))), pa.int64())


def _read(sf_dir: str, table: str, columns=None):
    import ray.data as rd

    from ._io import clean_read

    return clean_read(f"{sf_dir}/{table}.parquet", columns=columns)


def _gb(t: pa.Table, keys: list[str], aggs: list[tuple[str, str]],
        names: list[str]) -> pa.Table:
    """Arrow-native partial groupby: ``pa.TableGroupBy`` without the
    to_pandas/from_pandas copies the round-1 partials paid per batch.
    ``aggs`` are (column, fn) pairs; ``names`` the output column names.
    Use fn="count_all" (column ignored) for ROW-count semantics — Arrow
    "count" counts non-null values only, which silently diverges from
    the SQL oracles' count(*) whenever the value column is nullable
    (round-2 ADVICE)."""
    pa_aggs = [([], "count_all") if fn == "count_all" else (col, fn)
               for col, fn in aggs]
    g = t.group_by(keys).aggregate(pa_aggs)
    cols = {k: g[k] for k in keys}
    for (col, fn), name in zip(aggs, names):
        cols[name] = g["count_all" if fn == "count_all"
                       else f"{col}_{fn}"]
    return pa.table(cols)


def _dense_lookup(keys, values, fill=None):
    """Build a dense numpy array indexed by integer key (the q5 broadcast
    pattern: one vectorized fancy-index per batch instead of a Python
    dict lookup per row). Keys must be non-negative ints."""
    keys = np.asarray(keys, dtype=np.int64)
    arr = np.full(int(keys.max()) + 1 if len(keys) else 1, fill, dtype=object)
    arr[keys] = np.asarray(values, dtype=object)
    return arr


from ._part import nparts_for as _nparts_for  # shared sizing rule
# (measured: q3 at 32 cpu-count partitions was 2x slower than at its
# data-sized count — see _part.py for the rule)


# ------------------------------------------------------------------ Q1

def q1_pricing_summary(sf_dir: str):
    """TPC-H Q1 shape: per (returnflag, linestatus) pricing summary.

    Partial aggregation: each batch collapses to <=6 rows before the
    groupby, so the all-to-all exchange moves a few KB regardless of
    input size."""
    import ray.data as rd
    from ray.data.aggregate import Count, Sum

    ds = _read(sf_dir, "lineitem",
               ["l_returnflag", "l_linestatus", "l_quantity",
                "l_extendedprice", "l_discount", "l_tax"])

    def partial(batch: pa.Table) -> pa.Table:
        disc_price = pc.multiply(batch["l_extendedprice"],
                                 pc.subtract(pa.scalar(1.0), batch["l_discount"]))
        charge = pc.multiply(disc_price,
                             pc.add(pa.scalar(1.0), batch["l_tax"]))
        t = pa.table({
            "l_returnflag": batch["l_returnflag"],
            "l_linestatus": batch["l_linestatus"],
            "qty": batch["l_quantity"],
            "base_cents": _cents(batch["l_extendedprice"]),
            "disc_cents": _cents(disc_price),
            "charge_cents": _cents(charge),
            "disc_bps": pc.cast(pc.floor(pc.add(pc.multiply(
                batch["l_discount"], pa.scalar(10000.0)), pa.scalar(0.5))),
                pa.int64()),
        })
        return _gb(t, ["l_returnflag", "l_linestatus"],
                   [("qty", "sum"), ("base_cents", "sum"),
                    ("disc_cents", "sum"), ("charge_cents", "sum"),
                    ("disc_bps", "sum"), ("qty", "count_all")],
                   ["sum_qty", "sum_base_cents", "sum_disc_cents",
                    "sum_charge_cents", "sum_disc_bps", "count_order"])

    partials = ds.map_batches(partial, batch_format="pyarrow", batch_size=32768)
    agg = partials.groupby(["l_returnflag", "l_linestatus"]).aggregate(
        Sum("sum_qty", alias_name="sum_qty"),
        Sum("sum_base_cents", alias_name="sum_base_cents"),
        Sum("sum_disc_cents", alias_name="sum_disc_cents"),
        Sum("sum_charge_cents", alias_name="sum_charge_cents"),
        Sum("sum_disc_bps", alias_name="sum_disc_bps"),
        Sum("count_order", alias_name="count_order"),
    )

    def finalize(batch: pa.Table) -> pa.Table:
        n = pc.cast(batch["count_order"], pa.float64())
        return pa.table({
            "l_returnflag": batch["l_returnflag"],
            "l_linestatus": batch["l_linestatus"],
            "sum_qty": batch["sum_qty"],
            "sum_base_price": round_half_up(pc.divide(pc.cast(
                batch["sum_base_cents"], pa.float64()), pa.scalar(100.0)), 2),
            "sum_disc_price": round_half_up(pc.divide(pc.cast(
                batch["sum_disc_cents"], pa.float64()), pa.scalar(100.0)), 2),
            "sum_charge": round_half_up(pc.divide(pc.cast(
                batch["sum_charge_cents"], pa.float64()), pa.scalar(100.0)), 2),
            "avg_qty": round_half_up(pc.divide(batch["sum_qty"], n), 6),
            "avg_disc": round_half_up(pc.divide(pc.divide(pc.cast(
                batch["sum_disc_bps"], pa.float64()), pa.scalar(10000.0)), n), 6),
            "count_order": batch["count_order"],
        })

    return agg.map_batches(finalize, batch_format="pyarrow")


Q1_SQL = """
SELECT l_returnflag, l_linestatus,
       sum(l_quantity) AS sum_qty,
       floor((sum(CAST(floor(l_extendedprice * 100.0 + 0.5) AS BIGINT)) / 100.0) * 100.0 + 0.5) / 100.0 AS sum_base_price,
       floor((sum(CAST(floor(l_extendedprice * (1.0 - l_discount) * 100.0 + 0.5) AS BIGINT)) / 100.0) * 100.0 + 0.5) / 100.0 AS sum_disc_price,
       floor((sum(CAST(floor(l_extendedprice * (1.0 - l_discount) * (1.0 + l_tax) * 100.0 + 0.5) AS BIGINT)) / 100.0) * 100.0 + 0.5) / 100.0 AS sum_charge,
       floor((sum(l_quantity) / CAST(count(*) AS DOUBLE)) * 1000000.0 + 0.5) / 1000000.0 AS avg_qty,
       floor((sum(CAST(floor(l_discount * 10000.0 + 0.5) AS BIGINT)) / 10000.0 / CAST(count(*) AS DOUBLE)) * 1000000.0 + 0.5) / 1000000.0 AS avg_disc,
       count(*) AS count_order
FROM lineitem
GROUP BY l_returnflag, l_linestatus
"""


# ------------------------------------------------------ Q6 filter+sum

def q6_revenue_delta(sf_dir: str):
    """Filter + global sum (no groupby shuffle at all: per-batch partials
    union to one row)."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "lineitem", ["l_quantity", "l_extendedprice", "l_discount"])

    def partial(batch: pa.Table) -> pa.Table:
        mask = pc.and_(
            pc.and_(pc.greater_equal(batch["l_discount"], 0.05),
                    pc.less_equal(batch["l_discount"], 0.07)),
            pc.less(batch["l_quantity"], 24.0),
        )
        sel = batch.filter(mask)
        rev = pc.multiply(sel["l_extendedprice"], sel["l_discount"])
        total = pc.sum(_cents(rev)).as_py() or 0
        return pa.table({"rev_cents": pa.array([total], pa.int64())})

    total = ds.map_batches(partial, batch_format="pyarrow", batch_size=65536) \
              .aggregate(Sum("rev_cents", alias_name="c"))
    revenue = round((total["c"] or 0) / 100.0, 2)
    return pa.table({"revenue": pa.array([revenue], pa.float64())})


Q6_SQL = """
SELECT floor((sum(CAST(floor(l_extendedprice * l_discount * 100.0 + 0.5) AS BIGINT)) / 100.0) * 100.0 + 0.5) / 100.0 AS revenue
FROM lineitem
WHERE l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24
"""


# ------------------------------------- broadcast dim joins (Q5 shape)

def q5_supplier_region_revenue(sf_dir: str):
    """Revenue by supplier region: three dimension tables broadcast into
    the lineitem scan (supplier -> nation -> region), then a tiny groupby.
    Zero shuffle on the fact table."""
    from ray.data.aggregate import Sum

    sup = pq.read_table(f"{sf_dir}/supplier.parquet",
                        columns=["s_suppkey", "s_nationkey"])
    nat = pq.read_table(f"{sf_dir}/nation.parquet",
                        columns=["n_nationkey", "n_regionkey"])
    reg = pq.read_table(f"{sf_dir}/region.parquet")
    n2r = dict(zip(nat["n_nationkey"].to_pylist(), nat["n_regionkey"].to_pylist()))
    r2name = dict(zip(reg["r_regionkey"].to_pylist(), reg["r_name"].to_pylist()))
    # explicitly keyed by s_suppkey (round 1 assumed suppkey == file row
    # order, which happens to hold for the testdata but is not a contract)
    supp2region = _dense_lookup(
        sup["s_suppkey"].to_numpy(),
        [r2name[n2r[nk]] for nk in sup["s_nationkey"].to_pylist()])

    ds = _read(sf_dir, "lineitem", ["l_suppkey", "l_extendedprice", "l_discount"])

    def partial(batch: pa.Table, supp2region=None) -> pa.Table:
        rev = pc.multiply(batch["l_extendedprice"],
                          pc.subtract(pa.scalar(1.0), batch["l_discount"]))
        regions = supp2region[batch["l_suppkey"].to_numpy()]
        t = pa.table({"r_name": pa.array(regions, pa.string()),
                      "c": _cents(rev)})
        return _gb(t, ["r_name"], [("c", "sum")], ["c"])

    agg = ds.map_batches(partial, batch_format="pyarrow", batch_size=65536,
                         fn_kwargs={"supp2region": supp2region}) \
            .groupby("r_name").aggregate(Sum("c", alias_name="c"))

    def finalize(batch: pa.Table) -> pa.Table:
        return pa.table({
            "r_name": batch["r_name"],
            "revenue": round_half_up(pc.divide(pc.cast(
                batch["c"], pa.float64()), pa.scalar(100.0)), 2),
        })

    return agg.map_batches(finalize, batch_format="pyarrow")


Q5_SQL = """
SELECT r.r_name,
       floor((sum(CAST(floor(l.l_extendedprice * (1.0 - l.l_discount) * 100.0 + 0.5) AS BIGINT)) / 100.0) * 100.0 + 0.5) / 100.0 AS revenue
FROM lineitem l
JOIN supplier s ON l.l_suppkey = s.s_suppkey
JOIN nation n ON s.s_nationkey = n.n_nationkey
JOIN region r ON n.n_regionkey = r.r_regionkey
GROUP BY r.r_name
"""


# ------------------------------------------- large-large hash join (Q3)

def q3_top_order_revenue(sf_dir: str, segment: str = "BUILDING", k: int = 10):
    """Top-k orders by revenue for one customer segment.

    customer (small) is broadcast as a key-set semi-join filter on orders;
    orders⋈lineitem is the genuinely large-large side and uses the
    hash-partitioned Dataset.join. Top-k runs on the aggregated (small)
    result."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    cust = pq.read_table(f"{sf_dir}/customer.parquet",
                         columns=["c_custkey", "c_mktsegment"])
    # key array built ONCE driver-side and shipped via fn_kwargs (round 1
    # re-sorted and re-serialized it inside every batch call)
    seg_arr = pa.array(sorted(
        pc.filter(cust["c_custkey"],
                  pc.equal(cust["c_mktsegment"], segment)).to_pylist()),
        pa.int64())

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"])

    def semi(batch: pa.Table, keys=None) -> pa.Table:
        mask = pc.is_in(batch["o_custkey"], value_set=keys)
        return batch.filter(mask).select(["o_orderkey", "o_orderdate"])

    # materialize ONCE: the filtered orders feed BOTH the bloom build
    # and the join input (round 2 recomputed the filter pass twice)
    orders_f = orders.map_batches(semi, batch_format="pyarrow",
                                  fn_kwargs={"keys": seg_arr}).materialize()

    # Bloom pushdown: a fixed-size bitmap over the segment's order keys
    # prunes lineitem BEFORE the expensive aggregation (600k -> ~120k
    # rows at sf0.1).  Unlike the round-1 unique()-broadcast, driver
    # memory is O(128 KiB) at any scale; Bloom false positives are
    # removed by the exact inner join below.
    log2m = 20                      # 2^20 bits = 128 KiB
    bloom = _bloom4_build(orders_f, "o_orderkey", log2m)
    if not bloom.any():  # no customer in the segment: stable empty schema
        return pa.Table.from_pylist([], schema=pa.schema([
            ("o_orderkey", pa.int64()), ("revenue", pa.float64())]))

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount"])

    def li_partial(batch: pa.Table, bloom=bloom, log2m=log2m) -> pa.Table:
        keep = _bloom4_probe(bloom, log2m, batch["l_orderkey"])
        batch = batch.filter(pa.array(keep))
        rev = pc.multiply(batch["l_extendedprice"],
                          pc.subtract(pa.scalar(1.0), batch["l_discount"]))
        t = pa.table({"l_orderkey": batch["l_orderkey"], "c": _cents(rev)})
        return _gb(t, ["l_orderkey"], [("c", "sum")], ["c"])

    li_agg = (li.map_batches(li_partial, batch_format="pyarrow", batch_size=65536)
              .groupby("l_orderkey").aggregate(Sum("c", alias_name="c")))

    joined = li_agg.join(orders_f, join_type="inner",
                         num_partitions=_nparts_for(orders.count()),
                         on=("l_orderkey",), right_on=("o_orderkey",))

    def finalize(batch: pa.Table) -> pa.Table:
        return pa.table({
            "o_orderkey": batch["l_orderkey"],
            "revenue": round_half_up(pc.divide(pc.cast(
                batch["c"], pa.float64()), pa.scalar(100.0)), 2),
        })

    out = joined.map_batches(finalize, batch_format="pyarrow")
    return out.sort(["revenue", "o_orderkey"], descending=[True, False]).limit(k)


Q3_SQL = """
SELECT o.o_orderkey AS o_orderkey,
       floor((sum(CAST(floor(l.l_extendedprice * (1.0 - l.l_discount) * 100.0 + 0.5) AS BIGINT)) / 100.0) * 100.0 + 0.5) / 100.0 AS revenue
FROM orders o
JOIN customer c ON o.o_custkey = c.c_custkey
JOIN lineitem l ON l.l_orderkey = o.o_orderkey
WHERE c.c_mktsegment = 'BUILDING'
GROUP BY o.o_orderkey
ORDER BY revenue DESC, o_orderkey ASC
LIMIT 10
"""


# -------------------------------------------------- simple aggregates

def mktsegment_stats(sf_dir: str):
    from ray.data.aggregate import Count, Sum

    ds = _read(sf_dir, "customer", ["c_mktsegment", "c_acctbal"])

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table({"c_mktsegment": batch["c_mktsegment"],
                      "bal": _cents(batch["c_acctbal"])})
        return _gb(t, ["c_mktsegment"], [("bal", "sum"), ("bal", "count_all")],
                   ["bal", "n"])

    agg = ds.map_batches(partial, batch_format="pyarrow").groupby(
        "c_mktsegment").aggregate(Sum("bal", alias_name="bal"),
                                  Sum("n", alias_name="n_customers"))

    def finalize(batch: pa.Table) -> pa.Table:
        return pa.table({
            "c_mktsegment": batch["c_mktsegment"],
            "n_customers": batch["n_customers"],
            "avg_acctbal": round_half_up(pc.divide(pc.divide(pc.cast(
                batch["bal"], pa.float64()), pa.scalar(100.0)),
                pc.cast(batch["n_customers"], pa.float64())), 6),
        })

    return agg.map_batches(finalize, batch_format="pyarrow")


MKTSEGMENT_SQL = """
SELECT c_mktsegment,
       count(*) AS n_customers,
       floor((sum(CAST(floor(c_acctbal * 100.0 + 0.5) AS BIGINT)) / 100.0
             / CAST(count(*) AS DOUBLE)) * 1000000.0 + 0.5) / 1000000.0 AS avg_acctbal
FROM customer
GROUP BY c_mktsegment
"""


def order_priority_counts(sf_dir: str):
    from ray.data.aggregate import Count

    ds = _read(sf_dir, "orders", ["o_orderpriority"])
    return ds.groupby("o_orderpriority").aggregate(Count(alias_name="n_orders"))


ORDER_PRIORITY_SQL = """
SELECT o_orderpriority, count(*) AS n_orders FROM orders GROUP BY o_orderpriority
"""


def part_type_stats(sf_dir: str):
    from ray.data.aggregate import Max, Min, Sum

    ds = _read(sf_dir, "part", ["p_type", "p_size", "p_retailprice"])

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table({"p_type": batch["p_type"], "p_size": batch["p_size"],
                      "price_cents": _cents(batch["p_retailprice"])})
        return _gb(t, ["p_type"],
                   [("p_size", "count_all"), ("p_size", "max"),
                    ("p_size", "min"), ("price_cents", "sum")],
                   ["n_parts", "max_size", "min_size", "price_cents"])

    agg = ds.map_batches(partial, batch_format="pyarrow").groupby("p_type") \
        .aggregate(Sum("n_parts", alias_name="n_parts"),
                   Max("max_size", alias_name="max_size"),
                   Min("min_size", alias_name="min_size"),
                   Sum("price_cents", alias_name="price_cents"))

    def finalize(batch: pa.Table) -> pa.Table:
        return pa.table({
            "p_type": batch["p_type"],
            "n_parts": batch["n_parts"],
            "max_size": batch["max_size"],
            "min_size": batch["min_size"],
            "sum_retailprice": round_half_up(pc.divide(pc.cast(
                batch["price_cents"], pa.float64()), pa.scalar(100.0)), 2),
        })

    return agg.map_batches(finalize, batch_format="pyarrow")


PART_TYPE_SQL = """
SELECT p_type, count(*) AS n_parts, CAST(max(p_size) AS BIGINT) AS max_size,
       CAST(min(p_size) AS BIGINT) AS min_size,
       floor((sum(CAST(floor(p_retailprice * 100.0 + 0.5) AS BIGINT)) / 100.0) * 100.0 + 0.5) / 100.0 AS sum_retailprice
FROM part GROUP BY p_type
"""


def distinct_order_statuses(sf_dir: str):
    """Distinct via groupby (shuffle of the key column only)."""
    from ray.data.aggregate import Count

    ds = _read(sf_dir, "orders", ["o_orderstatus"])
    return ds.groupby("o_orderstatus").aggregate(Count(alias_name="n"))


DISTINCT_STATUS_SQL = """
SELECT o_orderstatus, count(*) AS n FROM orders GROUP BY o_orderstatus
"""


# ------------------------------------------------ additional coverage


def q4_high_quantity_orders(sf_dir: str, qty: float = 45.0):
    """Semi-join shape (TPC-H Q4 flavour): count orders having at least
    one lineitem above a quantity threshold.  Uses the hash-partitioned
    LEFT SEMI ``Dataset.join`` — exact at any scale, no driver key set
    (the round-1 unique()-broadcast pushdown OOMs the driver at 100x)."""
    from ray.data.aggregate import Count

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_quantity"])
    hot = li.map_batches(
        lambda t: t.filter(pc.greater(t["l_quantity"], qty)).select(["l_orderkey"]),
        batch_format="pyarrow")

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderpriority"])
    matched = orders.join(hot, join_type="left_semi",
                          num_partitions=_nparts_for(orders.count()),
                          on=("o_orderkey",), right_on=("l_orderkey",))
    return matched.groupby("o_orderpriority").aggregate(
        Count(alias_name="n_orders"))


Q4_SQL = """
SELECT o_orderpriority, count(*) AS n_orders
FROM orders o
WHERE EXISTS (SELECT 1 FROM lineitem l
              WHERE l.l_orderkey = o.o_orderkey AND l.l_quantity > 45)
GROUP BY o_orderpriority
"""


def top_orders_per_segment(sf_dir: str, k: int = 3):
    """Windowed rank: top-k orders by totalprice within each market
    segment (ROW_NUMBER OVER (PARTITION BY ... ORDER BY ...) shape).
    Customer segment resolved by broadcast; the rank runs inside
    groupby(segment).map_groups over pre-pruned per-batch top-k rows,
    so only k rows per (segment, batch) reach the shuffle."""
    import pyarrow.parquet as _pq

    cust = _pq.read_table(f"{sf_dir}/customer.parquet",
                          columns=["c_custkey", "c_mktsegment"])
    seg_arr = _dense_lookup(cust["c_custkey"].to_numpy(),
                            cust["c_mktsegment"].to_pylist())

    ds = _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_totalprice"])

    def local_prune(batch: pa.Table, seg_arr=seg_arr, k=k) -> pa.Table:
        segs = seg_arr[batch["o_custkey"].to_numpy()]
        t = pa.table({"c_mktsegment": pa.array(segs, pa.string()),
                      "o_orderkey": batch["o_orderkey"],
                      "o_totalprice": batch["o_totalprice"]})
        df = t.to_pandas().dropna(subset=["c_mktsegment"])
        pruned = df.sort_values(
            ["c_mktsegment", "o_totalprice", "o_orderkey"],
            ascending=[True, False, True]).groupby(
            "c_mktsegment", as_index=False).head(k)
        return pa.Table.from_pandas(pruned, preserve_index=False)

    def rank_group(group: pd.DataFrame, k=k) -> pd.DataFrame:
        g = group.sort_values(["o_totalprice", "o_orderkey"],
                              ascending=[False, True]).head(k).copy()
        g["rank"] = range(1, len(g) + 1)
        return g[["c_mktsegment", "rank", "o_orderkey", "o_totalprice"]]

    return (ds.map_batches(local_prune, batch_format="pyarrow",
                           batch_size=32768)
            .groupby("c_mktsegment")
            .map_groups(rank_group, batch_format="pandas"))


TOP_ORDERS_PER_SEGMENT_SQL = """
SELECT c_mktsegment, CAST(rank AS BIGINT) AS rank, o_orderkey, o_totalprice
FROM (
  SELECT c.c_mktsegment, o.o_orderkey, o.o_totalprice,
         row_number() OVER (PARTITION BY c.c_mktsegment
                            ORDER BY o.o_totalprice DESC, o.o_orderkey ASC)
           AS rank
  FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
) WHERE rank <= 3
"""


def q14_promo_revenue_share(sf_dir: str):
    """Promo revenue share (TPC-H Q14 shape): lineitem joined to part by
    partkey via broadcast (part is a dimension here), conditional
    aggregation, one-row result."""
    from ray.data.aggregate import Sum

    part = pq.read_table(f"{sf_dir}/part.parquet",
                         columns=["p_partkey", "p_type"])
    pk = part["p_partkey"].to_numpy()
    promo_arr = np.zeros(int(pk.max()) + 1 if len(pk) else 1, dtype=bool)
    promo_arr[pk] = np.array([t.startswith("PROMO") or t == "ECONOMY"
                              for t in part["p_type"].to_pylist()])

    ds = _read(sf_dir, "lineitem", ["l_partkey", "l_extendedprice", "l_discount"])

    def partial(batch: pa.Table, promo_arr=promo_arr) -> pa.Table:
        rev = _cents(pc.multiply(batch["l_extendedprice"],
                                 pc.subtract(pa.scalar(1.0), batch["l_discount"])))
        rev_np = rev.to_numpy()
        promo_mask = promo_arr[batch["l_partkey"].to_numpy()]
        return pa.table({
            "promo_cents": pa.array([int(rev_np[promo_mask].sum())], pa.int64()),
            "total_cents": pa.array([int(rev_np.sum())], pa.int64()),
        })

    agg = ds.map_batches(partial, batch_format="pyarrow", batch_size=65536)         .aggregate(Sum("promo_cents", alias_name="p"),
                   Sum("total_cents", alias_name="t"))
    p_, t_ = agg["p"], agg["t"]
    if not t_:  # empty input or zero revenue: the SQL yields NULL
        return pa.table({"promo_share_pct": pa.array([None], pa.float64())})
    share = __import__("math").floor((100.0 * p_ / t_) * 1e6 + 0.5) / 1e6
    return pa.table({"promo_share_pct": pa.array([share], pa.float64())})


Q14_SQL = """
SELECT floor((100.0 * sum(CASE WHEN p.p_type LIKE 'PROMO%' OR p.p_type = 'ECONOMY'
                   THEN CAST(floor(l.l_extendedprice * (1.0 - l.l_discount) * 100.0 + 0.5) AS BIGINT)
                   ELSE 0 END)
       / sum(CAST(floor(l.l_extendedprice * (1.0 - l.l_discount) * 100.0 + 0.5) AS BIGINT))) * 1000000.0 + 0.5) / 1000000.0
       AS promo_share_pct
FROM lineitem l JOIN part p ON l.l_partkey = p.p_partkey
"""


def q10_returned_revenue_by_customer(sf_dir: str, k: int = 20):
    """Returned-item revenue per customer (TPC-H Q10 shape): lineitem
    filtered to returnflag='R', aggregated per order, joined to orders
    (hash join), top-k, THEN customer names resolved by a pushdown read
    of just the k winning keys — no full customer-name broadcast (the
    name map grows with the customer dimension at scale; the top-k
    result does not)."""
    from ray.data.aggregate import Sum

    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_returnflag", "l_extendedprice", "l_discount"])

    def li_partial(batch: pa.Table) -> pa.Table:
        sel = batch.filter(pc.equal(batch["l_returnflag"], "R"))
        rev = pc.multiply(sel["l_extendedprice"],
                          pc.subtract(pa.scalar(1.0), sel["l_discount"]))
        t = pa.table({"l_orderkey": sel["l_orderkey"], "c": _cents(rev)})
        return _gb(t, ["l_orderkey"], [("c", "sum")], ["c"])

    li_agg = (li.map_batches(li_partial, batch_format="pyarrow", batch_size=65536)
              .groupby("l_orderkey").aggregate(Sum("c", alias_name="c")))

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"])
    joined = li_agg.join(orders, join_type="inner",
                         num_partitions=_nparts_for(orders.count()),
                         on=("l_orderkey",), right_on=("o_orderkey",))

    def by_customer(batch: pa.Table) -> pa.Table:
        t = pa.table({"o_custkey": batch["o_custkey"], "c": batch["c"]})
        return _gb(t, ["o_custkey"], [("c", "sum")], ["c"])

    def finalize(batch: pa.Table) -> pa.Table:
        return pa.table({
            "c_custkey": batch["o_custkey"],
            "returned_revenue": round_half_up(pc.divide(pc.cast(
                batch["c"], pa.float64()), pa.scalar(100.0)), 2),
        })

    top = (joined.map_batches(by_customer, batch_format="pyarrow")
           .groupby("o_custkey").aggregate(Sum("c", alias_name="c"))
           .map_batches(finalize, batch_format="pyarrow")
           .sort(["returned_revenue", "c_custkey"],
                 descending=[True, False]).limit(k))
    top_tbl = pa.Table.from_pylist(
        top.take_all(),
        schema=pa.schema([("c_custkey", pa.int64()),
                          ("returned_revenue", pa.float64())]))
    keys = top_tbl["c_custkey"].to_pylist()
    cust = pq.read_table(f"{sf_dir}/customer.parquet",
                         columns=["c_custkey", "c_name"],
                         filters=[("c_custkey", "in", keys)] if keys else None)
    name_of = dict(zip(cust["c_custkey"].to_pylist(),
                       cust["c_name"].to_pylist()))
    return pa.table({
        "c_custkey": top_tbl["c_custkey"],
        "c_name": pa.array([name_of[k_] for k_ in keys], pa.string()),
        "returned_revenue": top_tbl["returned_revenue"],
    })


Q10_SQL = """
SELECT c.c_custkey, c.c_name,
       floor((sum(CAST(floor(l.l_extendedprice * (1.0 - l.l_discount) * 100.0 + 0.5) AS BIGINT)) / 100.0) * 100.0 + 0.5) / 100.0 AS returned_revenue
FROM lineitem l
JOIN orders o ON l.l_orderkey = o.o_orderkey
JOIN customer c ON o.o_custkey = c.c_custkey
WHERE l.l_returnflag = 'R'
GROUP BY c.c_custkey, c.c_name
ORDER BY returned_revenue DESC, c_custkey ASC LIMIT 20
"""


def order_price_quantiles(sf_dir: str):
    """EXACT distributed quantiles (discrete): global sort + index
    selection via split_at_indices — the element at floor((n-1)*q) of the
    sorted column, which is precisely DuckDB's quantile_disc, so the
    oracle matches bit for bit (no interpolation, no sketch error).
    Scale shape: one sort shuffle + O(1)-row index reads."""
    ds = _read(sf_dir, "orders", ["o_totalprice"])
    n = ds.count()
    if n == 0:  # match the oracle's NULL quantiles on an empty table
        return pa.table({"p25": pa.array([None], pa.float64()),
                         "p50": pa.array([None], pa.float64()),
                         "p95": pa.array([None], pa.float64())})
    qs = (0.25, 0.5, 0.95)
    # DuckDB quantile_disc = the ceil(q*n)-th order statistic (1-based);
    # floor((n-1)*q) coincides only when q*n is integral or no integer
    # falls in (q*n - q, q*n] — use the oracle's exact rule
    import math as _math
    idxs = [_math.ceil(q * n) - 1 for q in qs]
    sorted_ds = ds.sort("o_totalprice")
    # split at each UNIQUE target index (tiny tables collapse several
    # quantiles onto one index and duplicate split points yield empty
    # segments); the first row of each right-hand split IS the element
    uniq = sorted(set(idxs))
    splits = sorted_ds.split_at_indices(uniq)
    val_at = {u: float(splits[j + 1].take(1)[0]["o_totalprice"])
              for j, u in enumerate(uniq)}
    vals = [val_at[i] for i in idxs]
    return pa.table({
        "p25": pa.array([vals[0]], pa.float64()),
        "p50": pa.array([vals[1]], pa.float64()),
        "p95": pa.array([vals[2]], pa.float64()),
    })


ORDER_PRICE_QUANTILES_SQL = """
SELECT quantile_disc(o_totalprice, 0.25) AS p25,
       quantile_disc(o_totalprice, 0.50) AS p50,
       quantile_disc(o_totalprice, 0.95) AS p95
FROM orders
"""


def q13_customer_distribution(sf_dir: str):
    """Customer order-count distribution (TPC-H Q13 shape): how many
    customers placed exactly N qualifying orders, INCLUDING the
    zero-order customers only an OUTER join surfaces (the one join
    type the library didn't exercise yet — Ray's native left_outer).
    Qualifying = o_orderpriority <> '1-URGENT' (the Q13 comment-filter
    analog on this schema).

    Shape: per-customer order counts collapse to <= |customers| rows
    via partial aggregation BEFORE the join, so the left_outer shuffle
    moves two key-sized tables, never raw orders; the distribution
    rollup after fill_null(0) is a tiny second groupby.
    Returns (c_count, custdist) sorted by custdist DESC, c_count DESC
    (the Q13 ordering)."""
    from ray.data.aggregate import Sum

    orders = _read(sf_dir, "orders", ["o_custkey", "o_orderpriority"])

    def o_partial(batch: pa.Table) -> pa.Table:
        sel = batch.filter(pc.not_equal(batch["o_orderpriority"],
                                        "1-URGENT"))
        t = pa.table({"c_custkey": sel["o_custkey"],
                      "n": pa.array(np.ones(sel.num_rows, np.int64),
                                    pa.int64())})
        return _gb(t, ["c_custkey"], [("n", "sum")], ["n"])

    cnts = (orders.map_batches(o_partial, batch_format="pyarrow",
                               batch_size=65536)
            .groupby("c_custkey").aggregate(Sum("n", alias_name="n")))

    cust = _read(sf_dir, "customer", ["c_custkey"])
    n_cust = cust.count()
    joined = cust.join(cnts, join_type="left_outer",
                       num_partitions=_nparts_for(n_cust),
                       on=("c_custkey",))

    def dist_partial(batch: pa.Table) -> pa.Table:
        n = pc.fill_null(batch["n"], 0)
        t = pa.table({"c_count": pc.cast(n, pa.int64()),
                      "d": pa.array(np.ones(batch.num_rows, np.int64),
                                    pa.int64())})
        return _gb(t, ["c_count"], [("d", "sum")], ["d"])

    return (joined.map_batches(dist_partial, batch_format="pyarrow")
            .groupby("c_count").aggregate(Sum("d", alias_name="custdist"))
            .sort(["custdist", "c_count"], descending=[True, True]))


Q13_SQL = """
SELECT c_count, count(*) AS custdist FROM (
  SELECT c.c_custkey, count(o.o_orderkey) AS c_count
  FROM customer c LEFT OUTER JOIN orders o
    ON c.c_custkey = o.o_custkey AND o.o_orderpriority <> '1-URGENT'
  GROUP BY c.c_custkey
) t
GROUP BY c_count
ORDER BY custdist DESC, c_count DESC
"""


def q18_large_volume_customers(sf_dir: str, qty_threshold: float = 250.0,
                               k: int = 20):
    """Large-volume customers (TPC-H Q18 shape): orders whose total
    lineitem quantity exceeds a threshold — the distributed HAVING
    pattern: the quantity rollup collapses lineitem to <= |orders|
    key-sized rows BEFORE the having-filter and the orders join, so
    the join shuffle moves only the (rare) qualifying keys.
    Quantities are integral in this corpus, so the float sum is exact
    (the Q1 discipline).  Returns (c_custkey, o_orderkey, o_orderdate,
    o_totalprice, sum_qty) by totalprice DESC, orderkey ASC, top k."""
    from ray.data.aggregate import Sum

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_quantity"])

    def li_partial(batch: pa.Table) -> pa.Table:
        t = pa.table({"l_orderkey": batch["l_orderkey"],
                      "sum_qty": batch["l_quantity"]})
        return _gb(t, ["l_orderkey"], [("sum_qty", "sum")], ["sum_qty"])

    big = (li.map_batches(li_partial, batch_format="pyarrow",
                          batch_size=65536)
           .groupby("l_orderkey").aggregate(Sum("sum_qty",
                                                alias_name="sum_qty"))
           .filter(expr=f"sum_qty > {float(qty_threshold)}")
           .materialize())

    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_custkey", "o_totalprice",
                    "o_orderdate"])
    joined = big.join(orders, join_type="inner",
                      num_partitions=_nparts_for(max(1, big.count())),
                      on=("l_orderkey",), right_on=("o_orderkey",))

    def finalize(batch: pa.Table) -> pa.Table:
        return pa.table({
            "c_custkey": batch["o_custkey"],
            "o_orderkey": batch["l_orderkey"],
            "o_orderdate": pc.strftime(batch["o_orderdate"],
                                       format="%Y-%m-%d"),
            "o_totalprice": batch["o_totalprice"],
            "sum_qty": batch["sum_qty"],
        })

    return (joined.map_batches(finalize, batch_format="pyarrow")
            .sort(["o_totalprice", "o_orderkey"],
                  descending=[True, False]).limit(k))


Q18_SQL = """
SELECT o.o_custkey AS c_custkey, o.o_orderkey,
       strftime(o.o_orderdate, '%Y-%m-%d') AS o_orderdate,
       o.o_totalprice, t.sum_qty
FROM (SELECT l_orderkey, sum(l_quantity) AS sum_qty
      FROM lineitem GROUP BY l_orderkey
      HAVING sum(l_quantity) > 250.0) t
JOIN orders o ON o.o_orderkey = t.l_orderkey
ORDER BY o.o_totalprice DESC, o.o_orderkey LIMIT 20
"""


def q7_nation_volume(sf_dir: str):
    """Shipping volume between every (supplier nation, customer nation)
    pair per ship year (TPC-H Q7 generalized to ALL nation pairs — the
    synthetic corpus's nations are uniform, so the classic two-nation
    restriction would test almost nothing).  The heaviest relational
    shape in the library: supplier nation rides into the lineitem scan
    as a dense broadcast (the Q5 dimension pattern), the customer side
    goes through TWO large hash joins (lineitem ⋈ orders on orderkey,
    then ⋈ customer on custkey) with the chained-join hygiene
    (schema-enforce + compact between them), and a partial rollup
    between the joins shrinks the second shuffle to
    (custkey, nation, year)-keyed rows.
    Returns (supp_nation, cust_nation, l_year, revenue)."""
    from ray.data.aggregate import Sum

    from ._part import compact_parts

    sup = pq.read_table(f"{sf_dir}/supplier.parquet",
                        columns=["s_suppkey", "s_nationkey"])
    nat = pq.read_table(f"{sf_dir}/nation.parquet",
                        columns=["n_nationkey", "n_name"])
    n2name = dict(zip(nat["n_nationkey"].to_pylist(),
                      nat["n_name"].to_pylist()))
    supp2nat = _dense_lookup(
        sup["s_suppkey"].to_numpy(),
        [n2name[nk] for nk in sup["s_nationkey"].to_pylist()])

    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_suppkey", "l_extendedprice",
                "l_discount", "l_shipdate"])

    def li_map(batch: pa.Table, supp2nat=None) -> pa.Table:
        rev = pc.multiply(batch["l_extendedprice"],
                          pc.subtract(pa.scalar(1.0), batch["l_discount"]))
        t = pa.table({
            "l_orderkey": batch["l_orderkey"],
            "supp_nation": pa.array(
                supp2nat[batch["l_suppkey"].to_numpy()], pa.string()),
            "l_year": pc.cast(pc.year(batch["l_shipdate"]), pa.int64()),
            "c": _cents(rev)})
        return _gb(t, ["l_orderkey", "supp_nation", "l_year"],
                   [("c", "sum")], ["c"])

    fact = li.map_batches(li_map, batch_format="pyarrow",
                          batch_size=65536,
                          fn_kwargs={"supp2nat": supp2nat})

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"])
    n_orders = orders.count()
    nparts = _nparts_for(n_orders)
    j1 = fact.join(orders, join_type="inner", num_partitions=nparts,
                   on=("l_orderkey",), right_on=("o_orderkey",))

    def shrink(batch: pa.Table) -> pa.Table:
        t = pa.table({"o_custkey": batch["o_custkey"],
                      "supp_nation": batch["supp_nation"],
                      "l_year": batch["l_year"], "c": batch["c"]})
        return _gb(t, ["o_custkey", "supp_nation", "l_year"],
                   [("c", "sum")], ["c"])

    mid_schema = pa.schema([("o_custkey", pa.int64()),
                            ("supp_nation", pa.string()),
                            ("l_year", pa.int64()), ("c", pa.int64())])
    half = (j1.map_batches(shrink, batch_format="pyarrow")
            .map_batches(lambda b, s=mid_schema: b.select(
                [f.name for f in s]).cast(s), batch_format="pyarrow")
            .repartition(compact_parts(n_orders))
            .materialize())

    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    j2 = half.join(cust, join_type="inner", num_partitions=nparts,
                   on=("o_custkey",), right_on=("c_custkey",))

    def cust_nation(batch: pa.Table, n2name=n2name) -> pa.Table:
        names = [n2name[nk] for nk in
                 batch["c_nationkey"].to_pylist()]
        t = pa.table({"supp_nation": batch["supp_nation"],
                      "cust_nation": pa.array(names, pa.string()),
                      "l_year": batch["l_year"], "c": batch["c"]})
        return _gb(t, ["supp_nation", "cust_nation", "l_year"],
                   [("c", "sum")], ["c"])

    agg = (j2.map_batches(cust_nation, batch_format="pyarrow")
           .groupby(["supp_nation", "cust_nation", "l_year"])
           .aggregate(Sum("c", alias_name="c")))

    def finalize(batch: pa.Table) -> pa.Table:
        return pa.table({
            "supp_nation": batch["supp_nation"],
            "cust_nation": batch["cust_nation"],
            "l_year": batch["l_year"],
            "revenue": round_half_up(pc.divide(pc.cast(
                batch["c"], pa.float64()), pa.scalar(100.0)), 2)})

    return agg.map_batches(finalize, batch_format="pyarrow")


Q7_SQL = """
SELECT sn.n_name AS supp_nation, cn.n_name AS cust_nation,
       CAST(year(l.l_shipdate) AS BIGINT) AS l_year,
       floor((sum(CAST(floor(l.l_extendedprice * (1.0 - l.l_discount) * 100.0 + 0.5) AS BIGINT)) / 100.0) * 100.0 + 0.5) / 100.0 AS revenue
FROM lineitem l
JOIN supplier s ON l.l_suppkey = s.s_suppkey
JOIN nation sn ON s.s_nationkey = sn.n_nationkey
JOIN orders o ON l.l_orderkey = o.o_orderkey
JOIN customer c ON o.o_custkey = c.c_custkey
JOIN nation cn ON c.c_nationkey = cn.n_nationkey
GROUP BY sn.n_name, cn.n_name, year(l.l_shipdate)
"""


def salted_join(large_ds, small_ds, on: str, right_on: str | None = None,
                n_salts: int = 8, num_partitions: int | None = None,
                join_type: str = "inner"):
    """Skew-proof inner hash join (the join-side counterpart to the
    salted COUNT DISTINCT): a hot key in a plain hash join lands every
    one of its rows in ONE aggregator partition — the straggler that
    kills wall-clock at 100 TB.  Salting splits each large-side key's
    rows across ``n_salts`` sub-partitions (salt = splitmix of a
    per-batch row counter — deterministic layout-independence is NOT
    required for correctness here, only balance) and replicates each
    small-side row to all ``n_salts`` salts, so the join key becomes
    (key, salt) and no partition holds more than ~1/n_salts of a hot
    key.  Result rows equal the plain inner join exactly (tested on a
    planted 90%-one-key skew); cost = small side x n_salts, the
    standard trade.

    ``large_ds``/``small_ds``: Datasets.  ``on``: large-side key
    column; ``right_on``: small-side key column (defaults to ``on``).

    ``join_type``: "inner" or "left_outer".  LEFT OUTER stays correct
    under salting because every large-side row lives in exactly ONE
    (key, salt) partition, where it meets the small side's full key row
    set (replicated to every salt) — so a matched row matches exactly
    as in the plain join and an unmatched row null-extends exactly
    once (tested).  Right/full outer would need dedup of the
    replicated side's unmatched copies — refused."""
    import ray.data as rd

    if join_type not in ("inner", "left_outer"):
        raise ValueError(
            f"salted_join: join_type {join_type!r} not supported — the "
            "replicated small side would emit one unmatched copy PER "
            "SALT under right/full outer; use the plain Dataset.join")
    right_on = right_on or on

    def salt_large(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        keys = batch[on].to_numpy(zero_copy_only=False)
        mix = ((keys.astype(np.uint64) + np.arange(n, dtype=np.uint64))
               * np.uint64(0x9E3779B97F4A7C15))
        salt = ((mix >> np.uint64(33)) % np.uint64(n_salts)) \
            .astype(np.int64)
        return batch.append_column("_salt", pa.array(salt, pa.int64()))

    def replicate_small(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        idx = pa.array(np.repeat(np.arange(n), n_salts))
        rep = batch.take(idx)
        salt = np.tile(np.arange(n_salts, dtype=np.int64), n)
        return rep.append_column("_salt", pa.array(salt, pa.int64()))

    left = large_ds.map_batches(salt_large, batch_format="pyarrow")
    right = small_ds.map_batches(replicate_small, batch_format="pyarrow")
    if num_partitions is None:
        num_partitions = _nparts_for(large_ds.count())
    joined = left.join(right, join_type=join_type,
                       num_partitions=num_partitions,
                       on=(on, "_salt"), right_on=(right_on, "_salt"))
    return joined.drop_columns(["_salt"])


def orders_rollup(sf_dir: str):
    """GROUP BY ROLLUP(o_orderpriority, year(o_orderdate)) — the
    grouping-sets family (subtotal + grand-total rows with a GROUPING
    bitmask), which no prior operator covered.

    Scale design: only the FINEST grain ever shuffles — per-block
    partials over (priority, year) feed one small groupby, and the
    coarser levels are derived FROM that finest result (exact int-cent
    re-sums, so level totals are bit-identical to a direct computation)
    in a single-block Arrow pass.  The finest grain is provably tiny
    (|priorities| x |years|), so the `repartition(1)` that makes the
    derivation one batch is a documented small-result gate, not a data
    materialization — the input table itself never gathers anywhere.

    ``lvl`` mirrors SQL GROUPING(priority, year): bit 1 = priority
    rolled up, bit 0 = year rolled up (0 = finest, 1 = per-priority
    subtotal, 3 = grand total).  A NULL **data** key stays a real group
    at lvl 0 — distinguishable from subtotal NULLs exactly as in SQL —
    via the usual sentinel-flag columns.

    Returns (o_orderpriority, order_year, lvl, n_orders, revenue).
    Oracle: ORDERS_ROLLUP_SQL.
    """
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "orders",
               ["o_orderpriority", "o_orderdate", "o_totalprice"])

    def partial(batch: pa.Table) -> pa.Table:
        prio = batch["o_orderpriority"]
        p_null = pc.is_null(prio)
        years = pc.year(batch["o_orderdate"])
        y_null = pc.is_null(years)
        t = pa.table({
            "prio": pc.fill_null(prio, ""),
            "p_null": pc.cast(p_null, pa.int64()),
            "order_year": pc.fill_null(pc.cast(years, pa.int64()), 0),
            "y_null": pc.cast(y_null, pa.int64()),
            "cents": _cents(batch["o_totalprice"]),
        })
        return _gb(t, ["prio", "p_null", "order_year", "y_null"],
                   [("cents", "sum"), ("cents", "count_all")],
                   ["cents", "n"])

    finest = ds.map_batches(partial, batch_format="pyarrow") \
        .groupby(["prio", "p_null", "order_year", "y_null"]) \
        .aggregate(Sum("cents", alias_name="cents"),
                   Sum("n", alias_name="n"))

    def derive_levels(t: pa.Table) -> pa.Table:
        rows = {"prio": [], "p_null": [], "order_year": [], "y_null": [],
                "lvl": [], "n": [], "cents": []}

        def emit(p, pn, y, yn, lvl, n, c):
            rows["prio"].append(p); rows["p_null"].append(pn)
            rows["order_year"].append(y); rows["y_null"].append(yn)
            rows["lvl"].append(lvl); rows["n"].append(n)
            rows["cents"].append(c)

        for r in t.to_pylist():                       # tiny: P x Y rows
            emit(r["prio"], r["p_null"], r["order_year"], r["y_null"],
                 0, r["n"], r["cents"])
        g1 = t.group_by(["prio", "p_null"]).aggregate(
            [("n", "sum"), ("cents", "sum")])
        for r in g1.to_pylist():
            emit(r["prio"], r["p_null"], 0, 1, 1, r["n_sum"],
                 r["cents_sum"])
        emit("", 1, 0, 1, 3,
             pc.sum(t["n"]).as_py() or 0,
             pc.sum(t["cents"]).as_py() or 0)
        return pa.table({k: pa.array(v, pa.int64()
                                     if k != "prio" else pa.string())
                         for k, v in rows.items()})

    def finalize(batch: pa.Table) -> pa.Table:
        p = batch["prio"].to_pylist()
        pn = batch["p_null"].to_pylist()
        y = batch["order_year"].to_pylist()
        yn = batch["y_null"].to_pylist()
        lvl = batch["lvl"].to_pylist()
        return pa.table({
            "o_orderpriority": pa.array(
                [None if (n or L & 2) else v
                 for v, n, L in zip(p, pn, lvl)], pa.string()),
            "order_year": pa.array(
                [None if (n or L & 1) else v
                 for v, n, L in zip(y, yn, lvl)], pa.int64()),
            "lvl": batch["lvl"],
            "n_orders": batch["n"],
            "revenue": round_half_up(pc.divide(pc.cast(
                batch["cents"], pa.float64()), pa.scalar(100.0)), 2),
        })

    return (finest.repartition(1)
            .map_batches(derive_levels, batch_format="pyarrow",
                         batch_size=None)
            .map_batches(finalize, batch_format="pyarrow"))


ORDERS_ROLLUP_SQL = """
SELECT o_orderpriority,
       CAST(year(o_orderdate) AS BIGINT) AS order_year,
       CAST(GROUPING(o_orderpriority, year(o_orderdate)) AS BIGINT)
         AS lvl,
       count(*) AS n_orders,
       floor((sum(CAST(floor(o_totalprice * 100.0 + 0.5) AS BIGINT))
              / 100.0) * 100.0 + 0.5) / 100.0 AS revenue
FROM orders
GROUP BY ROLLUP(o_orderpriority, year(o_orderdate))
"""


def merge_changeset(sf_dir: str, as_of_seq: int | None = None):
    """MERGE INTO / CDC upsert: apply a changeset of inserts, updates
    and deletes (each stamped with a commit sequence) to a base
    snapshot with LAST-WRITER-WINS per key — the Delta/Hudi-style
    "apply CDC feed" operator; no prior operator covered versioned
    upsert resolution.

    ``as_of_seq`` is the TIME-TRAVEL read (Delta's VERSION AS OF):
    only commits with seq <= as_of_seq participate, so as_of_seq=0 is
    the base snapshot and as_of_seq=None (default) the latest.  The
    filter runs BEFORE the shuffle — time travel reads less, never
    more; resolution is unchanged, so every snapshot is exactly the
    last-writer-wins state at that commit (the delete-then-reinsert
    key is absent at seq 2-3 and back at 4 — pinned in tests).

    The changeset is derived deterministically from ``orders`` (no
    external data; both engines derive the identical feed):

    * seq 1: every key %% 7 == 0   -> U (price+100, status 'X')
    * seq 1: fresh keys (key + 10^7 for key %% 11 == 0) -> I
    * seq 2: every key %% 13 == 0  -> D (beats a seq-1 U at %% 91)
    * seq 3: every key %% 14 == 0  -> U again (beats the seq-1 U)
    * seq 4: every key %% 26 == 0  -> I (re-insert AFTER the seq-2
      delete — the resurrection case that breaks naive delete-masking)

    Each stream gets its own commit seq so any key sees at most one
    change per seq and the max-seq winner is unique — ambiguous
    same-seq writes to one key would be engine-nondeterministic in ANY
    CDC implementation (and in the SQL mirror's row_number).

    Semantics: base rows ride as seq 0; per key the max-seq row wins;
    a winning D removes the key, any other winner IS the row ('U' is
    an upsert).  Kernel — one hash(key) %% P shuffle co-locates every
    version of a key, then ONE lexsort(key, seq) + last-of-run mask
    per partition resolves the winner: no per-key Python, group size
    bounded by versions-per-key, never by table size.

    Returns the final snapshot (o_orderkey, o_custkey, o_orderstatus,
    o_totalprice).  Oracle: MERGE_CHANGESET_SQL.
    """
    from ._part import nparts_for

    ds = _read(sf_dir, "orders",
               ["o_orderkey", "o_custkey", "o_orderstatus",
                "o_totalprice"])
    n_rows = pq.ParquetFile(f"{sf_dir}/orders.parquet").metadata.num_rows
    n_parts = nparts_for(2 * n_rows, rows_per_part=500_000, floor=8)

    def expand(batch: pa.Table) -> pa.Table:
        key = batch["o_orderkey"].to_numpy(zero_copy_only=False)
        cust = batch["o_custkey"].to_numpy(zero_copy_only=False)
        status = batch["o_orderstatus"].to_numpy(zero_copy_only=False)
        cents = _cents(batch["o_totalprice"]).to_numpy(
            zero_copy_only=False)
        ks, cs, sts, cts, seqs, ops = [], [], [], [], [], []

        def emit(m, k, c, st, ct, seq, op):
            n = int(m.sum())
            if n == 0:
                return
            ks.append(k[m]); cs.append(c[m])
            sts.append(np.asarray(st)[m] if not np.isscalar(st)
                       else np.full(n, st, dtype=object))
            cts.append(ct[m] if isinstance(ct, np.ndarray)
                       else np.full(n, ct, np.int64))
            seqs.append(np.full(n, seq, np.int64))
            ops.append(np.full(n, op, dtype=object))

        all_m = np.ones(len(key), bool)
        emit(all_m, key, cust, status, cents, 0, "B")        # base
        emit(key % 7 == 0, key, cust, "X", cents + 10_000, 1, "U")
        m_i = key % 11 == 0                                   # fresh keys
        emit(m_i, key + 10_000_000, cust, "N", key * 100, 1, "I")
        emit(key % 13 == 0, key, cust, status, cents, 2, "D")
        emit(key % 14 == 0, key, cust, "Y", cents + 20_000, 3, "U")
        emit(key % 26 == 0, key, cust, "Z",
             np.full(len(key), 100, np.int64), 4, "I")
        keys_c = np.concatenate(ks)
        mix = keys_c.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
        part = ((mix >> np.uint64(33)) % np.uint64(n_parts)).astype(
            np.int64)
        return pa.table({
            "key": pa.array(keys_c, pa.int64()),
            "cust": pa.array(np.concatenate(cs), pa.int64()),
            "status": pa.array(np.concatenate(sts).astype(str),
                               pa.string()),
            "cents": pa.array(np.concatenate(cts), pa.int64()),
            "seq": pa.array(np.concatenate(seqs), pa.int64()),
            "op": pa.array(np.concatenate(ops).astype(str), pa.string()),
            "part": pa.array(part, pa.int64()),
        })

    out_schema = pa.schema([("o_orderkey", pa.int64()),
                            ("o_custkey", pa.int64()),
                            ("o_orderstatus", pa.string()),
                            ("cents", pa.int64())])

    def resolve(part: pa.Table) -> pa.Table:
        if len(part) == 0:
            return out_schema.empty_table()
        key = part["key"].to_numpy(zero_copy_only=False)
        seq = part["seq"].to_numpy(zero_copy_only=False)
        order = np.lexsort((seq, key))
        key = key[order]
        last = np.empty(len(key), bool)
        last[-1] = True
        last[:-1] = key[1:] != key[:-1]
        win = np.flatnonzero(last)
        t = part.take(pa.array(order[win], pa.int64()))
        keep = pc.invert(pc.equal(t["op"], "D"))
        t = t.filter(keep)
        return pa.table({
            "o_orderkey": t["key"],
            "o_custkey": t["cust"],
            "o_orderstatus": t["status"],
            "cents": t["cents"],
        })

    def finalize(batch: pa.Table) -> pa.Table:
        return pa.table({
            "o_orderkey": batch["o_orderkey"],
            "o_custkey": batch["o_custkey"],
            "o_orderstatus": batch["o_orderstatus"],
            "o_totalprice": round_half_up(pc.divide(pc.cast(
                batch["cents"], pa.float64()), pa.scalar(100.0)), 2),
        })

    versions = ds.map_batches(expand, batch_format="pyarrow")
    if as_of_seq is not None:
        versions = versions.filter(expr=f"seq <= {int(as_of_seq)}")
    return (versions
            .groupby("part").map_groups(resolve, batch_format="pyarrow")
            .map_batches(finalize, batch_format="pyarrow"))


def merge_changeset_as_of_sql(as_of_seq: int) -> str:
    """The MERGE_CHANGESET_SQL oracle restricted to seq <= as_of_seq
    (DuckDB mirror of the time-travel read)."""
    return MERGE_CHANGESET_SQL.replace(
        "SELECT * FROM base UNION ALL SELECT * FROM changes",
        "SELECT * FROM (SELECT * FROM base UNION ALL "
        "SELECT * FROM changes) v"
        f" WHERE v.seq <= {int(as_of_seq)}")


MERGE_CHANGESET_SQL = """
WITH base AS (
  SELECT o_orderkey AS key, o_custkey AS cust, o_orderstatus AS status,
         CAST(floor(o_totalprice * 100.0 + 0.5) AS BIGINT) AS cents,
         0 AS seq, 'B' AS op
  FROM orders
),
changes AS (
  SELECT key, cust, 'X' AS status, cents + 10000 AS cents, 1 AS seq,
         'U' AS op FROM base WHERE key % 7 = 0
  UNION ALL
  SELECT key + 10000000, cust, 'N', key * 100, 1, 'I'
  FROM base WHERE key % 11 = 0
  UNION ALL
  SELECT key, cust, status, cents, 2, 'D' FROM base WHERE key % 13 = 0
  UNION ALL
  SELECT key, cust, 'Y', cents + 20000, 3, 'U' FROM base
  WHERE key % 14 = 0
  UNION ALL
  SELECT key, cust, 'Z', 100, 4, 'I' FROM base WHERE key % 26 = 0
),
versions AS (
  SELECT * FROM base UNION ALL SELECT * FROM changes
),
winners AS (
  SELECT *, row_number() OVER (PARTITION BY key ORDER BY seq DESC)
         AS rn
  FROM versions
)
SELECT key AS o_orderkey, cust AS o_custkey, status AS o_orderstatus,
       floor((cents / 100.0) * 100.0 + 0.5) / 100.0 AS o_totalprice
FROM winners WHERE rn = 1 AND op <> 'D'
"""


def q21_blamed_suppliers(sf_dir: str, late_days: int = 60, k: int = 20):
    """Suppliers-who-kept-orders-waiting (TPC-H Q21 shape, adapted to
    this corpus's columns: "late" = shipped more than ``late_days``
    after the order date, per (order, supplier)).  The reference SQL is
    a DOUBLE-EXISTENTIAL self join — EXISTS(another supplier in the
    order) AND NOT EXISTS(another LATE supplier in the order) — the
    heaviest correlated-subquery shape in TPC-H.

    Scale design — the existentials collapse to per-order aggregates:
    a supplier s is blamed for order o iff o's late-supplier set is
    exactly {s} and o has >= 2 suppliers.  So (1) lineitem reduces to
    distinct (orderkey, suppkey, max_shipdate) via partial+global
    groupby — the only lineitem-sized shuffle; (2) one hash join
    attaches o_orderdate (status 'F' only); (3) per-ORDER integer
    aggregates (n_supp, n_late, sum(suppkey*late)) resolve both
    existentials with no self join at all — sum(suppkey*late) IS the
    blamed supplier exactly when n_late == 1; (4) the per-supplier
    count is key-sized.  Counting unit: (supplier, order) pairs —
    mirrored by the DISTINCT in the oracle.
    """
    from ray.data.aggregate import Sum, Max

    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_suppkey", "l_shipdate"])

    def li_partial(batch: pa.Table) -> pa.Table:
        t = pa.table({"l_orderkey": batch["l_orderkey"],
                      "l_suppkey": batch["l_suppkey"],
                      "ship_us": pc.cast(batch["l_shipdate"], pa.int64())})
        return _gb(t, ["l_orderkey", "l_suppkey"],
                   [("ship_us", "max")], ["max_ship"])

    pairs = (li.map_batches(li_partial, batch_format="pyarrow",
                            batch_size=65536)
             .groupby(["l_orderkey", "l_suppkey"])
             .aggregate(Max("max_ship", alias_name="max_ship")))

    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_orderdate", "o_orderstatus"])
    n_orders = orders.count()          # parquet metadata, no execution

    def o_map(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.equal(batch["o_orderstatus"], "F"))
        return pa.table({"o_orderkey": t["o_orderkey"],
                         "odate_us": pc.cast(t["o_orderdate"],
                                             pa.int64())})

    fo = orders.map_batches(o_map, batch_format="pyarrow")
    nparts = _nparts_for(n_orders)
    j = pairs.join(fo, join_type="inner", num_partitions=nparts,
                   on=("l_orderkey",), right_on=("o_orderkey",))

    cut_us = int(late_days) * 86_400_000_000  # days -> timestamp[us]

    def per_order_partial(batch: pa.Table) -> pa.Table:
        late = pc.cast(pc.greater(
            batch["max_ship"],
            pc.add(batch["odate_us"], pa.scalar(cut_us, pa.int64()))),
            pa.int64())
        t = pa.table({"l_orderkey": batch["l_orderkey"],
                      "n_late": late,
                      "late_supp": pc.multiply(batch["l_suppkey"], late)})
        return _gb(t, ["l_orderkey"],
                   [("n_late", "count_all"), ("n_late", "sum"),
                    ("late_supp", "sum")],
                   ["n_supp", "n_late", "late_supp"])

    per_order = (j.map_batches(per_order_partial, batch_format="pyarrow")
                 .groupby("l_orderkey")
                 .aggregate(Sum("n_supp", alias_name="n_supp"),
                            Sum("n_late", alias_name="n_late"),
                            Sum("late_supp", alias_name="late_supp")))

    blamed = (per_order.filter(expr="n_late == 1")
              .filter(expr="n_supp >= 2"))

    def supp_partial(batch: pa.Table) -> pa.Table:
        t = pa.table({"s_suppkey": batch["late_supp"]})
        return _gb(t, ["s_suppkey"], [("s_suppkey", "count_all")],
                   ["numwait"])

    counts = (blamed.map_batches(supp_partial, batch_format="pyarrow")
              .groupby("s_suppkey")
              .aggregate(Sum("numwait", alias_name="numwait")))

    sup = pq.read_table(f"{sf_dir}/supplier.parquet",
                        columns=["s_suppkey", "s_name"])
    name_arr = _dense_lookup(sup["s_suppkey"].to_numpy(),
                             sup["s_name"].to_pylist())

    def add_name(batch: pa.Table, name_arr=name_arr) -> pa.Table:
        names = name_arr[batch["s_suppkey"].to_numpy()]
        return pa.table({"s_name": pa.array(names, pa.string()),
                         "numwait": batch["numwait"]})

    return (counts.map_batches(add_name, batch_format="pyarrow",
                               fn_kwargs={"name_arr": name_arr})
            .sort(["numwait", "s_name"], descending=[True, False])
            .limit(k))


Q21_SQL = """
SELECT s.s_name, count(*) AS numwait FROM (
  SELECT DISTINCT l1.l_suppkey, l1.l_orderkey
  FROM lineitem l1 JOIN orders o ON o.o_orderkey = l1.l_orderkey
  WHERE o.o_orderstatus = 'F'
    AND l1.l_shipdate > o.o_orderdate + INTERVAL 60 DAY
    AND EXISTS (SELECT 1 FROM lineitem l2
                WHERE l2.l_orderkey = l1.l_orderkey
                  AND l2.l_suppkey <> l1.l_suppkey)
    AND NOT EXISTS (SELECT 1 FROM lineitem l3
                    WHERE l3.l_orderkey = l1.l_orderkey
                      AND l3.l_suppkey <> l1.l_suppkey
                      AND l3.l_shipdate > o.o_orderdate + INTERVAL 60 DAY)
) b JOIN supplier s ON b.l_suppkey = s.s_suppkey
GROUP BY s.s_name ORDER BY numwait DESC, s.s_name LIMIT 20
"""


def q22_idle_rich_customers(sf_dir: str, price_threshold: float = 350000.0):
    """Rich-but-idle customers (TPC-H Q22 shape, adapted: "idle" = no
    single order above ``price_threshold``; country code = nationkey).
    Two new gate shapes composed: a SCALAR-SUBQUERY threshold (the
    corpus-wide average positive balance, computed as ONE integer-cents
    aggregate and broadcast as two scalars) and a NOT-EXISTS anti join
    against the big-order key set.

    The average gate compares exactly by cross-multiplying integers —
    cents * n_pos > sum_cents — mirrored term for term in the oracle,
    so the float division never happens on either engine.  The anti
    join is the hash-partitioned LEFT ANTI ``Dataset.join`` (per-block
    key dedup shrinks the right side first); the final rollup is
    nationkey-sized.
    """
    from ray.data.aggregate import Sum, Count

    cust = _read(sf_dir, "customer",
                 ["c_custkey", "c_nationkey", "c_acctbal"])
    n_cust = cust.count()              # parquet metadata, no execution

    def cents_pos(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.greater(batch["c_acctbal"], 0.0))
        return pa.table({"cents": _cents(t["c_acctbal"])})

    gate = cust.map_batches(cents_pos, batch_format="pyarrow") \
        .aggregate(Sum("cents", alias_name="sum_cents"),
                   Count(alias_name="n_pos"))
    sum_cents = int(gate["sum_cents"] or 0)
    n_pos = int(gate["n_pos"] or 0)

    def rich(batch: pa.Table, sum_cents=sum_cents,
             n_pos=n_pos) -> pa.Table:
        cents = _cents(batch["c_acctbal"])
        keep = pc.greater(pc.multiply(cents, pa.scalar(n_pos, pa.int64())),
                          pa.scalar(sum_cents, pa.int64()))
        t = batch.filter(keep)
        return pa.table({"c_custkey": t["c_custkey"],
                         "c_nationkey": t["c_nationkey"],
                         "cents": _cents(t["c_acctbal"])})

    rich_ds = cust.map_batches(rich, batch_format="pyarrow")

    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def big_keys(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.greater(batch["o_totalprice"],
                                    float(price_threshold)))
        return pa.table({"o_custkey": t["o_custkey"]}) \
            .group_by(["o_custkey"]).aggregate([])

    big = orders.map_batches(big_keys, batch_format="pyarrow") \
        .materialize()
    if big.count() == 0:
        idle = rich_ds          # empty anti side breaks Acero; skip it
    else:
        idle = rich_ds.join(big, join_type="left_anti",
                            num_partitions=_nparts_for(n_cust),
                            on=("c_custkey",), right_on=("o_custkey",))

    def nat_partial(batch: pa.Table) -> pa.Table:
        t = pa.table({"cntrycode": batch["c_nationkey"],
                      "cents": batch["cents"]})
        return _gb(t, ["cntrycode"],
                   [("cents", "count_all"), ("cents", "sum")],
                   ["numcust", "cents"])

    agg = (idle.map_batches(nat_partial, batch_format="pyarrow")
           .groupby("cntrycode")
           .aggregate(Sum("numcust", alias_name="numcust"),
                      Sum("cents", alias_name="cents")))

    def finalize(batch: pa.Table) -> pa.Table:
        return pa.table({
            "cntrycode": batch["cntrycode"],
            "numcust": batch["numcust"],
            "totacctbal": round_half_up(pc.divide(pc.cast(
                batch["cents"], pa.float64()), pa.scalar(100.0)), 2)})

    return (agg.map_batches(finalize, batch_format="pyarrow")
            .sort("cntrycode"))


Q22_SQL = """
WITH pos AS (
  SELECT sum(CAST(floor(c_acctbal * 100.0 + 0.5) AS BIGINT)) AS sum_cents,
         count(*) AS n_pos
  FROM customer WHERE c_acctbal > 0.0
)
SELECT CAST(c.c_nationkey AS BIGINT) AS cntrycode, count(*) AS numcust,
       floor((sum(CAST(floor(c.c_acctbal * 100.0 + 0.5) AS BIGINT)) / 100.0) * 100.0 + 0.5) / 100.0 AS totacctbal
FROM customer c
WHERE CAST(floor(c.c_acctbal * 100.0 + 0.5) AS BIGINT) * (SELECT n_pos FROM pos)
        > (SELECT sum_cents FROM pos)
  AND NOT EXISTS (SELECT 1 FROM orders o
                  WHERE o.o_custkey = c.c_custkey
                    AND o.o_totalprice > 350000.0)
GROUP BY c.c_nationkey ORDER BY cntrycode
"""


def melt(ds, id_cols: list, column_groups: dict, var_name: str = "variable"):
    """UNPIVOT / melt: wide -> long reshape (the inverse of the PIVOT
    family).  ``column_groups`` maps each output ``var_name`` label to
    a {out_col: in_col} projection, so parallel column families
    (n_<t> / v_<t>) melt together into one row per (id, label).

    Map-only: every batch emits |column_groups| stacked slices of
    itself — no shuffle, schema declared up front (the pivot's
    fixed-type-set contract, mirrored).
    """
    labels = list(column_groups)

    def stack(batch: pa.Table) -> pa.Table:
        parts = []
        for label in labels:
            cols = {c: batch[c] for c in id_cols}
            cols[var_name] = pa.array([label] * batch.num_rows,
                                      pa.string())
            for out_col, in_col in column_groups[label].items():
                cols[out_col] = batch[in_col]
            parts.append(pa.table(cols))
        return pa.concat_tables(parts)

    return ds.map_batches(stack, batch_format="pyarrow")


def auto_join(large_ds, small_ds, on: str, right_on: str | None = None,
              broadcast_rows: int = 100_000, skew_share: float = 0.2,
              skew_check: bool = True, bloom_prune: bool = False,
              join_type: str = "inner", explain: bool = False):
    """Strategy-picking inner join (optimizer-lite): measure, then
    join — the decision a query planner makes from statistics, made
    here from the engine's own sketches.

    1. right side <= ``broadcast_rows``  -> BROADCAST: the small table
       ships once via ``ray.put`` and every batch joins against it
       in-task with Arrow's hash join — zero shuffle of the large side
       (the ray-guide "small side -> broadcast" rule, generalized to
       arbitrary payload columns).
    2. else, if ``skew_check`` and key_skew_report finds a key holding
       >= ``skew_share`` of large-side rows -> SALTED hash join with
       the report's recommended salt factor (a hot key in a plain hash
       join serializes on one partition).
    3. else -> plain hash-partitioned ``Dataset.join``.

    ``bloom_prune=True`` additionally drops large-side rows whose key
    cannot match BEFORE any shuffle leg (see ``bloom_pruned_join`` —
    no false negatives, so every leg's answer is unchanged; tested).
    Opt-in because it only pays when the join is selective: at
    selectivity ~1 the probe is wasted (though cheap) work.  It runs
    before the skew diagnostic, so the skew decision sees the keys
    that will actually shuffle.

    ``join_type``: "inner", "left_outer" or "full_outer".  Inner and
    left-outer run on every leg (the broadcast per-batch Arrow join is
    row-independent, the salted leg is single-salt-per-left-row
    correct — see salted_join).  FULL OUTER always takes the hash leg:
    a per-batch broadcast join cannot know which right rows matched NO
    batch anywhere, and the salted leg replicates each right row
    n_salts times, so an unmatched right row would be null-extended
    once per salt.  LEFT/FULL OUTER compose with neither bloom pruning
    (a pruned row would lose its null-extended output) — refused.

    The diagnostic pass costs one extra scan of the large side's key
    column — worth it exactly when the join is shuffle-sized; pass
    skew_check=False when the key is known uniform.  All legs return
    the same multiset of rows (tested).  ``explain=True`` returns
    (dataset, {"strategy", ...}).
    """
    import ray
    import ray.data as rd

    from .sketches import key_skew_report

    right_on = right_on or on
    if join_type not in ("inner", "left_outer", "full_outer"):
        raise ValueError(f"auto_join: join_type {join_type!r} not "
                         "supported (inner / left_outer / full_outer)")
    if bloom_prune and join_type != "inner":
        raise ValueError(
            "auto_join: bloom_prune requires an inner join — a pruned "
            "large-side row would silently lose its null-extended "
            "left-outer output")
    n_right = small_ds.count()

    if n_right == 0:
        raise ValueError(
            "auto_join: empty right side — an inner join would be "
            "empty; filter upstream or handle the empty case at the "
            "call site (Ray's hash shuffle breaks on schema-less "
            "empty partitions, the repo-wide empty-anti-side rule)")

    if n_right <= broadcast_rows and join_type != "full_outer":
        # drop empty blocks before the concat: upstream filter/agg
        # stages emit schema-LESS empties (the repo-wide empty-block
        # rule) that make concat_tables raise on schema mismatch
        right_tbl = pa.concat_tables(
            [t for t in (ray.get(r) for r in small_ds.to_arrow_refs())
             if t.num_rows > 0])
        if right_on != on:
            right_tbl = right_tbl.rename_columns(
                [on if c == right_on else c
                 for c in right_tbl.column_names])
        ref = ray.put(right_tbl)   # ships once, read per task

        arrow_jt = {"inner": "inner",
                    "left_outer": "left outer"}[join_type]

        def bcast(batch: pa.Table, ref=ref, jt=arrow_jt) -> pa.Table:
            return batch.join(ray.get(ref), keys=on, join_type=jt)

        out = large_ds.map_batches(bcast, batch_format="pyarrow")
        info = {"strategy": "broadcast", "right_rows": int(n_right)}
        return (out, info) if explain else out

    info = {"strategy": "hash", "right_rows": int(n_right)}
    num_partitions = _nparts_for(large_ds.count())   # pre-prune bound

    if bloom_prune:
        large_ds, info["bloom_bits"] = _bloom_prune(
            large_ds, small_ds, on, right_on, n_right)

    if skew_check and join_type != "full_outer":
        rep = key_skew_report(large_ds.select_columns([on]), on)
        info.update(max_share=rep["max_share"],
                    recommended_salt=rep["recommended_salt"])
        if rep["max_share"] >= skew_share:
            out = salted_join(large_ds, small_ds, on, right_on,
                              n_salts=max(2, rep["recommended_salt"]),
                              num_partitions=num_partitions,
                              join_type=join_type)
            info["strategy"] = "salted"
            return (out, info) if explain else out

    out = large_ds.join(small_ds, join_type=join_type,
                        num_partitions=num_partitions,
                        on=(on,), right_on=(right_on,))
    return (out, info) if explain else out


# ------------------------------------------- bloom-pruned hash join

_BLOOM4_SEEDS = (0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F,
                 0x165667B19E3779F9, 0xD6E8FEB86659FD93)


def _key_hash_u64(col) -> tuple[np.ndarray, np.ndarray]:
    """(hash, valid) for a key column, vectorized and in-run
    deterministic.  The path is chosen by the ARROW type, not the numpy
    dtype — an int64 column with nulls converts to float64+NaN, which
    would silently hash the same value differently on the two join
    sides.  Integers take the splitmix64 finalizer (cross-process
    deterministic); everything else pandas' fixed-key siphash
    (deterministic for one pandas version — fine for a filter built and
    probed within one run).  Null slots carry a hash of the fill
    sentinel; callers must mask them with ``valid``."""
    from .sketches import sample_hash

    if isinstance(col, np.ndarray):
        col = pa.array(col)
    valid = pc.is_valid(col).to_numpy(zero_copy_only=False)
    if pa.types.is_integer(col.type):
        filled = pc.fill_null(col, 0).to_numpy(zero_copy_only=False)
        h = sample_hash(filled.astype(np.int64))
    else:
        # strings, timestamps, dates, floats, binary, ... — hash the
        # raw numpy conversion (siphash handles None/NaT/NaN slots;
        # their hashes are masked out via ``valid`` anyway; pandas'
        # non-string-object fallback goes through astype(str), which
        # stays cross-process deterministic)
        arr = col.to_numpy(zero_copy_only=False)
        h = pd.util.hash_array(arr).astype(np.uint64)
    return h, valid


def _bloom4_build(ds, col: str, log2m: int) -> np.ndarray:
    """Distributed Bloom bitmap over a key column of any hashable type,
    as ONE associative aggregate (bitwise-OR merge tree — no driver
    drain, no pipeline barrier beyond the aggregate itself).  Size is
    caller-chosen (``1 << log2m`` bits); 4 multiplicative hash probes.
    Null keys are never inserted — SQL join semantics never match
    them, so the probe side handles them separately."""
    from ray.data.aggregate import AggregateFn

    nwords = (1 << log2m) // 64
    shift = np.uint64(64 - log2m)

    def acc_block(state: np.ndarray, blk: pa.Table) -> np.ndarray:
        h, valid = _key_hash_u64(blk[col])
        h = h[valid]
        with np.errstate(over="ignore"):
            for seed in _BLOOM4_SEEDS:
                b = (h * np.uint64(seed)) >> shift
                np.bitwise_or.at(
                    state, (b >> np.uint64(6)).astype(np.int64),
                    np.uint64(1) << (b & np.uint64(63)))
        return state

    agg = AggregateFn(init=lambda _: np.zeros(nwords, np.uint64),
                      merge=lambda a, b: a | b,
                      accumulate_block=acc_block,
                      finalize=lambda a: a.tobytes(), name="bloom4")
    return np.frombuffer(ds.aggregate(agg)["bloom4"], np.uint64).copy()


def _bloom4_probe(bm: np.ndarray, log2m: int, col) -> np.ndarray:
    """keep-mask for a key column: True when the key MAY be in the
    filter (false positives possible, false negatives impossible) or
    the key is NULL (the exact join downstream owns null semantics —
    pruning must never change the join's answer)."""
    h, valid = _key_hash_u64(col)
    shift = np.uint64(64 - log2m)
    ok = np.ones(len(h), bool)
    with np.errstate(over="ignore"):
        for seed in _BLOOM4_SEEDS:
            b = (h * np.uint64(seed)) >> shift
            word = bm[(b >> np.uint64(6)).astype(np.int64)]
            ok &= ((word >> (b & np.uint64(63))) & np.uint64(1)) \
                .astype(bool)
    return ok | ~valid


def _bloom_prune(large_ds, small_ds, on: str, right_on: str,
                 n_right: int, bits_per_key: int = 8):
    """Shared prune step: size the bitmap to the right side's key
    count, build it (one aggregate scan of the small side), ship it
    once via ``ray.put``, and return (pruned_large_ds, bloom_bits).
    Used by both ``bloom_pruned_join`` and ``auto_join``."""
    import ray

    log2m = int(np.ceil(np.log2(max(2, n_right * bits_per_key))))
    log2m = min(max(log2m, 16), 30)          # 8 KiB .. 128 MiB bitmap
    bm = _bloom4_build(small_ds.select_columns([right_on]),
                       right_on, log2m)
    ref = ray.put(bm)

    def prune(batch: pa.Table, ref=ref, log2m=log2m) -> pa.Table:
        keep = _bloom4_probe(ray.get(ref), log2m, batch[on])
        return batch if keep.all() else batch.filter(pa.array(keep))

    return (large_ds.map_batches(prune, batch_format="pyarrow"),
            1 << log2m)


def bloom_pruned_join(large_ds, small_ds, on: str,
                      right_on: str | None = None,
                      bits_per_key: int = 8,
                      num_partitions: int | None = None,
                      explain: bool = False):
    """Selective inner hash join: drop large-side rows whose key cannot
    match BEFORE the hash shuffle.  The all-to-all exchange is the cost
    that dominates a 100-TB join; when the right side covers few of the
    left side's keys, most shuffled bytes are discarded by the join
    itself — one Bloom-filter scan of the SMALL side (an OR-merged
    aggregate, driver memory = filter size) plus a vectorized per-batch
    probe on the large side removes them pre-exchange, shrinking
    shuffle volume by the miss rate.

    Correctness is prune-proof by construction: the filter has no false
    negatives (every right-side key probes True) and false positives
    merely ride the shuffle into the exact join, which discards them —
    so the result equals the plain ``Dataset.join`` row-for-row
    (tested, including NULL keys on both sides: null rows are never
    pruned; the exact join owns null semantics).

    ``bits_per_key`` sizes the bitmap (8 bits/key with 4 probes ≈ 2.4%
    FP); the bitmap ships once via ``ray.put`` and is read per task
    from the object store — never re-serialized per batch.  At 10^12
    rows the win case is a dimension of ~10^6-10^8 keys: too big for
    an in-task broadcast join, far smaller than the fact table.

    Measured crossover (same law as repeated_ngrams' two-phase mode):
    on ONE box the exchange moves shared memory, so the extra
    bloom-build aggregate + probe pass LOSES — orders ⋈ BUILDING
    customers at sf0.1/32 (selectivity 0.2) read plain 2.7-3.3 s vs
    bloom 3.9-4.3 s.  The prune pays exactly when shuffle bytes cross
    a network, which is why it is opt-in rather than an auto_join
    default.
    """
    right_on = right_on or on
    n_right = small_ds.count()
    if n_right == 0:
        raise ValueError(
            "bloom_pruned_join: empty right side — an inner join would "
            "be empty; filter upstream or handle the empty case at the "
            "call site")

    if num_partitions is None:
        num_partitions = _nparts_for(large_ds.count())
    pruned, bloom_bits = _bloom_prune(large_ds, small_ds, on, right_on,
                                      n_right, bits_per_key)
    out = pruned.join(small_ds, join_type="inner",
                      num_partitions=num_partitions,
                      on=(on,), right_on=(right_on,))
    info = {"strategy": "bloom+hash", "right_rows": int(n_right),
            "bloom_bits": bloom_bits}
    return (out, info) if explain else out


def explode(ds, list_col: str, id_cols: list,
            ordinal_col: str = "ordinal", value_col: str = "value"):
    """UNNEST WITH ORDINALITY: one output row per list ELEMENT, with
    the id columns repeated and the element's 1-based position.  NULL
    and empty lists produce no rows (SQL unnest semantics).  Map-only
    — no shuffle; the expansion is pure ListArray offset arithmetic
    (np.repeat of the id columns by per-row lengths), never a Python
    loop over elements.

    SQL mirror (DuckDB, which lacks WITH ORDINALITY):
    ``SELECT id..., s.i AS ordinal, list_col[s.i] AS value
    FROM t, unnest(generate_series(1, len(list_col))) AS s(i)``.
    """
    import ray.data  # noqa: F401

    def expand(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table(
                {**{c: batch[c] for c in id_cols},
                 ordinal_col: pa.array([], pa.int64()),
                 value_col: pa.array(
                     [], batch[list_col].type.value_type)})
        la = batch[list_col].combine_chunks()
        # null list rows contribute 0 elements: mask their lengths
        valid = la.is_valid().to_numpy(zero_copy_only=False)
        lengths = np.asarray(pc.list_value_length(la)
                             .fill_null(0).to_pylist(), np.int64)
        lengths = np.where(valid, lengths, 0)
        flat = pc.list_flatten(la)   # skips null lists' slots
        idx = np.repeat(np.arange(len(batch), dtype=np.int64),
                        lengths)
        # 1-based ordinal within each source row
        starts = np.concatenate([[0], np.cumsum(lengths)[:-1]])
        ordinal = (np.arange(int(lengths.sum()), dtype=np.int64)
                   - np.repeat(starts, lengths) + 1)
        cols = {c: batch[c].take(pa.array(idx, pa.int64()))
                for c in id_cols}
        cols[ordinal_col] = pa.array(ordinal, pa.int64())
        cols[value_col] = flat
        return pa.table(cols)

    return ds.map_batches(expand, batch_format="pyarrow")
