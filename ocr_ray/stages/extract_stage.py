"""Extraction stages — the heavy compute of the pipeline.

Two physical strategies over the same kernel (SURVEY.md §7.4):

* **nested path** (default, no shuffle): documents stay one-row-per-doc;
  ``ExtractDocs`` runs the kernel's ``extract_doc_cols`` (validate ->
  extract -> ``doc_metrics``) over batches of docs.  Order is free
  because each row carries its whole span list.
* **exploded path** (skew/mega docs): ``validate_batch`` tags rejects,
  spans become rows, processed by ``ExtractSpans`` one span at a time
  (so a 900-span mega doc parallelizes across the cluster instead of
  stalling one worker — the Ray answer to the reference's page-level
  ``--jobs`` fan-out, ocr_service.py:37-39), then ONE ``groupby(bucket)``
  shuffle and ``reassemble_bucket`` rebuild ordered span lists and roll
  each doc up with the same ``doc_metrics``.

Both paths emit the same ``RESULT_SCHEMA`` rows: (doc_id, spans) + flat
per-doc metric columns, bit for bit the golden extractor's values,
because one rollup over the spans in offset order computes them.

The stages are stateless callables: the pipeline hands Ray Data an
instance, which runs as plain tasks on Ray's pooled (warm) workers and
fuses with the task operators around it.  What the reference kept as
module-global singletons (doc_analysis.py:25-49, ocr_evaluation.py:13-38)
is per-process here too: ``vocabulary()`` is an ``lru_cache`` and the
regexes compile at import, so a task rebuilds nothing per batch.
"""

from __future__ import annotations

import functools
import gc
import time

import pyarrow as pa
import pyarrow.compute as pc

from ..config import DEFAULT_CONFIG, PipelineConfig
from ..kernels.cleaner import CleanStats
from ..kernels.extract import (
    count_entities,
    doc_metrics,
    extract_doc_cols,
    extract_span,
)
from ..schema import METRICS_FIELDS, SPANS_TYPE

# (doc_id, spans) + per-doc metrics + reject_reason ('' = extracted OK),
# identical on every physical path.  Carrying rejects as rows (instead of
# a second validate pass) keeps the pipeline single-lineage — the Ray
# analog of the reference marking docs ocr_failed in place
# (ocr_worker.py:322-330).
RESULT_SCHEMA = pa.schema(
    [("doc_id", pa.string()), ("spans", SPANS_TYPE)]
    + [(n, t) for n, t in METRICS_FIELDS if n != "doc_id"]
    + [("reject_reason", pa.string()), ("proc_ms", pa.float64())]
)

_ZERO_METRICS = {
    "n_spans": 0, "media_spans": 0, "blocks_kept": 0, "blocks_dropped": 0,
    "clean_chars": 0, "original_chars": 0, "min_length_lines": 0,
    "forbidden_lines": 0, "low_alpha_lines": 0, "high_digit_lines": 0,
    "non_ascii_lines": 0, "num_ents": 0, "quality_mean": -1.0,
    "retried_spans": 0, "conf_hist": [],
}

# per-span CleanStats counters the exploded path carries to reassembly:
# the ones doc_metrics reads
_SPAN_STATS = ("kept_lines", "min_length_lines", "forbidden_lines",
               "low_alpha_lines", "high_digit_lines", "non_ascii_lines",
               "total_clean_chars", "total_original_chars")

# intermediate schema of the exploded path
SPAN_RESULT_SCHEMA = pa.schema(
    [("doc_id", pa.string()),
     ("kind", pa.string()),
     ("text", pa.string()),
     ("media_ref", pa.string()),
     ("offset", pa.int32()),
     ("quality", pa.float64()),
     ("retried", pa.int64()),
     ("confs", pa.list_(pa.float64()))]
    + [(f, pa.int64()) for f in _SPAN_STATS]
    + [("num_ents", pa.int64()),
       ("span_ms", pa.float64()),
       ("reject_reason", pa.string())])

# ExtractSpans passes a rejected doc's sentinel row through with these
# and zero line stats, without calling the kernel
_NO_SPAN = {"quality": 0.0, "retried": False, "confs": []}

_METRIC_KEYS = [n for n, _ in METRICS_FIELDS if n != "doc_id"]


def _result_table(doc_ids: list, spans: pa.Array, metrics: list[dict],
                  reasons: list[str], proc_ms: list[float]) -> pa.Table:
    """RESULT_SCHEMA table from per-doc lists and the docs' spans."""
    cols = {"doc_id": doc_ids, "reject_reason": reasons, "proc_ms": proc_ms,
            **{k: [m[k] for m in metrics] for k in _METRIC_KEYS}}
    return pa.Table.from_arrays(
        [spans if f.name == "spans" else pa.array(cols[f.name], f.type)
         for f in RESULT_SCHEMA], schema=RESULT_SCHEMA)


def _gc_paused(call):
    """Run ``call`` with the cyclic GC off, restoring the caller's state.

    The kernel churns millions of short-lived acyclic objects per batch;
    the cyclic GC's scans serialize badly across 32 procs (measured +11%
    at 32 CPUs with it off).  The pause lasts one batch, so the process
    running the stage (a pooled Ray worker, a test, the trace replay)
    collects cycles as usual between batches."""

    @functools.wraps(call)
    def paused(self, batch):
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            return call(self, batch)
        finally:
            if was_enabled:
                gc.enable()

    return paused


class ExtractDocs:
    """Batch callable for the nested path (whole docs per row).

    Validation happens once, in the kernel: a doc ``extract_doc_cols``
    rejects becomes a zero-metric row carrying its reason — nothing is
    dropped.  Columns other than doc_id and spans are ignored."""

    def __init__(self, cfg: PipelineConfig = DEFAULT_CONFIG):
        self.cfg = cfg

    @_gc_paused
    def __call__(self, batch: pa.Table) -> pa.Table:
        import numpy as np

        # Arrow-native span walk (round-4 VERDICT What's-wrong #3): the
        # old per-row to_pylist built one dict PER SPAN on the hottest
        # path in the engine.  Four flat child to_pylist calls (cheap
        # primitive conversions) + a ListArray offsets walk hand the
        # kernel parallel field slices instead; a null list row yields a
        # zero-length slice, which the cols validator rejects as
        # empty_document exactly like the old dict path.
        doc_ids = batch["doc_id"].to_pylist()
        spans_col = batch["spans"]
        if isinstance(spans_col, pa.ChunkedArray):
            spans_col = spans_col.combine_chunks()
        off = spans_col.offsets.to_numpy(zero_copy_only=False)
        vals = spans_col.values
        f_kind = vals.field("kind").to_pylist()
        f_text = vals.field("text").to_pylist()
        f_ref = vals.field("media_ref").to_pylist()
        f_off = vals.field("offset").to_pylist()

        # columnar accumulation: flat span-field lists + per-doc lengths
        # become ONE ListArray at the end (no per-span result dicts)
        out_k: list = []
        out_t: list = []
        out_r: list = []
        out_o: list = []
        lengths: list[int] = []
        metrics: list[dict] = []
        reasons: list[str] = []
        proc_ms: list[float] = []
        for i, doc_id in enumerate(doc_ids):
            lo, hi = off[i], off[i + 1]
            t0 = time.monotonic()
            res = extract_doc_cols(doc_id, f_kind[lo:hi], f_text[lo:hi],
                                   f_ref[lo:hi], f_off[lo:hi], self.cfg)
            proc_ms.append(round((time.monotonic() - t0) * 1000.0, 3))
            if res["ok"]:
                out_k.extend(res["kinds"])
                out_t.extend(res["texts"])
                out_r.extend(res["refs"])
                out_o.extend(res["offsets"])
                lengths.append(len(res["kinds"]))
                metrics.append(res["metrics"])
                reasons.append("")
            else:
                lengths.append(0)
                metrics.append(_ZERO_METRICS)
                reasons.append(res["reason"])

        st = SPANS_TYPE.value_type
        struct = pa.StructArray.from_arrays(
            [pa.array(out_k, st.field("kind").type),
             pa.array(out_t, st.field("text").type),
             pa.array(out_r, st.field("media_ref").type),
             pa.array(out_o, st.field("offset").type)],
            names=["kind", "text", "media_ref", "offset"])
        list_offs = pa.array(
            np.concatenate(([0], np.cumsum(lengths))).astype(np.int32))
        return _result_table(doc_ids, pa.ListArray.from_arrays(
            list_offs, struct), metrics, reasons, proc_ms)


def explode_spans(batch: pa.Table) -> pa.Table:
    """Zero-copy-ish flatten of a validated batch: one row per span,
    doc_id repeated via list_parent_indices (pyarrow kernels, no Python
    loop).  A rejected doc becomes ONE sentinel row with null span fields
    and its reject_reason, so an over-cap monster costs one row."""
    rejected = pc.not_equal(batch.column("reject_reason"), "")
    sentinels = batch.filter(rejected)
    if sentinels.num_rows:
        batch = batch.filter(pc.invert(rejected))
    spans = batch.column("spans").combine_chunks()
    flat = pc.list_flatten(spans)
    doc_ids = pc.take(batch.column("doc_id"), pc.list_parent_indices(spans))
    names = ["doc_id", "kind", "text", "media_ref", "offset",
             "reject_reason"]
    out = pa.Table.from_arrays(
        [doc_ids, flat.field("kind"), flat.field("text"),
         flat.field("media_ref"), flat.field("offset"),
         pa.repeat("", len(flat))], names=names)
    if not sentinels.num_rows:
        return out
    return pa.concat_tables([out, pa.Table.from_arrays(
        [sentinels.column("doc_id")]
        + [pa.nulls(sentinels.num_rows, out.schema.field(n).type)
           for n in names[1:5]]
        + [sentinels.column("reject_reason")], names=names)])


class ExtractSpans:
    """Batch callable for the exploded path (one span per row)."""

    def __init__(self, cfg: PipelineConfig = DEFAULT_CONFIG):
        self.cfg = cfg

    @_gc_paused
    def __call__(self, batch: pa.Table) -> pa.Table:
        # columnar in / columnar out: the kernel is per-span Python by
        # nature, but the batch assembly need not be row dicts +
        # from_pylist type re-inference (mirrors the nested-path
        # ExtractDocs rewrite; measurable on the exploded hot path)
        kinds = batch["kind"].to_pylist()
        texts = batch["text"].to_pylist()
        media_refs = batch["media_ref"].to_pylist()
        reasons = batch["reject_reason"].to_pylist()
        passthrough = ("doc_id", "kind", "media_ref", "offset",
                       "reject_reason")
        cols: dict[str, list] = {n: [] for n in SPAN_RESULT_SCHEMA.names
                                 if n not in passthrough}
        for kind, text, media_ref, reason in zip(kinds, texts, media_refs,
                                                 reasons):
            st = CleanStats()
            t0 = time.monotonic()
            cleaned, meta = ("", _NO_SPAN) if reason else extract_span(
                kind, text, media_ref, self.cfg, stats=st)
            cols["span_ms"].append((time.monotonic() - t0) * 1000.0)
            cols["text"].append(cleaned)
            cols["quality"].append(meta["quality"])
            cols["retried"].append(int(meta["retried"]))
            cols["confs"].append(meta["confs"])
            for f in _SPAN_STATS:
                cols[f].append(getattr(st, f))
            cols["num_ents"].append(count_entities(cleaned))
        arrays = [batch[f.name] if f.name in passthrough
                  else pa.array(cols[f.name], type=f.type)
                  for f in SPAN_RESULT_SCHEMA]
        return pa.Table.from_arrays(arrays, schema=SPAN_RESULT_SCHEMA)


def add_reassembly_bucket(batch: pa.Table, n_buckets: int = 64) -> pa.Table:
    """Tag each span row with hash(doc_id) % n_buckets so reassembly can
    group ONCE per bucket instead of once per document: 24k per-doc
    map_groups invocations (each building a 1-row table) dominated the
    exploded path's reassembly cost (round-2 VERDICT #9); bucketing
    amortizes the per-group machinery over ~hundreds of docs while the
    shuffle still distributes spans evenly.  crc32 is deterministic
    across processes (unlike Python's salted str hash)."""
    import zlib

    b = [zlib.crc32(d.encode()) % n_buckets
         for d in batch["doc_id"].to_pylist()]
    return batch.append_column("bucket", pa.array(b, pa.int64()))


def reassemble_bucket(group: pa.Table,
                      cfg: PipelineConfig = DEFAULT_CONFIG) -> pa.Table:
    """Rebuild every document in one bucket: the RESULT_SCHEMA rows
    ``ExtractDocs`` emits for the same docs.

    Sort by (doc_id, offset) once; span lists become ONE ListArray built
    from the per-doc boundary offsets (no per-span dicts).  Each doc's
    ``CleanStats`` and entity count are ``np.add.reduceat`` sums of the
    per-span columns (integer, order-free); the kernel's ``doc_metrics``
    then rolls the doc up over its spans in offset order, exactly as the
    nested path does.  A rejected doc's sentinel row becomes the
    zero-metric row ``ExtractDocs`` emits for it.
    """
    import numpy as np

    rejected = pc.not_equal(group["reject_reason"], "")
    sentinels = group.filter(rejected)
    g = group.filter(pc.invert(rejected)).sort_by(
        [("doc_id", "ascending"), ("offset", "ascending")])
    n = g.num_rows
    doc_np = np.asarray(g["doc_id"].to_pylist(), dtype=object)
    starts = np.flatnonzero(np.concatenate(
        ([n > 0], doc_np[1:] != doc_np[:-1])))
    bounds = np.append(starts, n)

    def rseg(col):
        return np.add.reduceat(g[col].to_numpy(), starts).tolist()

    kinds, quals, retried = (
        g[c].to_pylist() for c in ("kind", "quality", "retried"))
    # each doc's flat confidences: one numpy slice at its list offsets
    confs = g["confs"].combine_chunks()
    conf_flat = pc.list_flatten(confs).to_numpy()
    conf_off = confs.offsets.to_numpy()
    conf_off = (conf_off - conf_off[0])[bounds].tolist()
    stats = zip(*(rseg(f) for f in _SPAN_STATS))
    metrics = [
        doc_metrics(kinds[s:e], quals[s:e], retried[s:e], conf_flat[cs:ce],
                    CleanStats(**dict(zip(_SPAN_STATS, st))), ents)
        for s, e, cs, ce, st, ents in zip(
            bounds[:-1].tolist(), bounds[1:].tolist(), conf_off[:-1],
            conf_off[1:], stats, rseg("num_ents"))]

    # rejected docs follow, each with an empty span list (the last
    # boundary repeated)
    n_rej = sentinels.num_rows
    struct = pa.StructArray.from_arrays(
        [g[c].combine_chunks() for c in ("kind", "text", "media_ref",
                                         "offset")],
        names=["kind", "text", "media_ref", "offset"])
    spans = pa.ListArray.from_arrays(
        pa.array(np.append(bounds, [n] * n_rej), pa.int32()), struct)
    doc_ids = doc_np[starts].tolist() + sentinels["doc_id"].to_pylist()
    reasons = [""] * len(metrics) + sentinels["reject_reason"].to_pylist()
    proc_ms = [round(ms, 3) for ms in rseg("span_ms")] + [0.0] * n_rej
    return _result_table(doc_ids, spans, metrics + [_ZERO_METRICS] * n_rej,
                         reasons, proc_ms)
