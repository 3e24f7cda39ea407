"""Layer tracing from outside the program.

Two sources feed the per-layer metrics of a traced run:

* ``Tracer`` + ``replay``: an in-process replay (no Ray) of the stage
  chain a workload's pipeline runs, with span recorders wrapped around
  module attributes of the program -- ``stages.extract_stage``'s
  ``extract_doc_cols`` / ``extract_span`` and ``kernels.extract``'s
  ``extract_main_text`` / ``clean_lines`` / ``run_ocr`` /
  ``estimate_quality``.  A span records name, start, end and parent;
  spans stay in memory and a layer's self time is its span's duration
  minus the time its child spans cover.
* ``ray_op_metrics``: Ray Data's own per-operator stats summary of the
  Datasets the pipeline wrote (collected in ``session.py``).
"""

from __future__ import annotations

import gc
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import pyarrow as pa
import pyarrow.compute as pc

KERNELS = ("kernels.htmlx", "kernels.cleaner", "kernels.ocr_sim",
           "kernels.quality", "kernels.extract")

# Ray Data operator name fragment -> metric key, first match wins; fused
# operators ("ReadParquet->SplitBlocks(2)") are named by their first
# listed fragment that matches
RAY_OPS = (
    ("ExtractDocs", "ExtractDocs"),
    ("ExtractSpans", "ExtractSpans"),
    ("reassemble", "MapGroups"),
    ("add_reassembly_bucket", "Bucket"),
    ("Sort", "GroupBy"),
    ("Shuffle", "GroupBy"),
    ("Aggregate", "GroupBy"),
    ("Repartition", "Repartition"),
    ("validate_batch", "Validate"),
    ("ReadParquet", "ReadParquet"),
    ("Write", "Write"),
)
RAY_OP_KEYS = tuple(dict.fromkeys(k for _, k in RAY_OPS))
RAY_OP_FIELDS = ("wall_s", "cpu_s", "udf_s", "peak_heap_mib", "rows_out")

# names by source: the in-process replay, the traced Ray session, and
# the two ratios run.py derives from both
REPLAY_NAMES = (
    "kernels.htmlx.self_s", "kernels.htmlx.calls", "kernels.htmlx.mb_in",
    "kernels.cleaner.self_s", "kernels.cleaner.calls",
    "kernels.cleaner.lines_in", "kernels.cleaner.kept_frac",
    "kernels.ocr_sim.self_s", "kernels.ocr_sim.calls",
    "kernels.ocr_sim.retry_frac",
    "kernels.quality.self_s", "kernels.quality.calls",
    "kernels.extract.self_s",
    "stages.validate.self_s", "stages.validate.rejects",
    "stages.extract_stage.self_s", "stages.extract_stage.batches",
    "stages.extract_stage.explode_s", "stages.extract_stage.reassemble_s",
    "stages.extract_stage.reassemble_groups",
    "kernel.docs_per_sec", "trace.overhead_frac", "trace.coverage_frac",
)
SESSION_NAMES = tuple(
    f"ray.op.{k}.{f}" for k in RAY_OP_KEYS for f in RAY_OP_FIELDS) + (
    "ray.spilled_mb",
    "state.checkpoint.run_shard_s.p50", "state.checkpoint.run_shard_s.max",
    "state.checkpoint.shards", "state.checkpoint.fixed_s",
    "pipelines.extract_pipeline.sidecar_s",
)
DERIVED_NAMES = ("ray.floor.docs_per_sec", "pipeline_efficiency")


def per_layer_names() -> tuple[str, ...]:
    return REPLAY_NAMES + SESSION_NAMES + DERIVED_NAMES


class Tracer:
    """In-memory span recorder (single-threaded)."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index]
        self._stack: list[int] = []
        self.counts: Counter = Counter()

    def wrap(self, name, fn, count=None):
        """``fn`` recorded as span ``name``; ``count(tracer, args,
        kwargs, result)`` runs after each call, outside the span."""
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), 0.0,
                               self._stack[-1] if self._stack else -1])
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[idx][2] = time.perf_counter()
            if count is not None:
                count(self, args, kwargs, result)
            return result
        return traced

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _), c in zip(self.spans, child):
            out[name] += (end - start) - c
        return dict(out)

    def calls(self) -> Counter:
        return Counter(s[0] for s in self.spans)

    def top_level_s(self) -> float:
        return sum(e - s for _, s, e, p in self.spans if p < 0)


def _count_html(t, args, kwargs, result):
    t.counts["htmlx.bytes_in"] += len(args[0].encode())


def _count_ocr(t, args, kwargs, result):
    t.counts["ocr.retries" if kwargs.get("force_rotate") else
             "ocr.first"] += 1


def _wrap_cleaner(t, fn):
    def clean(raw, *args, stats=None, **kwargs):
        before = (stats.kept_lines, stats.dropped_lines) if stats else None
        result = traced(raw, *args, stats=stats, **kwargs)
        if stats is not None:
            t.counts["cleaner.kept"] += stats.kept_lines - before[0]
            t.counts["cleaner.lines_in"] += (
                stats.kept_lines + stats.dropped_lines - sum(before))
        return result
    traced = t.wrap("kernels.cleaner", fn)
    return clean


@contextmanager
def kernel_spans(t: Tracer):
    """Wrap the program's kernel entry points with span recorders for
    the duration of the block, and restore them afterwards."""
    import ocr_ray.kernels.extract as kx
    import ocr_ray.stages.extract_stage as xs

    saved = [(kx, n, getattr(kx, n)) for n in
             ("extract_main_text", "clean_lines", "run_ocr",
              "estimate_quality")]
    saved += [(xs, n, getattr(xs, n)) for n in
              ("extract_doc_cols", "extract_span")]
    try:
        kx.extract_main_text = t.wrap("kernels.htmlx", kx.extract_main_text,
                                      _count_html)
        kx.clean_lines = _wrap_cleaner(t, kx.clean_lines)
        kx.run_ocr = t.wrap("kernels.ocr_sim", kx.run_ocr, _count_ocr)
        kx.estimate_quality = t.wrap("kernels.quality", kx.estimate_quality)
        xs.extract_doc_cols = t.wrap("kernels.extract", xs.extract_doc_cols)
        xs.extract_span = t.wrap("kernels.extract", xs.extract_span)
        yield t
    finally:
        for mod, name, fn in saved:
            setattr(mod, name, fn)


def _batches(table: pa.Table, size: int):
    for start in range(0, table.num_rows, size):
        yield table.slice(start, size)


# run_extraction sizes the exploded path's reassembly buckets as
# max(4 x CPUs, docs / 256); at 2 CPUs and these corpus sizes that is 16
REPLAY_BUCKETS = 16


def replay(table: pa.Table, exploded: bool,
           tracer: Tracer | None = None) -> float:
    """Run the pipeline's stage chain over ``table`` in this process and
    return its wall time.  Nested: ``validate_batch`` then
    ``ExtractDocs`` per batch of ``extract_batch_size`` docs.  Exploded:
    validate, ``explode_spans``, ``ExtractSpans`` per span batch,
    ``add_reassembly_bucket`` and ``reassemble_bucket`` per bucket.
    Results are discarded; correctness is the pipeline check's job."""
    from ocr_ray.config import DEFAULT_CONFIG, PipelineConfig
    from ocr_ray.stages.extract_stage import (
        ExtractDocs, ExtractSpans, add_reassembly_bucket, explode_spans,
        reassemble_bucket)
    from ocr_ray.stages.validate import validate_batch

    cfg = (PipelineConfig(pipeline_mode="exploded") if exploded
           else DEFAULT_CONFIG)

    def wrap(name, fn):
        return tracer.wrap(name, fn) if tracer else fn

    def validate(b):
        return validate_batch(b, cfg)

    validate = wrap("stages.validate", validate)
    gc_was_enabled = gc.isenabled()   # the stage actors disable GC
    try:
        t0 = time.perf_counter()
        if not exploded:
            extract = wrap("stages.extract_stage", ExtractDocs(cfg))
            for b in _batches(table, cfg.extract_batch_size):
                extract(validate(b))
            return time.perf_counter() - t0
        explode = wrap("stages.extract_stage.explode", explode_spans)
        extract = wrap("stages.extract_stage", ExtractSpans(cfg))

        def reassemble(tagged):
            keys = pc.unique(tagged["bucket"]).to_pylist()
            return [reassemble_bucket(
                tagged.filter(pc.equal(tagged["bucket"], k)), cfg)
                for k in sorted(keys)]

        reassemble = wrap("stages.extract_stage.reassemble", reassemble)
        bucket = wrap("stages.extract_stage.reassemble",
                      add_reassembly_bucket)
        done = []
        for b in _batches(table, cfg.extract_batch_size):
            v = validate(b)
            spans = explode(v.filter(pc.equal(v["reject_reason"], "")))
            done += [extract(s) for s in _batches(spans, cfg.span_batch_size)
                     if s.num_rows]
        groups = reassemble(bucket(pa.concat_tables(done), REPLAY_BUCKETS))
        if tracer:
            tracer.counts["reassemble_groups"] += len(groups)
        return time.perf_counter() - t0
    finally:
        if gc_was_enabled:
            gc.enable()


REPLAY_PAIRS = 3


def replay_metrics(table: pa.Table, exploded: bool) -> dict[str, float]:
    """Untraced and traced replays of ``table``, alternating, three of
    each: the kernel and stage layer metrics come from the traced replay
    with the median wall, ``kernel.docs_per_sec`` and
    ``trace.overhead_frac`` from the median walls."""
    untraced, traced = [], []
    for _ in range(REPLAY_PAIRS):
        untraced.append(replay(table, exploded))
        t = Tracer()
        with kernel_spans(t):
            traced.append((replay(table, exploded, t), t))
    traced.sort(key=lambda wt: wt[0])
    wall, t = traced[len(traced) // 2]
    base = sorted(untraced)[len(untraced) // 2]
    selfs, calls, n = t.self_times(), t.calls(), t.counts
    m = {f"{k}.self_s": selfs.get(k, 0.0) for k in KERNELS}
    for k in ("kernels.htmlx", "kernels.cleaner", "kernels.ocr_sim",
              "kernels.quality"):
        m[f"{k}.calls"] = calls.get(k, 0)
    m["kernels.htmlx.mb_in"] = n["htmlx.bytes_in"] / 1e6
    m["kernels.cleaner.lines_in"] = n["cleaner.lines_in"]
    m["kernels.cleaner.kept_frac"] = (
        n["cleaner.kept"] / n["cleaner.lines_in"]
        if n["cleaner.lines_in"] else 0.0)
    m["kernels.ocr_sim.retry_frac"] = (
        n["ocr.retries"] / n["ocr.first"] if n["ocr.first"] else 0.0)
    m["stages.validate.self_s"] = selfs.get("stages.validate", 0.0)
    m["stages.validate.rejects"] = table.num_rows - _accepted(table)
    m["stages.extract_stage.self_s"] = selfs.get("stages.extract_stage", 0.0)
    m["stages.extract_stage.batches"] = calls.get("stages.extract_stage", 0)
    m["stages.extract_stage.explode_s"] = selfs.get(
        "stages.extract_stage.explode", 0.0)
    m["stages.extract_stage.reassemble_s"] = selfs.get(
        "stages.extract_stage.reassemble", 0.0)
    m["stages.extract_stage.reassemble_groups"] = n["reassemble_groups"]
    m["kernel.docs_per_sec"] = table.num_rows / base
    m["trace.overhead_frac"] = wall / base - 1.0
    m["trace.coverage_frac"] = t.top_level_s() / wall
    return m


def _accepted(table: pa.Table) -> int:
    from ocr_ray.stages.validate import validate_batch

    v = validate_batch(table)
    return v.filter(pc.equal(v["reject_reason"], "")).num_rows


def ray_op_key(operator_name: str) -> str:
    for fragment, key in RAY_OPS:
        if fragment in operator_name:
            return key
    return "Other"


def ray_op_metrics(summaries) -> dict[str, float]:
    """Per-operator totals over Ray Data ``DatasetStatsSummary`` objects
    (each one walked with its parents)."""
    m = {f"ray.op.{k}.{f}": 0.0 for k in RAY_OP_KEYS for f in RAY_OP_FIELDS}
    spilled = 0
    stack, seen = list(summaries), set()
    while stack:
        s = stack.pop()
        if id(s) in seen:
            continue
        seen.add(id(s))
        stack.extend(s.parents)
        spilled = max(spilled, s.global_bytes_spilled)
        for op in s.operators_stats:
            key = ray_op_key(op.operator_name)
            if key == "Other":
                continue
            p = f"ray.op.{key}."
            m[p + "wall_s"] += op.time_total_s or 0.0
            m[p + "cpu_s"] += (op.cpu_time or {}).get("sum", 0.0)
            m[p + "udf_s"] += (op.udf_time or {}).get("sum", 0.0)
            m[p + "peak_heap_mib"] = max(m[p + "peak_heap_mib"],
                                         (op.memory or {}).get("max", 0.0))
            m[p + "rows_out"] += (op.output_num_rows or {}).get("sum", 0)
    m["ray.spilled_mb"] = spilled / 1e6
    return m
