"""Typed pipeline configuration.

The reference configures itself through environment variables
(/root/reference/app/config.py:9-43); here the same knobs are a frozen
dataclass that is cheap to ship to every Ray task / actor.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class PipelineConfig:
    # --- validation (analog of MAX_NUM_PAGES rejection, ocr_worker.py:161-167)
    max_spans_per_doc: int = 4000

    # --- cleaning thresholds (text_processing.py:76-84 defaults)
    min_line_length: int = 10
    percent_max_numeric: float = 0.7
    percent_max_non_ascii: float = 0.40

    # --- quality gate (app/config.py:17 MIN_QUALITY; ocr_worker.py:214-222)
    min_quality: float = 77.0

    # --- per-span straggler bound (tesseract-timeout analog,
    # ocr_service.py:40-41: 600 s/page). The simulated engine cannot
    # hang, so the enforceable contract here is a soft deadline: when the
    # first OCR pass has already consumed the budget, the force-rotate
    # retry is skipped (the doc ships with its first-pass text), bounding
    # worst-case per-span work at ~2x the budget for real engines.
    span_soft_timeout_ms: float = 600_000.0

    # --- physical strategy (one lineage per job either way):
    # "nested"   (default) docs stay whole rows; right when per-doc work
    #            is bounded (max_spans_per_doc caps it, the MAX_NUM_PAGES
    #            analog) — zero shuffle.
    # "exploded" EVERY doc -> span rows -> span extract -> bucketed
    #            reassembly; right when per-span work is heavy (real OCR
    #            at seconds/page) so one doc must spread across the
    #            cluster.
    # A corpus mixing both kinds is pre-bucketed by size and run as one
    # job of each (pipelines/bucketize.py, run_job.py --mode auto).
    pipeline_mode: str = "nested"
    # small/big split point of that bucketing. Tuned to per-span COST,
    # not count: at ~0.6 ms/span (simulated OCR) a 1000-span doc is 0.6 s
    # of work — not a straggler; with real Tesseract (~s/page) drop this
    # to ~32.
    explode_threshold: int = 1000

    # --- Ray execution knobs
    # docs per ExtractDocs call (nested path); swept 32/64/128/256 at 32 CPUs:
    # 128 best (12.5s vs 13.7 at 64, 16.4 at 256 — tail skew from mega
    # docs dominates above that)
    extract_batch_size: int = 128
    # spans per call in the in-process trace replay (perfbench/trace.py);
    # the exploded pipeline hands ExtractSpans whole blocks
    # (batch_size=None), so this does not affect the pipeline
    span_batch_size: int = 256
    # exploded-path reassembly bucket count (None = cluster-sized
    # default, ~4x CPUs).  A bucket's group holds ~n_docs/buckets docs'
    # span rows, so for LARGE full-corpus exploded runs this must scale
    # with the data to bound per-task memory: run_extraction sizes it
    # automatically from the input's (metadata-cheap) row count; other
    # entry points can set it explicitly.
    reassembly_buckets: int | None = None

    def __post_init__(self):
        if self.pipeline_mode not in ("nested", "exploded"):
            raise ValueError(f"unknown pipeline_mode {self.pipeline_mode!r}"
                             " (expected 'nested' or 'exploded')")
        if self.explode_threshold > self.max_spans_per_doc:
            raise ValueError("explode_threshold must be <= max_spans_per_doc")


DEFAULT_CONFIG = PipelineConfig()
