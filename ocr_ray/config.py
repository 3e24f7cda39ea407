"""Typed pipeline configuration.

The reference configures itself through environment variables
(app/config.py:9-43).  Here a frozen dataclass, cheap to ship to every
Ray task, holds only the settings a caller sets (``run_job.py``, the
benchmark) or the benchmark reads.  The reference's fixed thresholds are
constants of the module that applies them: ``cleaner.MIN_LINE_LENGTH``,
``PERCENT_MAX_NUMERIC`` and ``PERCENT_MAX_NON_ASCII``,
``quality.MIN_QUALITY``, ``htmlx.MAX_LINK_DENSITY`` and
``bucketize.EXPLODE_THRESHOLD``.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class PipelineConfig:
    # --- validation (analog of MAX_NUM_PAGES rejection, ocr_worker.py:161-167)
    max_spans_per_doc: int = 4000

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
    #            reassembly (bucket count sized from the data); right
    #            when per-span work is heavy (real OCR at seconds/page)
    #            so one doc must spread across the cluster.
    # A corpus mixing both kinds is pre-bucketed by size and run as one
    # job of each (pipelines/bucketize.py, run_job.py --mode auto).
    pipeline_mode: str = "nested"

    # --- Ray execution knobs
    # docs per ExtractDocs call (nested path); swept 32/64/128/256 at 32 CPUs:
    # 128 best (12.5s vs 13.7 at 64, 16.4 at 256 — tail skew from mega
    # docs dominates above that)
    extract_batch_size: int = 128
    # spans per call in the in-process trace replay (perfbench/trace.py);
    # the exploded pipeline hands ExtractSpans whole blocks
    # (batch_size=None), so this does not affect the pipeline
    span_batch_size: int = 256

    def __post_init__(self):
        if self.pipeline_mode not in ("nested", "exploded"):
            raise ValueError(f"unknown pipeline_mode {self.pipeline_mode!r}"
                             " (expected 'nested' or 'exploded')")


DEFAULT_CONFIG = PipelineConfig()
