"""Size-bucketed corpus layout — the scale-path answer to mixed corpora.

BASELINE.md records that Ray's UnionOperator does not overlap branch
execution, so an in-pipeline small/big split (a union of a nested and an
exploded branch) pays ~2x wall.  The right move at scale is to make the
split a property of the STORAGE LAYOUT: one cheap pass partitions the
corpus by span count via a ``partition_cols`` write (each task routes
its rows; no shuffle), then
the nested job runs over ``size_bucket=small`` and the exploded job over
``size_bucket=big`` — two single-lineage jobs, each with the physical
strategy that fits its data.

    bucketize_corpus(input, bucketed_dir, threshold)
      -> {bucketed_dir}/size_bucket=small/...
         {bucketed_dir}/size_bucket=big/...

    run_bucketed_extraction(bucketed_dir, output_dir)
      -> nested job over small + exploded job over big, one output tree
"""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.compute as pc

from ..config import DEFAULT_CONFIG, PipelineConfig

# small/big split point: docs with more spans go to the exploded job.
# Tuned to per-span COST, not count: at ~0.6 ms/span (simulated OCR) a
# 1000-span doc is 0.6 s of work — not a straggler; with real Tesseract
# (~s/page) drop this to ~32.
EXPLODE_THRESHOLD = 1000


def bucketize_corpus(input_path: str, bucketed_dir: str,
                     threshold: int = EXPLODE_THRESHOLD,
                     cfg: PipelineConfig = DEFAULT_CONFIG) -> dict:
    """One streaming pass: annotate span counts, route rows to hive
    partitions by size. No shuffle — every task writes its own rows into
    the matching partition directory.  ``threshold`` must not exceed
    ``cfg.max_spans_per_doc`` (a bigger doc is rejected anyway); that is
    checked before anything is written or removed."""
    if threshold > cfg.max_spans_per_doc:
        raise ValueError(f"explode threshold {threshold} must be <= "
                         f"max_spans_per_doc {cfg.max_spans_per_doc}")

    import shutil

    from ..sources.readers import read_documents

    # fresh-run semantics: write_parquet APPENDS by default, so a rerun
    # over an existing layout would silently duplicate every document
    # (observed 3x counts) — clear first.  Resumable execution is the
    # CheckpointedRunner's job, not this one-pass layout step's.
    shutil.rmtree(bucketed_dir, ignore_errors=True)

    def tag(batch: pa.Table, thr=threshold) -> pa.Table:
        n = pc.list_value_length(batch.column("spans")).combine_chunks()
        n = pc.fill_null(n, 0)
        bucket = pc.if_else(pc.greater(n, thr),
                            pa.scalar("big"), pa.scalar("small"))
        return batch.append_column("size_bucket", bucket)

    ds = read_documents(input_path).map_batches(tag, batch_format="pyarrow")
    ds.write_parquet(bucketed_dir, partition_cols=["size_bucket"])

    import pyarrow.dataset as pads

    counts = {}
    for b in ("small", "big"):
        d = os.path.join(bucketed_dir, f"size_bucket={b}")
        counts[b] = pads.dataset(d).count_rows() if os.path.isdir(d) else 0
    return counts


def run_bucketed_extraction(bucketed_dir: str, output_dir: str,
                            cfg: PipelineConfig = DEFAULT_CONFIG) -> dict:
    """Nested job over the small bucket, exploded job over the big bucket
    (skipped when a bucket is empty); both write into one output tree."""
    from dataclasses import replace

    from .extract_pipeline import run_extraction

    import shutil

    summaries = {}
    small_dir = os.path.join(bucketed_dir, "size_bucket=small")
    big_dir = os.path.join(bucketed_dir, "size_bucket=big")
    for sub in ("small", "big"):  # fresh-run semantics, see bucketize_corpus
        shutil.rmtree(os.path.join(output_dir, sub), ignore_errors=True)

    if os.path.isdir(small_dir):
        summaries["small"] = run_extraction(
            small_dir, os.path.join(output_dir, "small"),
            replace(cfg, pipeline_mode="nested"))
    if os.path.isdir(big_dir):
        summaries["big"] = run_extraction(
            big_dir, os.path.join(output_dir, "big"),
            replace(cfg, pipeline_mode="exploded"))

    return {
        "extracted": sum(s["extracted"] for s in summaries.values()),
        "failed": sum(s["failed"] for s in summaries.values()),
        "buckets": summaries,
        "output_dir": output_dir,
    }
