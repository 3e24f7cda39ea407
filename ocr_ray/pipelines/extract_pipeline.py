"""The flagship extraction pipeline.

    read -> validate -> { nested extract | explode -> span extract ->
    groupby(bucket) reassemble } -> write

Physical notes (SURVEY.md §4):

* the extract stages run as Ray Data tasks, not actor pools: each is a
  stateless callable instance (stages/extract_stage.py), so it runs on
  Ray's pooled, already-warm workers, holds no CPU while idle and fuses
  with its neighbours — ``MapBatches(ExtractDocs)->Write`` (nested) and
  ``MapBatches(ExtractSpans)->MapBatches(add_reassembly_bucket)``
  (exploded).  An actor pool would start fresh processes on every
  Dataset execution (each checkpoint shard, each call) and would have to
  be sized against the read tasks that feed it.
* each job runs ONE lineage: ``pipeline_mode`` picks nested (docs stay
  whole rows) or exploded (every doc becomes span rows).  A corpus that
  mixes small docs with monsters is pre-bucketed by size and run as one
  job of each (pipelines/bucketize.py) — never a union of two branches
  in one execution.
* the ONLY all-to-all shuffle is the exploded path's reassembly
  ``groupby`` — per-span rows distribute evenly, which IS the skew
  mitigation: a 900-span doc becomes 900 independent rows.
* no stage materializes the dataset; output is streamed to partitioned
  parquet.  Failed docs are routed to a sidecar table, not dropped
  (reference marks them ocr_failed, ocr_worker.py:322-330).
"""

from __future__ import annotations

from ..config import DEFAULT_CONFIG, PipelineConfig
from ..sources.readers import read_documents
from ..stages.extract_stage import (
    ExtractDocs,
    ExtractSpans,
    add_reassembly_bucket,
    explode_spans,
    reassemble_bucket,
)
from ..stages.validate import validate_batch


def _cluster_cpus() -> int:
    import ray

    return int(ray.cluster_resources().get("CPU", 8))


def _pool_and_blocks(cfg: PipelineConfig) -> tuple[tuple, int]:
    """Return ``(pool, nblocks)`` sized from the cluster.

    The pipeline reads only ``nblocks``: the exploded path splits its
    span rows into ~4x CPUs blocks before ``ExtractSpans`` so every CPU
    has work from the first scheduling tick, and run_extraction never
    sizes the reassembly buckets below it.  ``pool`` is a (min, max)
    actor-pool shape (about 2/3 of the CPUs, leaving >=2 for read and
    write tasks) that only the benchmark's identity floor still uses.
    """
    total = _cluster_cpus()
    floor = max(1, min(total - 2, max(2, total * 2 // 3)))
    return (floor, max(total, 2)), max(16, total * 4)


def _nested_branch(ok, cfg: PipelineConfig):
    # no repartition barrier: read-fragment granularity + batch_size
    # slicing feed the tasks evenly (measured equal to an explicit
    # repartition at 12k docs, minus the barrier)
    return ok.map_batches(
        ExtractDocs(cfg),
        batch_format="pyarrow",
        batch_size=cfg.extract_batch_size,
        zero_copy_batch=True,  # fns never mutate input; ~13% at 32 CPUs
    )


def _exploded_branch(ok, cfg: PipelineConfig, nblocks):
    return (
        ok.map_batches(explode_spans, batch_format="pyarrow",
                       zero_copy_batch=True)
        .repartition(nblocks)  # a monster doc arrives as ONE huge block;
                               # this spreads its spans across the cluster
        .map_batches(
            ExtractSpans(cfg),
            batch_format="pyarrow",
            batch_size=None,
            zero_copy_batch=True,
        )
        # bucketized reassembly: ONE group per hash bucket (not per doc)
        # amortizes the per-group machinery over ~hundreds of docs; the
        # groupby(bucket) shuffle moves the same span rows the per-doc
        # groupby did.  Bucket count must scale with the DATA (a fixed
        # cluster-sized count makes group size grow with the corpus):
        # run_extraction sizes cfg.reassembly_buckets from the input's
        # metadata row count; the cluster-sized value only backstops
        # entry points that cannot count cheaply.
        .map_batches(add_reassembly_bucket, batch_format="pyarrow",
                     fn_kwargs={"n_buckets":
                                cfg.reassembly_buckets or nblocks},
                     zero_copy_batch=True)
        # NOTE: Ray's sort-based groupby logs a benign "new schema: ."
        # warning when a sort partition holds no groups (it emits a
        # zero-column empty block internally); every shuffle INPUT
        # block here is verified non-empty and fully typed
        .groupby("bucket")
        .map_groups(
            reassemble_bucket, batch_format="pyarrow", fn_kwargs={"cfg": cfg})
    )


def build_extracted(ds, cfg: PipelineConfig = DEFAULT_CONFIG):
    """Lazy Dataset of extraction results (RESULT_SCHEMA rows: doc_id,
    spans, per-doc metric columns) for the valid documents of ``ds``.

    Physical strategy per cfg.pipeline_mode (see config.py), one
    lineage either way.
    """
    if cfg.pipeline_mode == "nested":
        # single lineage, validation fused INSIDE the extract stage
        # (ExtractDocs.__call__): read -> extract, no intermediate
        # materialization; rejected rows flow through as zero-metric rows
        # with reject_reason set — no second pass
        return _nested_branch(ds, cfg)

    validated = ds.map_batches(
        validate_batch, batch_format="pyarrow", fn_kwargs={"cfg": cfg})
    ok = validated.filter(expr="reject_reason == ''")
    return _exploded_branch(ok, cfg, _pool_and_blocks(cfg)[1])


def build_failed(ds, cfg: PipelineConfig = DEFAULT_CONFIG):
    """Lazy Dataset of (doc_id, reason) rejection rows."""
    return (
        ds.map_batches(validate_batch, batch_format="pyarrow", fn_kwargs={"cfg": cfg})
        .filter(expr="reject_reason != ''")
        .select_columns(["doc_id", "reject_reason"])
        .rename_columns({"reject_reason": "reason"})
    )


def derive_failed_sidecar(extracted_dir: str, failed_dir: str) -> int:
    """Project the (tiny) failed rows out of a written extracted dataset
    into the ``failed`` sidecar — a column-pruned, STREAMING read-back
    of (doc_id, reject_reason) only, no recompute.  The round-2 version
    pulled the full doc_id column onto the driver via ``to_table``; at
    the 10^12-doc target that alone is terabytes.  Filtering happens
    per record batch with O(batch) driver memory."""
    import os

    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    from ..schema import FAILED_SCHEMA

    os.makedirs(failed_dir, exist_ok=True)
    n = 0
    frag = pads.dataset(extracted_dir)
    with pq.ParquetWriter(os.path.join(failed_dir, "failed.parquet"),
                          FAILED_SCHEMA) as w:
        if frag.files:
            for b in frag.to_batches(columns=["doc_id", "reject_reason"],
                                     batch_size=65536):
                mask = pc.not_equal(b.column("reject_reason"), "")
                sel = pa.Table.from_batches([b]).filter(mask)
                if sel.num_rows:
                    w.write_table(pa.Table.from_arrays(
                        [sel["doc_id"], sel["reject_reason"]],
                        schema=FAILED_SCHEMA))
                    n += sel.num_rows
        if n == 0:  # always leave a typed (possibly empty) sidecar file
            w.write_table(pa.Table.from_pylist([], schema=FAILED_SCHEMA))
    return n


def write_extraction(ds, output_dir: str,
                     cfg: PipelineConfig = DEFAULT_CONFIG) -> dict:
    """Write the extraction of ``ds`` and its sidecar:

        {output_dir}/extracted/   RESULT_SCHEMA rows; reject_reason == ''
                                  marks successfully extracted docs (nested
                                  mode carries rejected docs inline as
                                  zero-metric rows — single execution)
        {output_dir}/failed/      doc_id, reason sidecar

    Nested mode projects the sidecar out of the written output; exploded
    mode drops rejects before extraction, so it rebuilds the sidecar
    from the input.  Both directories exist afterwards even when empty
    (an empty dataset writes no files).  Returns the counts
    ``{"extracted": ok docs, "failed": rejected docs}``.
    """
    import os

    import pyarrow.compute as pc
    import pyarrow.dataset as pads

    extracted, failed = f"{output_dir}/extracted", f"{output_dir}/failed"
    os.makedirs(extracted, exist_ok=True)
    build_extracted(ds, cfg).write_parquet(extracted)

    if cfg.pipeline_mode == "nested":
        n_failed = derive_failed_sidecar(extracted, failed)
    else:
        os.makedirs(failed, exist_ok=True)
        build_failed(ds, cfg).write_parquet(failed)
        frag = pads.dataset(failed)
        n_failed = frag.count_rows() if frag.files else 0

    frag = pads.dataset(extracted)
    if frag.files:  # empty when every doc was rejected (e.g. a bucket of
        # only over-cap monsters) — write_parquet emits no files then
        reasons = frag.to_table(columns=["reject_reason"])
        n_ok = reasons.filter(
            pc.equal(reasons["reject_reason"], "")).num_rows
    else:
        n_ok = 0
    return {"extracted": n_ok, "failed": n_failed}


# docs per reassembly bucket when run_extraction sizes the exploded
# path's bucket count from the input's row count
REASSEMBLY_DOCS_PER_BUCKET = 256


def run_extraction(
    input_path: str,
    output_dir: str,
    cfg: PipelineConfig = DEFAULT_CONFIG,
) -> dict:
    """Execute the pipeline end to end into ``output_dir`` (layout in
    write_extraction) and return the summary counts.  For the resumable
    sharded runner see ocr_ray.state.checkpoint.CheckpointedRunner.
    """
    import shutil

    ds = read_documents(input_path)
    if cfg.pipeline_mode == "exploded" and cfg.reassembly_buckets is None:
        # size reassembly buckets from the data: count() on an
        # untransformed file read is parquet-metadata-only (no scan)
        from dataclasses import replace as _replace

        est_docs = ds.count()
        cfg = _replace(cfg, reassembly_buckets=int(max(
            _pool_and_blocks(cfg)[1],
            -(-est_docs // REASSEMBLY_DOCS_PER_BUCKET))))
    # fresh-run semantics: write_parquet APPENDS into existing dirs, so a
    # rerun would silently duplicate docs; resumability lives in the
    # CheckpointedRunner (atomic shard publish), not here
    shutil.rmtree(f"{output_dir}/extracted", ignore_errors=True)
    shutil.rmtree(f"{output_dir}/failed", ignore_errors=True)
    return {**write_extraction(ds, output_dir, cfg),
            "output_dir": output_dir}
