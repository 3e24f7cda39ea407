"""The flagship extraction pipeline.

    read -> validate -> { nested extract | explode -> span extract ->
    groupby(bucket) reassemble } -> write -> account

Physical notes (SURVEY.md §4):

* the extract stages run as Ray Data tasks, not actor pools: each is a
  stateless callable instance (stages/extract_stage.py), so it runs on
  Ray's pooled, already-warm workers, holds no CPU while idle and fuses
  with its neighbours — ``MapBatches(ExtractDocs)->Write`` (nested) and
  ``MapBatches(ExtractSpans)->MapBatches(add_reassembly_bucket)``
  (exploded).  An actor pool would start fresh processes on every
  Dataset execution (each checkpoint shard, each call) and would have to
  be sized against the read tasks that feed it.
* each job runs ONE lineage and ONE Ray execution: ``pipeline_mode``
  picks nested (docs stay whole rows) or exploded (every doc becomes
  span rows).  A corpus that mixes small docs with monsters is
  pre-bucketed by size and run as one job of each
  (pipelines/bucketize.py) — never a union of two branches in one
  execution.
* the nested path has no all-to-all operator.  The exploded path has
  two: the ``repartition`` before ``ExtractSpans`` (it runs as
  ``AllToAllOperator[Repartition]``) and the reassembly ``groupby``
  (``AllToAllOperator[Sort]``).  Per-span rows distribute evenly, which
  IS the skew mitigation: a 900-span doc becomes 900 independent rows.
* no stage materializes the dataset; output is streamed to partitioned
  parquet.  Failed docs are not dropped (reference marks them
  ocr_failed, ocr_worker.py:322-330): both modes carry them inline as
  zero-metric rows, and one streaming pass over the written output
  projects them into a sidecar table while it does the job's accounting.
"""

from __future__ import annotations

import pyarrow as pa

from ..config import DEFAULT_CONFIG, PipelineConfig
from ..schema import FAILED_SCHEMA, METRICS_FIELDS
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
    has work from the first scheduling tick, and the reassembly bucket
    count never goes below it.  ``pool`` is a (min, max)
    actor-pool shape (about 2/3 of the CPUs, leaving >=2 for read and
    write tasks) that only the benchmark's identity floor still uses.
    """
    total = _cluster_cpus()
    floor = max(1, min(total - 2, max(2, total * 2 // 3)))
    return (floor, max(total, 2)), max(16, total * 4)


# docs per reassembly bucket: the exploded path sizes its bucket count
# from the input's row count
REASSEMBLY_DOCS_PER_BUCKET = 256


def build_extracted(ds, cfg: PipelineConfig = DEFAULT_CONFIG):
    """Lazy Dataset of extraction results for every document of ``ds``:
    RESULT_SCHEMA rows (doc_id, spans, per-doc metric columns); a
    rejected doc rides inline as a zero-metric row with its
    reject_reason set.  Both physical strategies (cfg.pipeline_mode, see
    config.py) emit the same rows, one lineage either way.
    """
    if cfg.pipeline_mode == "nested":
        # validation happens once, in the kernel (extract_doc_cols); no
        # repartition barrier: read-fragment granularity + batch_size
        # slicing feed the tasks evenly (measured equal to an explicit
        # repartition at 12k docs, minus the barrier)
        return ds.map_batches(
            ExtractDocs(cfg),
            batch_format="pyarrow",
            batch_size=cfg.extract_batch_size,
            zero_copy_batch=True,  # fns never mutate input; ~13% at 32 CPUs
        )

    nblocks = _pool_and_blocks(cfg)[1]
    # bucketized reassembly: ONE group per hash bucket (not per doc)
    # amortizes the per-group machinery over ~hundreds of docs; the
    # groupby(bucket) shuffle moves the same span rows the per-doc
    # groupby did.  The bucket count scales with the DATA, which bounds
    # per-task memory (a fixed count makes group size grow with the
    # corpus), and never drops below ~4x CPUs; count() on an
    # untransformed file read is parquet-metadata-only (no execution)
    n_buckets = max(nblocks, -(-ds.count() // REASSEMBLY_DOCS_PER_BUCKET))
    return (
        ds.map_batches(validate_batch, batch_format="pyarrow",
                       fn_kwargs={"cfg": cfg})
        .map_batches(explode_spans, batch_format="pyarrow",
                     zero_copy_batch=True)
        .repartition(nblocks)  # a monster doc arrives as ONE huge block;
                               # this spreads its spans across the cluster
        .map_batches(
            ExtractSpans(cfg),
            batch_format="pyarrow",
            batch_size=None,
            zero_copy_batch=True,
        )
        .map_batches(add_reassembly_bucket, batch_format="pyarrow",
                     fn_kwargs={"n_buckets": n_buckets},
                     zero_copy_batch=True)
        # NOTE: Ray's sort-based groupby logs a benign "new schema: ."
        # warning when a sort partition holds no groups (it emits a
        # zero-column empty block internally); every shuffle INPUT
        # block here is verified non-empty and fully typed
        .groupby("bucket")
        .map_groups(
            reassemble_bucket, batch_format="pyarrow", fn_kwargs={"cfg": cfg})
    )


# the columns the accounting pass reads; it sums the int64 metrics
_ACCOUNT_COLS = ["reject_reason", *(n for n, _ in METRICS_FIELDS)]
_METRIC_SUM_COLS = [n for n, t in METRICS_FIELDS if t == pa.int64()]


def account_batches(batches, on_failed) -> dict:
    """Roll extracted record batches (``_ACCOUNT_COLS``) up into the
    job's accounting: ``extracted`` / ``failed`` doc counts, the sorted
    ``failed_reasons``, and ``metrics`` over the extracted docs (integer
    sums, summed ``conf_hist``, ``quality_mean``; ``{}`` when no doc was
    extracted).  Each batch's rejected rows go to ``on_failed``.

    One pass with O(batch) state.  ``quality_mean`` is ``math.fsum``
    over every doc's value, so it is correctly rounded whatever order
    the batches (Ray's files and tasks) arrive in.
    """
    import itertools
    import math

    import pyarrow.compute as pc

    counts = {"extracted": 0, "failed": 0, "quality": 0}
    reasons: set[str] = set()
    sums = dict.fromkeys(_METRIC_SUM_COLS, 0)
    hist = 0

    def one(b) -> list[float]:
        nonlocal hist
        rejected = pc.not_equal(b.column("reject_reason"), "")
        bad = b.filter(rejected)
        if bad.num_rows:
            counts["failed"] += bad.num_rows
            reasons.update(pc.unique(bad.column("reject_reason")).to_pylist())
            on_failed(bad)
            b = b.filter(pc.invert(rejected))
        if not b.num_rows:
            return []
        counts["extracted"] += b.num_rows
        for c in _METRIC_SUM_COLS:
            sums[c] += pc.sum(b.column(c)).as_py()
        bins = pc.list_flatten(b.column("conf_hist")).to_numpy()
        hist = hist + bins.reshape(b.num_rows, -1).sum(axis=0)
        q = b.column("quality_mean")
        q = q.filter(pc.greater_equal(q, 0)).to_pylist()
        counts["quality"] += len(q)
        return q

    q_sum = math.fsum(itertools.chain.from_iterable(map(one, batches)))
    n_q = counts.pop("quality")
    return {**counts, "failed_reasons": sorted(reasons), "metrics": {
        **sums, "quality_mean": round(q_sum / n_q, 4) if n_q else -1.0,
        "conf_hist": hist.tolist()} if counts["extracted"] else {}}


def derive_failed_sidecar(extracted_dir: str, failed_dir: str) -> dict:
    """Account for a written extracted dataset and project its failed
    rows into the ``failed`` sidecar: ONE column-pruned, STREAMING
    read-back (never the span text), no recompute.  The round-2 version
    pulled the full doc_id column onto the driver via ``to_table``; at
    the 10^12-doc target that alone is terabytes.  Driver memory is
    O(batch).  Returns ``account_batches``'s accounting."""
    import os

    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    os.makedirs(failed_dir, exist_ok=True)
    frag = pads.dataset(extracted_dir)
    # an empty input writes no files
    batches = frag.to_batches(columns=_ACCOUNT_COLS, batch_size=65536) \
        if frag.files else []
    with pq.ParquetWriter(os.path.join(failed_dir, "failed.parquet"),
                          FAILED_SCHEMA) as w:
        acc = account_batches(batches, lambda bad: w.write_table(
            pa.Table.from_arrays(
                [bad.column("doc_id"), bad.column("reject_reason")],
                schema=FAILED_SCHEMA)))
        if not acc["failed"]:  # always leave a typed (possibly empty) file
            w.write_table(FAILED_SCHEMA.empty_table())
    return acc


def write_extraction(ds, output_dir: str,
                     cfg: PipelineConfig = DEFAULT_CONFIG) -> dict:
    """Write the extraction of ``ds`` and its sidecar:

        {output_dir}/extracted/   RESULT_SCHEMA rows, one per input doc;
                                  reject_reason == '' marks successfully
                                  extracted docs, rejected docs ride
                                  inline as zero-metric rows
        {output_dir}/failed/      doc_id, reason sidecar

    One Ray execution writes ``extracted/``; one streaming pass over it
    (derive_failed_sidecar) writes the sidecar and does the accounting.
    Both directories exist afterwards even when empty.  Returns the
    accounting: ``{"extracted": ok docs, "failed": rejected docs,
    "failed_reasons": [...], "metrics": {...}}``.
    """
    import os

    extracted = f"{output_dir}/extracted"
    os.makedirs(extracted, exist_ok=True)
    build_extracted(ds, cfg).write_parquet(extracted)
    return derive_failed_sidecar(extracted, f"{output_dir}/failed")


def run_extraction(
    input_path: str,
    output_dir: str,
    cfg: PipelineConfig = DEFAULT_CONFIG,
) -> dict:
    """Execute the pipeline end to end into ``output_dir`` (layout in
    write_extraction) and return its accounting.  For the resumable
    sharded runner see ocr_ray.state.checkpoint.CheckpointedRunner.
    """
    import shutil

    # fresh-run semantics: write_parquet APPENDS into existing dirs, so a
    # rerun would silently duplicate docs; resumability lives in the
    # CheckpointedRunner (atomic shard publish), not here
    shutil.rmtree(f"{output_dir}/extracted", ignore_errors=True)
    shutil.rmtree(f"{output_dir}/failed", ignore_errors=True)
    return {**write_extraction(read_documents(input_path), output_dir, cfg),
            "output_dir": output_dir}
