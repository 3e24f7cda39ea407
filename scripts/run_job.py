"""Production entry point — the `ray job submit` path.

    # local
    python scripts/run_job.py --input /data/documents --output /data/out \
        --shards 64 --resume

    # cluster (fixed-size, per the north rule)
    ray job submit --working-dir . -- \
        python scripts/run_job.py --input s3://bucket/documents \
        --output s3://bucket/out --shards 4096 --resume

Resumable: every shard publishes atomically with a lineage marker;
re-submitting after ANY failure (spot loss, OOM, manual kill) skips
committed shards and re-does only in-flight work (exactly-once output).
Shard count guideline: ≥ 4x the cluster's total CPUs so the tail shard
doesn't idle the fleet; each shard streams internally regardless of size.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--input", required=True, help="documents table (parquet dir or .lance)")
    ap.add_argument("--output", required=True)
    ap.add_argument("--shards", type=int, default=16)
    ap.add_argument("--resume", action="store_true", default=True)
    ap.add_argument("--no-resume", dest="resume", action="store_false")
    ap.add_argument("--mode",
                    choices=["nested", "exploded", "auto"],
                    default="nested",
                    help="auto = one-pass size bucketing, then a nested "
                         "job over small docs and an exploded job over "
                         "monsters (see pipelines/bucketize.py)")
    ap.add_argument("--max-spans", type=int, default=4000)
    ap.add_argument("--report", action="store_true",
                    help="print the corpus perf report at the end")
    args = ap.parse_args()

    import ray

    if not ray.is_initialized():
        # under `ray job submit` RAY_ADDRESS is set by the runtime;
        # standalone falls back to a local session
        ray.init(address=os.environ.get("RAY_ADDRESS", "local"),
                 ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from ocr_ray.config import PipelineConfig
    from ocr_ray.state.checkpoint import CheckpointedRunner

    t0 = time.time()
    if args.mode == "auto":
        from ocr_ray.pipelines.bucketize import (
            bucketize_corpus,
            run_bucketed_extraction,
        )

        cfg = PipelineConfig(max_spans_per_doc=args.max_spans)
        bucketed = os.path.join(args.output, "_bucketed")
        counts = bucketize_corpus(args.input, bucketed, cfg=cfg)
        summary = run_bucketed_extraction(bucketed, args.output, cfg)
        summary["bucket_counts"] = counts
    else:
        cfg = PipelineConfig(pipeline_mode=args.mode,
                             max_spans_per_doc=args.max_spans)
        runner = CheckpointedRunner(args.input, args.output, cfg=cfg,
                                    n_shards=args.shards)
        summary = runner.run(resume=args.resume)
    summary["wall_sec"] = round(time.time() - t0, 1)
    print(json.dumps(summary))

    if args.report and args.mode != "auto":
        from ocr_ray.functions.perfstats import corpus_report

        print(json.dumps(corpus_report(os.path.join(args.output, "extracted"))))
    ray.shutdown()


if __name__ == "__main__":
    main()
