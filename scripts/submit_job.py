"""Build (and optionally submit) the `ray job submit` payload for the
extraction pipeline — the north rule's launch path on a fixed-size
multi-node cluster.

The payload has three parts, all of which this script constructs
deterministically so they can be reviewed and tested WITHOUT a cluster:

1. the entrypoint command (``python scripts/run_job.py ...``),
2. the runtime_env (working_dir = repo root, heavy dirs excluded so the
   upload stays small; no pip installs — the image is expected to carry
   ray[data]/pyarrow/numpy/pandas),
3. the recommended head-node ``_system_config`` fragment: object
   spilling to a local-disk directory, which is what lets a 100-TB run
   stream through a bounded object store (the single-node 500 MB-cap
   endurance run in BASELINE.md exercises exactly this mechanism).

Usage:

    # inspect the payload (no cluster, no ray import needed)
    python scripts/submit_job.py --input s3://b/docs --output s3://b/out \
        --shards 4096 --dry-run

    # actually submit to a running cluster
    python scripts/submit_job.py --address http://head:8265 \
        --input s3://b/docs --output s3://b/out --shards 4096

Scaling-criterion note: the north rule grades throughput at N vs 4N
nodes; submit the same payload to both cluster sizes and compare the
``docs_per_sec`` line run_job.py prints (single-box stand-in evidence
lives in BASELINE.md / bench.py --scaling).
"""

from __future__ import annotations

import argparse
import json
import os

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Head-node system config fragment: pass to `ray start --head
# --system-config='<json>'`. Spill early (80%) to keep the plasma store
# from blocking the streaming executor; one spill dir per local SSD.
SPILLING_SYSTEM_CONFIG = {
    "object_spilling_config": json.dumps({
        "type": "filesystem",
        "params": {"directory_path": ["/tmp/ray_spill"],
                   "buffer_size": 1024 * 1024},
    }),
    "object_spilling_threshold": 0.8,
}


def build_payload(input_path: str, output_path: str, *, shards: int,
                  mode: str = "nested", resume: bool = True,
                  max_spans: int = 4000) -> dict:
    """Pure function: the complete job-submission payload as a dict.

    Keys map 1:1 onto JobSubmissionClient.submit_job kwargs plus the
    out-of-band head-node config; no ray import, no network.
    """
    cmd = ["python", "scripts/run_job.py",
           "--input", input_path, "--output", output_path,
           "--shards", str(shards), "--mode", mode,
           "--max-spans", str(max_spans),
           "--resume" if resume else "--no-resume"]
    return {
        "entrypoint": " ".join(cmd),
        "runtime_env": {
            "working_dir": REPO_ROOT,
            # keep the upload to code only — payload data stays remote
            "excludes": ["/.git", "*.parquet", "*.lance", "/tests",
                         "__pycache__", "*.jsonl", "/BENCH_*.json"],
            "env_vars": {"RAY_DATA_PUSH_BASED_SHUFFLE": "1"},
        },
        "head_system_config": SPILLING_SYSTEM_CONFIG,
        "resubmit_note": ("re-submit the identical payload after any "
                          "failure: committed shards are skipped "
                          "(lineage markers), in-flight work re-done"),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--input", required=True)
    ap.add_argument("--output", required=True)
    ap.add_argument("--shards", type=int, default=4096,
                    help=">= 4x total cluster CPUs")
    ap.add_argument("--mode", default="nested",
                    choices=["nested", "exploded", "auto"])
    ap.add_argument("--max-spans", type=int, default=4000)
    ap.add_argument("--no-resume", dest="resume", action="store_false")
    ap.add_argument("--address", default=None,
                    help="Ray dashboard address, e.g. http://head:8265")
    ap.add_argument("--dry-run", action="store_true")
    args = ap.parse_args()

    payload = build_payload(args.input, args.output, shards=args.shards,
                            mode=args.mode, resume=args.resume,
                            max_spans=args.max_spans)
    if args.dry_run or not args.address:
        print(json.dumps(payload, indent=2))
        return 0

    from ray.job_submission import JobSubmissionClient

    client = JobSubmissionClient(args.address)
    job_id = client.submit_job(
        entrypoint=payload["entrypoint"],
        runtime_env=payload["runtime_env"])
    print(json.dumps({"job_id": job_id,
                      "follow": f"ray job logs -f {job_id}"}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
