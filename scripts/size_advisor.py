"""Cluster/job sizing advisor — the measured 100-TB rules from
BASELINE.md codified as a pure calculator.

The rules (all MEASURED on this engine, see BASELINE.md):

* capped-store admission: Ray Data's per-operator reservation admits
  ~``reservation / (input block + output block)`` concurrent tasks;
  with reservation ~= store/4 per active operator, keeping every CPU
  busy needs ``block_size <= per_node_store / (4 * task_slots * 2)``
  (the measured 21x swing at a 2 GB cap came from violating this);
* input files must be ~block-sized: tiny files bundle dozens of
  fragments per read task and collapse admission the same way
  (measured with 1.5 MB files at 128 MB blocks).

Usage::

    python scripts/size_advisor.py --corpus-tb 100 --nodes 256 \
        --cpus-per-node 32 --store-gb 32

Pure function of its inputs — unit-tested, no Ray needed.
"""
from __future__ import annotations

import argparse
import json


def advise(corpus_bytes: float, n_nodes: int, cpus_per_node: int,
           store_bytes_per_node: float,
           docs_per_byte: float = 1 / 15_000) -> dict:
    """Sizing recommendations for one extraction-style job.

    ``docs_per_byte`` defaults to the bench corpus's ~15 KB/doc."""
    if min(corpus_bytes, n_nodes, cpus_per_node,
           store_bytes_per_node) <= 0:
        raise ValueError("all sizes must be positive")
    task_slots = max(1, cpus_per_node - 2)      # leaves 2 CPUs per node free
    # admission rule: in-block + out-block per task must fit the
    # per-operator reservation (~store/4) across all slots
    max_block = store_bytes_per_node / (4 * task_slots * 2)
    block = min(128 * 1024 * 1024, max_block)
    # files ~block-sized; bound the count so the driver's file listing
    # stays sane and each read task gets ~1 fragment
    file_bytes = block
    n_files = max(n_nodes * task_slots,
                  int(corpus_bytes / max(1, file_bytes)))
    est_docs = corpus_bytes * docs_per_byte
    return {
        "task_slots_per_node": task_slots,
        "target_max_block_size_bytes": int(block),
        "block_is_store_limited": bool(block < 128 * 1024 * 1024),
        "recommended_file_bytes": int(file_bytes),
        "recommended_n_files": int(n_files),
        "estimated_docs": int(est_docs),
        "admitted_tasks_per_node": int(
            (store_bytes_per_node / 4) // max(1, 2 * block)),
    }


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--corpus-tb", type=float, required=True)
    ap.add_argument("--nodes", type=int, required=True)
    ap.add_argument("--cpus-per-node", type=int, default=32)
    ap.add_argument("--store-gb", type=float, default=32.0)
    args = ap.parse_args()
    rec = advise(args.corpus_tb * 1024 ** 4, args.nodes,
                 args.cpus_per_node, args.store_gb * 1024 ** 3)
    print(json.dumps(rec, indent=2))


if __name__ == "__main__":
    main()
