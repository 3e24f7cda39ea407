"""Per-document output check against ``ocr_ray.golden.golden_extract``.

A document is correctly accounted for when exactly one of these holds:

* golden extracts it, and the output has exactly one extracted row for
  it (``reject_reason == ''``) with span-sequence equality (kind, text,
  media_ref, offset, order), every metric column equal (``proc_ms`` is
  wall-clock and excluded), and no failed-sidecar row;
* golden rejects it, and the failed sidecar has exactly one row for it
  with the same reason, and there is no extracted row with
  ``reject_reason == ''``.

Nested mode also keeps rejected documents inline in ``extracted/`` as
empty-span rows with their reason set; those rows are ignored here (the
sidecar is derived from them and is what is checked).

Anything else (missing, duplicated, span- or metric-unequal, wrong
reason, an unknown doc_id) is one error.  The check never stops at the
first mismatch: ``doc_error_frac`` needs the count.
"""

from __future__ import annotations

import hashlib
import os
from collections import Counter
from dataclasses import dataclass

import pyarrow as pa
import pyarrow.dataset as pads

METRIC_COLS = (
    "n_spans", "media_spans", "blocks_kept", "blocks_dropped",
    "clean_chars", "original_chars", "min_length_lines", "forbidden_lines",
    "low_alpha_lines", "high_digit_lines", "non_ascii_lines", "num_ents",
    "quality_mean", "retried_spans", "conf_hist",
)


@dataclass(frozen=True)
class Expected:
    n_docs: int
    spans: dict      # doc_id -> tuple of (kind, text, media_ref, offset)
    metrics: dict    # doc_id -> tuple of METRIC_COLS values
    failed: dict     # doc_id -> reason

    def digest(self) -> str:
        """sha256 over doc_id-sorted spans + metrics, then the sorted
        failed rows.  A pipeline output that passes ``count_errors``
        has this same digest."""
        h = hashlib.sha256()
        for d in sorted(self.spans):
            h.update(repr((d, self.spans[d], self.metrics[d])).encode())
        for d in sorted(self.failed):
            h.update(repr((d, self.failed[d])).encode())
        return h.hexdigest()


def _span_tuples(spans) -> tuple:
    return tuple((s["kind"], s["text"], s["media_ref"], s["offset"])
                 for s in spans)


def expected_from_golden(documents: pa.Table, golden: dict) -> Expected:
    ext = golden["extracted"].to_pylist()
    met = golden["metrics"].to_pylist()
    return Expected(
        n_docs=documents.num_rows,
        spans={r["doc_id"]: _span_tuples(r["spans"]) for r in ext},
        metrics={r["doc_id"]: tuple(r[c] for c in METRIC_COLS) for r in met},
        failed={r["doc_id"]: r["reason"]
                for r in golden["failed"].to_pylist()},
    )


def _read(path: str, columns: list[str]) -> list[dict]:
    if not os.path.isdir(path):
        return []
    ds = pads.dataset(path, format="parquet")
    return ds.to_table(columns=columns).to_pylist() if ds.files else []


def count_errors(out_dir: str, exp: Expected) -> int:
    """Number of input documents the output at ``out_dir`` (with
    ``extracted/`` and ``failed/`` below it) does not account for
    correctly, capped at the input size."""
    rows = [r for r in _read(os.path.join(out_dir, "extracted"),
                             ["doc_id", "spans", "reject_reason",
                              *METRIC_COLS])
            if r["reject_reason"] == ""]
    failed = _read(os.path.join(out_dir, "failed"), ["doc_id", "reason"])
    ok_count = Counter(r["doc_id"] for r in rows)
    failed_count = Counter(r["doc_id"] for r in failed)

    bad = set()
    for r in rows:
        d = r["doc_id"]
        if (ok_count[d] != 1 or failed_count[d] or d not in exp.spans
                or _span_tuples(r["spans"]) != exp.spans[d]
                or tuple(r[c] for c in METRIC_COLS) != exp.metrics[d]):
            bad.add(d)
    for r in failed:
        d = r["doc_id"]
        if (failed_count[d] != 1 or ok_count[d]
                or exp.failed.get(d) != r["reason"]):
            bad.add(d)
    seen = set(ok_count) | set(failed_count)
    bad |= (set(exp.spans) | set(exp.failed)) - seen
    return min(len(bad), exp.n_docs)


def sharded_report_errors(out_dir: str, exp: Expected, n_shards: int) -> int:
    """Lineage-marker check for the checkpointed runner: every shard
    committed, no gaps, and the marker ``doc_count``s sum to the golden
    extracted count.  Returns the number of docs the markers fail to
    account for (all of them when the shard set itself is wrong)."""
    from ocr_ray.state.checkpoint import run_report

    rep = run_report(out_dir)
    if rep["gaps"] or rep["shards_committed"] != n_shards:
        return exp.n_docs
    return min(exp.n_docs, abs(rep["doc_count"] - len(exp.spans))
               + abs(rep["failed_count"] - len(exp.failed)))
