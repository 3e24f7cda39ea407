"""PipelineConfig validation, its field list, the bucketing threshold
check and the job scripts' --mode choices — Ray-free: a bad setting must
fail before any job touches its output."""

import subprocess
import sys
from pathlib import Path

import pytest

from ocr_ray.config import PipelineConfig

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("mode", ["auto", "union", "Nested", ""])
def test_unknown_mode_rejected_at_construction(mode):
    # "auto" is a run_job.py mode (bucketize, then one job per bucket),
    # never a single job's physical strategy
    with pytest.raises(ValueError, match="pipeline_mode"):
        PipelineConfig(pipeline_mode=mode)


def test_fields_are_the_knobs_callers_set():
    from dataclasses import fields

    assert [f.name for f in fields(PipelineConfig)] == [
        "max_spans_per_doc", "span_soft_timeout_ms", "pipeline_mode",
        "extract_batch_size", "span_batch_size"]


def test_explode_threshold_still_checked(tmp_path):
    from ocr_ray.pipelines.bucketize import bucketize_corpus

    out = tmp_path / "bucketed"
    out.mkdir()
    (out / "keep.parquet").write_bytes(b"prior layout")
    with pytest.raises(ValueError, match="max_spans_per_doc"):
        bucketize_corpus(str(tmp_path / "missing-input"), str(out),
                         threshold=11,
                         cfg=PipelineConfig(max_spans_per_doc=10))
    # refused before the fresh-run wipe: the old layout is untouched
    assert [p.name for p in out.iterdir()] == ["keep.parquet"]
    assert (out / "keep.parquet").read_bytes() == b"prior layout"


@pytest.mark.parametrize("script", ["run_job.py", "submit_job.py"])
def test_script_mode_choices(script):
    def run(*args):
        return subprocess.run(
            [sys.executable, str(ROOT / "scripts" / script),
             "--input", "in", "--output", "out", *args],
            capture_output=True, text=True, timeout=60)

    usage = run("--help")
    assert usage.returncode == 0
    assert "--mode {nested,exploded,auto}" in usage.stdout
    bad = run("--mode", "union")
    assert bad.returncode == 2 and "invalid choice" in bad.stderr
