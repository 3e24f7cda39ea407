"""Distributed pipeline vs golden oracle — the north-rule invariant:
span-sequence equality (kind, text, media_ref, order) per doc_id."""

import pyarrow.dataset as pads
import pytest

from ocr_ray.config import PipelineConfig
from ocr_ray.golden import assert_span_equal, spans_fingerprint
from ocr_ray.pipelines.extract_pipeline import build_extracted, build_failed, run_extraction
from ocr_ray.stages.validate import validate_batch
from ocr_ray.kernels.extract import validate_spans


@pytest.fixture(scope="module")
def pipeline_output(ray_session, small_corpus_path, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("pipe_out"))
    summary = run_extraction(small_corpus_path, out)
    return out, summary


class TestPipelineEquality:
    def test_span_sequence_equality(self, pipeline_output, golden_result):
        import pyarrow.compute as pc

        out, _ = pipeline_output
        tbl = pads.dataset(f"{out}/extracted").to_table(
            columns=["doc_id", "spans", "reject_reason"])
        actual = tbl.filter(pc.equal(tbl["reject_reason"], "")).select(
            ["doc_id", "spans"])
        assert_span_equal(actual, golden_result["extracted"])

    def test_failed_docs_match_golden(self, pipeline_output, golden_result):
        out, _ = pipeline_output
        actual = sorted(pads.dataset(f"{out}/failed").to_table().to_pylist(),
                        key=lambda r: r["doc_id"])
        expected = sorted(golden_result["failed"].to_pylist(),
                          key=lambda r: r["doc_id"])
        assert actual == expected

    def test_metrics_match_golden(self, pipeline_output, golden_result):
        import pyarrow.compute as pc

        out, _ = pipeline_output
        cols = list(golden_result["metrics"].column_names)
        tbl = pads.dataset(f"{out}/extracted").to_table(
            columns=cols + ["reject_reason"])
        tbl = tbl.filter(pc.equal(tbl["reject_reason"], "")).select(cols)
        actual = {r["doc_id"]: r for r in tbl.to_pylist()}
        for exp in golden_result["metrics"].to_pylist():
            act = actual[exp["doc_id"]]
            assert act == exp, f"metrics differ for {exp['doc_id']}"

    def test_counts(self, pipeline_output, golden_result):
        _, summary = pipeline_output
        assert summary["extracted"] == golden_result["extracted"].num_rows
        assert summary["failed"] == golden_result["failed"].num_rows


class TestPhysicalModeEquality:
    """Every physical strategy must produce identical span sequences:
    proves order lives in the data, not the execution (nested is
    covered above, the bucketed split in test_bucketize.py)."""

    def _run(self, corpus_path, cfg, golden):
        import pyarrow as pa

        from ocr_ray.schema import EXTRACTED_SCHEMA
        from ocr_ray.sources.readers import read_documents

        tbl = build_extracted(read_documents(corpus_path), cfg).to_pandas()
        actual = pa.Table.from_pylist(
            tbl[["doc_id", "spans"]].to_dict("records"), schema=EXTRACTED_SCHEMA)
        assert_span_equal(actual, golden["extracted"])

    def test_all_exploded_equals_golden(self, ray_session, small_corpus_path,
                                        golden_result):
        self._run(small_corpus_path,
                  PipelineConfig(pipeline_mode="exploded"),
                  golden_result)


class TestValidateVectorized:
    def test_vector_scalar_agreement(self, small_corpus):
        """stages.validate must agree row-for-row with the scalar kernel."""
        out = validate_batch(small_corpus)
        reasons = out.column("reject_reason").to_pylist()
        for i, row in enumerate(small_corpus.to_pylist()):
            expected = validate_spans(row["spans"]) or ""
            assert reasons[i] == expected, (
                f"row {i} ({row['doc_id']}): vector={reasons[i]!r} "
                f"scalar={expected!r}")

    def test_n_spans_column(self, small_corpus):
        out = validate_batch(small_corpus)
        ns = out.column("n_spans").to_pylist()
        for i, row in enumerate(small_corpus.to_pylist()):
            assert ns[i] == (len(row["spans"]) if row["spans"] is not None else 0)


class TestBucketizedReassembly:
    def test_bucket_equals_per_doc_reference(self, ray_session,
                                             small_corpus):
        """reassemble_bucket (the pipeline path) must be row-for-row
        equal to the single-doc reference reassemble_group, including
        float quality means (offset-order summation)."""
        import pyarrow as pa

        from ocr_ray.stages.extract_stage import (
            ExtractSpans,
            add_reassembly_bucket,
            explode_spans,
            reassemble_bucket,
            reassemble_group,
        )
        from ocr_ray.stages.validate import validate_batch

        ok = validate_batch(small_corpus)
        ok = ok.filter(pa.compute.equal(ok["reject_reason"], ""))
        spans = ExtractSpans()(explode_spans(ok))
        bucketed = add_reassembly_bucket(spans, n_buckets=3)
        parts = []
        for b in range(3):
            grp = bucketed.filter(pa.compute.equal(bucketed["bucket"], b))
            if grp.num_rows:
                parts.append(reassemble_bucket(grp))
        got = pa.concat_tables(parts).sort_by("doc_id").to_pylist()
        want = []
        for doc_id in set(spans["doc_id"].to_pylist()):
            grp = spans.filter(pa.compute.equal(spans["doc_id"], doc_id))
            want.extend(reassemble_group(grp).to_pylist())
        want.sort(key=lambda r: r["doc_id"])
        assert len(got) == len(want) > 0
        for g, w in zip(got, want):
            for k in w:
                if k == "proc_ms":
                    continue  # wall-clock timing, not comparable
                assert g[k] == w[k], (g["doc_id"], k)
