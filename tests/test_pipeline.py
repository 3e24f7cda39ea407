"""Distributed pipeline vs golden oracle — the north-rule invariant:
span-sequence equality (kind, text, media_ref, order) per doc_id."""

import pyarrow.dataset as pads
import pytest

from ocr_ray.config import PipelineConfig
from ocr_ray.golden import assert_span_equal, spans_fingerprint
from ocr_ray.pipelines.extract_pipeline import run_extraction
from ocr_ray.stages.validate import validate_batch
from ocr_ray.kernels.extract import validate_spans


@pytest.fixture(scope="module")
def pipeline_runs(ray_session, ray_executions, small_corpus_path,
                  tmp_path_factory):
    """``pipeline_runs(mode)``: the module's one run_extraction of the
    small corpus in ``mode`` — (output dir, summary, the Ray executions
    it started)."""
    runs = {}

    def run(mode):
        if mode not in runs:
            out = str(tmp_path_factory.mktemp(f"pipe_out_{mode}"))
            with ray_executions() as execs:
                summary = run_extraction(small_corpus_path, out,
                                         PipelineConfig(pipeline_mode=mode))
            runs[mode] = out, summary, execs
        return runs[mode]

    return run


@pytest.fixture
def pipeline_output(request, pipeline_runs):
    """The run in the class's ``mode``."""
    return pipeline_runs(request.cls.mode)


class TestPipelineEquality:
    mode = "nested"

    def test_span_sequence_equality(self, pipeline_output, golden_result):
        import pyarrow.compute as pc

        out, _, _ = pipeline_output
        tbl = pads.dataset(f"{out}/extracted").to_table(
            columns=["doc_id", "spans", "reject_reason"])
        actual = tbl.filter(pc.equal(tbl["reject_reason"], "")).select(
            ["doc_id", "spans"])
        assert_span_equal(actual, golden_result["extracted"])

    def test_failed_docs_match_golden(self, pipeline_output, golden_result):
        out, _, _ = pipeline_output
        actual = sorted(pads.dataset(f"{out}/failed").to_table().to_pylist(),
                        key=lambda r: r["doc_id"])
        expected = sorted(golden_result["failed"].to_pylist(),
                          key=lambda r: r["doc_id"])
        assert actual == expected

    def test_metrics_match_golden(self, pipeline_output, golden_result):
        import pyarrow.compute as pc

        out, _, _ = pipeline_output
        cols = list(golden_result["metrics"].column_names)
        tbl = pads.dataset(f"{out}/extracted").to_table(
            columns=cols + ["reject_reason"])
        tbl = tbl.filter(pc.equal(tbl["reject_reason"], "")).select(cols)
        actual = {r["doc_id"]: r for r in tbl.to_pylist()}
        for exp in golden_result["metrics"].to_pylist():
            act = actual[exp["doc_id"]]
            assert act == exp, f"metrics differ for {exp['doc_id']}"

    def test_counts(self, pipeline_output, golden_result):
        _, summary, _ = pipeline_output
        assert summary["extracted"] == golden_result["extracted"].num_rows
        assert summary["failed"] == golden_result["failed"].num_rows

    def test_one_ray_execution(self, pipeline_output):
        """Extraction, rejects and accounting come out of ONE Ray
        execution: no second pass over the input or the output."""
        _, _, execs = pipeline_output
        assert len(execs) == 1, execs


class TestExplodedPipelineEquality(TestPipelineEquality):
    """The same checks on an exploded run: rejects ride inline through
    explode -> ExtractSpans -> reassembly, so the failed sidecar, the
    metrics and the counts come from the one execution too."""

    mode = "exploded"


class TestPhysicalModeEquality:
    """Every physical strategy must produce identical span sequences:
    proves order lives in the data, not the execution (nested is
    covered above, the bucketed split in test_bucketize.py)."""

    def test_all_exploded_equals_golden(self, pipeline_runs, golden_result):
        import pyarrow.compute as pc

        out, _, _ = pipeline_runs("exploded")
        tbl = pads.dataset(f"{out}/extracted").to_table(
            columns=["doc_id", "spans", "reject_reason"])
        ok = pc.equal(tbl["reject_reason"], "")
        assert_span_equal(tbl.filter(ok).select(["doc_id", "spans"]),
                          golden_result["extracted"])
        rejects = tbl.filter(pc.invert(ok))
        assert sorted(zip(rejects["doc_id"].to_pylist(),
                          rejects["reject_reason"].to_pylist())) == \
            sorted((r["doc_id"], r["reason"])
                   for r in golden_result["failed"].to_pylist())


class TestPhysicalPlan:
    """The extract stages run as Ray Data tasks fused with the operator
    after them.  Ray Data fuses a map only into an unsized task pool, so
    ``concurrency=`` on the stage (an actor pool, or a sized task pool)
    leaves the stage standing alone in the plan."""

    @staticmethod
    def _operator_names(monkeypatch, corpus_path, out, cfg):
        import ray.data as rd

        written = []
        write = rd.Dataset.write_parquet

        def recording_write(ds, path, *args, **kwargs):
            write(ds, path, *args, **kwargs)
            written.append(ds)

        monkeypatch.setattr(rd.Dataset, "write_parquet", recording_write)
        run_extraction(corpus_path, out, cfg)
        names = []
        stack = [ds._write_ds._get_stats_summary() for ds in written]
        while stack:
            summary = stack.pop()
            stack.extend(summary.parents)
            names += [op.operator_name for op in summary.operators_stats]
        return names

    @pytest.mark.parametrize("mode, stage, fused", [
        ("nested", "ExtractDocs", "MapBatches(ExtractDocs)->Write"),
        ("exploded", "ExtractSpans",
         "MapBatches(ExtractSpans)->MapBatches(add_reassembly_bucket)"),
    ])
    def test_extract_stage_is_a_fused_task(self, ray_session,
                                           small_corpus_path, tmp_path,
                                           monkeypatch, mode, stage, fused):
        names = self._operator_names(monkeypatch, small_corpus_path,
                                     str(tmp_path),
                                     PipelineConfig(pipeline_mode=mode))
        assert [n for n in names if stage in n] == [fused], names


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


def _rows(tbl):
    """A result table's rows by doc_id, wall-clock ``proc_ms`` dropped."""
    return tbl.drop_columns(["proc_ms"]).sort_by("doc_id").to_pylist()


def _reassembled(spans, n_buckets):
    """``reassemble_bucket`` over each of ``n_buckets`` hash buckets of
    ``ExtractSpans`` output, concatenated."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from ocr_ray.stages.extract_stage import (
        add_reassembly_bucket,
        reassemble_bucket,
    )

    tagged = add_reassembly_bucket(spans, n_buckets=n_buckets)
    return pa.concat_tables(
        [reassemble_bucket(tagged.filter(pc.equal(tagged["bucket"], b)))
         for b in range(n_buckets)])


class TestBucketizedReassembly:
    def test_bucket_equals_per_doc_reference(self, small_corpus):
        """reassemble_bucket over 3 buckets (the pipeline path) must be
        row-for-row equal to ExtractDocs on the accepted docs, including
        float quality means (offset-order summation)."""
        import pyarrow.compute as pc

        from ocr_ray.stages.extract_stage import (
            ExtractDocs,
            ExtractSpans,
            explode_spans,
        )

        validated = validate_batch(small_corpus)
        ok = validated.filter(pc.equal(validated["reject_reason"], ""))
        got = _rows(_reassembled(ExtractSpans()(explode_spans(ok)), 3))
        want = _rows(ExtractDocs()(ok))
        assert len(got) == len(want) > 0
        assert got == want

    @pytest.mark.parametrize("seed", [0, 7])
    def test_exploded_equals_nested_any_bucket_count(self, seed):
        """Ray-free differential: validate_batch -> explode_spans ->
        ExtractSpans -> reassemble_bucket over 1, 3 and 7 buckets gives
        ExtractDocs's rows, on a corpus with a mega doc and all three
        reject archetypes."""
        from ocr_ray.fixtures import documents_table
        from ocr_ray.kernels.extract import R_EMPTY, R_MALFORMED, R_TOO_MANY
        from ocr_ray.stages.extract_stage import (
            ExtractDocs,
            ExtractSpans,
            explode_spans,
        )

        table = documents_table(40, seed=seed)
        want = _rows(ExtractDocs()(table))
        assert {R_EMPTY, R_MALFORMED, R_TOO_MANY} <= \
            {r["reject_reason"] for r in want}
        assert max(r["n_spans"] for r in want) >= 300  # a mega doc
        spans = ExtractSpans()(explode_spans(validate_batch(table)))
        for n_buckets in (1, 3, 7):
            assert _rows(_reassembled(spans, n_buckets)) == want, n_buckets

    def test_nested_validates_once_in_the_kernel(self, small_corpus,
                                                 monkeypatch):
        """ExtractDocs never runs the vectorized validate stage: the
        kernel's own check is the nested path's only validation."""
        import ocr_ray.stages.validate as validate_mod
        from ocr_ray.stages.extract_stage import ExtractDocs

        want = _rows(ExtractDocs()(small_corpus))

        def refuse(*args, **kwargs):
            raise AssertionError("ExtractDocs called validate_batch")

        monkeypatch.setattr(validate_mod, "validate_batch", refuse)
        got = _rows(ExtractDocs()(small_corpus))
        assert got == want
        assert any(r["reject_reason"] for r in got)

    def test_rejects_ride_inline_like_nested(self, small_corpus):
        """In process, rejects included: validate -> explode_spans ->
        ExtractSpans -> reassemble_bucket yields ExtractDocs's rows.  A
        rejected doc explodes to ONE sentinel row, however many spans
        it has."""
        import pyarrow.compute as pc

        from ocr_ray.stages.extract_stage import (
            ExtractDocs,
            ExtractSpans,
            explode_spans,
            reassemble_bucket,
        )

        validated = validate_batch(small_corpus)
        rejected = validated.filter(
            pc.not_equal(validated["reject_reason"], ""))
        spans = explode_spans(validated)
        sentinels = spans.filter(pc.not_equal(spans["reject_reason"], ""))
        assert rejected.num_rows > 0
        assert sorted(sentinels["doc_id"].to_pylist()) == \
            sorted(rejected["doc_id"].to_pylist())

        assert _rows(reassemble_bucket(ExtractSpans()(spans))) == \
            _rows(ExtractDocs()(small_corpus))


class TestAccounting:
    """The streaming accounting pass behind every job's summary and
    lineage marker (Ray-free)."""

    @staticmethod
    def _batches():
        import pyarrow as pa

        from ocr_ray.stages.extract_stage import RESULT_SCHEMA, _ZERO_METRICS

        # 1e16 + 1 + 1: a left-to-right float sum loses both ones, a
        # right-to-left one keeps them
        qualities = [1e16, 1.0, 1.0, -1.0]
        rows = [{"doc_id": f"d{i}", "spans": [],
                 **{**_ZERO_METRICS, "n_spans": i, "quality_mean": q,
                    "conf_hist": [i] * 10},
                 "reject_reason": "", "proc_ms": 0.0}
                for i, q in enumerate(qualities)]
        rows.append({"doc_id": "bad", "spans": [], **_ZERO_METRICS,
                     "reject_reason": "no_content", "proc_ms": 0.0})
        return [pa.RecordBatch.from_pylist([r], schema=RESULT_SCHEMA)
                for r in rows]

    def test_quality_mean_ignores_batch_order(self):
        import math

        from ocr_ray.pipelines.extract_pipeline import account_batches

        failed = []
        fwd = account_batches(self._batches(), failed.append)
        rev = account_batches(reversed(self._batches()), failed.append)
        assert fwd == rev
        assert fwd["metrics"]["quality_mean"] == round(
            math.fsum([1e16, 1.0, 1.0]) / 3, 4)
        assert (fwd["extracted"], fwd["failed"]) == (4, 1)
        assert fwd["failed_reasons"] == ["no_content"]
        assert fwd["metrics"]["n_spans"] == 0 + 1 + 2 + 3
        assert fwd["metrics"]["conf_hist"] == [6] * 10
        assert [b["doc_id"].to_pylist() for b in failed] == [["bad"]] * 2
