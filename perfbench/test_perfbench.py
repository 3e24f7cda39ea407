"""The benchmark's own tests (no Ray needed).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from collections import Counter
from dataclasses import replace

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from perfbench import check, corpus, run, trace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _bench() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def _digest(table: pa.Table) -> str:
    return hashlib.sha256(repr(table.to_pylist()).encode()).hexdigest()


def _small(name: str, n: int = 24) -> corpus.Workload:
    """``name`` scaled to about ``n`` docs, one of each archetype kept."""
    w = corpus.WORKLOADS[name]
    return replace(w, quotas={a: max(1, q * n // w.n_docs)
                              for a, q in w.quotas.items()})


# ------------------------------------------------------- names and units

def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in _bench()["workloads"]] == list(
        corpus.WORKLOADS)


def test_metric_names_and_units():
    b = _bench()
    unit_re = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")
    name_re = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
    names = [m["name"] for m in b["end_to_end"] + b["per_layer"]]
    assert len(names) == len(set(names))
    for m in b["end_to_end"] + b["per_layer"]:
        assert name_re.match(m["name"]) and unit_re.match(m["unit"]), m
    assert run.metric_units("end_to_end") == {
        "docs_per_sec": "1/s", "setup_s": "s", "doc_ok_frac": "frac",
        "peak_rss_mb": "MB"}
    assert set(run.metric_units("per_layer")) == set(trace.per_layer_names())


def test_replay_emits_its_per_layer_metrics():
    table = corpus.documents(_small("mixed_exploded", 12), seed=3)
    m = trace.replay_metrics(table, exploded=True)
    assert set(m) <= set(run.metric_units("per_layer"))
    assert m["stages.validate.rejects"] == 3     # empty, malformed, oversize
    assert m["stages.extract_stage.reassemble_groups"] > 0


def test_web_text_makes_no_ocr_calls():
    table = corpus.documents(_small("web_text"), seed=3)
    m = trace.replay_metrics(table, exploded=False)
    assert m["kernels.ocr_sim.calls"] == 0 and m["kernels.htmlx.calls"] > 0


# ------------------------------------------------------------ corpora

@pytest.mark.parametrize("name", list(corpus.WORKLOADS))
def test_same_seed_same_corpus_other_seed_other_corpus(name):
    w = _small(name)
    a = _digest(corpus.documents(w, seed=5))
    assert a == _digest(corpus.documents(w, seed=5))
    assert a != _digest(corpus.documents(w, seed=6))


@pytest.mark.parametrize("name", list(corpus.WORKLOADS))
def test_workload_has_its_quotas(name):
    w = _small(name)
    table = corpus.documents(w, seed=9)
    archs = Counter(d.split("-", 1)[0] for d in table["doc_id"].to_pylist())
    assert archs == Counter(w.quotas)
    lo, hi = corpus.MEGA_SPANS
    for d, spans in zip(table["doc_id"].to_pylist(),
                        table["spans"].to_pylist()):
        assert not d.startswith("mega") or lo <= len(spans) <= hi


# ------------------------------------------------------- output check

def _fake_output(tmp, table, golden) -> str:
    """Write golden's result the way nested mode lays it out: extracted
    rows (rejects inline with their reason) plus a failed sidecar."""
    metrics = {r["doc_id"]: r for r in golden["metrics"].to_pylist()}
    rows = [{"doc_id": r["doc_id"], "spans": r["spans"], "reject_reason": "",
             **{c: metrics[r["doc_id"]][c] for c in check.METRIC_COLS}}
            for r in golden["extracted"].to_pylist()]
    rows += [{"doc_id": r["doc_id"], "spans": [], "reject_reason": r["reason"],
              **{c: None for c in check.METRIC_COLS}}
             for r in golden["failed"].to_pylist()]
    out = os.path.join(tmp, "out")
    os.makedirs(os.path.join(out, "extracted"))
    os.makedirs(os.path.join(out, "failed"))
    schema = pa.schema([("doc_id", pa.string()),
                        ("spans", table.schema.field("spans").type),
                        ("reject_reason", pa.string())]
                       + [golden["metrics"].schema.field(c)
                          for c in check.METRIC_COLS])
    pq.write_table(pa.Table.from_pylist(rows, schema=schema),
                   os.path.join(out, "extracted", "part-0.parquet"))
    pq.write_table(golden["failed"],
                   os.path.join(out, "failed", "failed.parquet"))
    return out


@pytest.fixture(scope="module")
def mixed():
    from ocr_ray.golden import golden_extract

    table = corpus.documents(_small("mixed_exploded", 16), seed=42)
    golden = golden_extract(table)
    return table, golden, check.expected_from_golden(table, golden)


def test_golden_output_passes(mixed, tmp_path):
    table, golden, exp = mixed
    assert check.count_errors(_fake_output(tmp_path, table, golden), exp) == 0


def _rewrite(out: str, fn):
    path = os.path.join(out, "extracted", "part-0.parquet")
    t = pq.read_table(path)
    pq.write_table(pa.Table.from_pylist(fn(t.to_pylist()), schema=t.schema),
                   path)


def test_planted_span_swap_fails_the_check(mixed, tmp_path):
    table, golden, exp = mixed
    out = _fake_output(tmp_path, table, golden)

    def swap(rows):
        r = next(r for r in rows if len(r["spans"]) >= 2)
        r["spans"][0], r["spans"][1] = r["spans"][1], r["spans"][0]
        return rows

    _rewrite(out, swap)
    errors = check.count_errors(out, exp)
    assert errors == 1
    assert 1.0 - errors / exp.n_docs < 1.0          # doc_ok_frac drops


def test_missing_duplicate_and_wrong_metric_docs_count(mixed, tmp_path):
    table, golden, exp = mixed
    out = _fake_output(tmp_path, table, golden)

    def damage(rows):
        ok = [r for r in rows if r["reject_reason"] == ""]
        ok[1]["num_ents"] += 1
        return rows[1:] + [ok[2]]    # drop one, duplicate one, bend one

    _rewrite(out, damage)
    assert check.count_errors(out, exp) == 3


def test_wrong_reject_reason_counts(mixed, tmp_path):
    table, golden, exp = mixed
    out = _fake_output(tmp_path, table, golden)
    path = os.path.join(out, "failed", "failed.parquet")
    f = pq.read_table(path).to_pylist()
    f[0]["reason"] = "no_content"
    pq.write_table(pa.Table.from_pylist(f, schema=golden["failed"].schema),
                   path)
    assert check.count_errors(out, exp) == 1


def test_pinned_digests_match_golden():
    from ocr_ray.golden import golden_extract

    with open(os.path.join(ROOT, "perfbench", "digests.json")) as f:
        pinned = json.load(f)
    assert set(pinned) == set(corpus.WORKLOADS)
    w = corpus.WORKLOADS["mixed_exploded"]      # the cheapest to recompute
    table = corpus.documents(w, run.DEFAULT_SEED)
    exp = check.expected_from_golden(table, golden_extract(table))
    assert pinned[w.name][str(run.DEFAULT_SEED)] == exp.digest()


# -------------------------------------------------------------- tracing

@pytest.mark.parametrize("name", list(corpus.WORKLOADS))
def test_replay_self_times_cover_its_wall(name):
    w = _small(name, 40)
    table = corpus.documents(w, seed=1)
    t = trace.Tracer()
    with trace.kernel_spans(t):
        wall = trace.replay(table, w.mode == "exploded", t)
    total_self = sum(t.self_times().values())
    assert abs(total_self - wall) <= 0.10 * wall
    assert all(s >= -1e-9 for s in t.self_times().values())


def test_kernel_spans_are_restored():
    import ocr_ray.kernels.extract as kx

    before = kx.clean_lines
    with trace.kernel_spans(trace.Tracer()):
        assert kx.clean_lines is not before
    assert kx.clean_lines is before


@pytest.mark.parametrize("operator, key", [
    # operator names as Ray Data 2.49 reports them for these pipelines
    ("ReadParquet->SplitBlocks(2)", "ReadParquet"),
    ("MapBatches(ExtractDocs)", "ExtractDocs"),
    ("Write", "Write"),
    ("MapBatches(validate_batch)->Filter(NoneType)->MapBatches("
     "explode_spans)", "Validate"),
    ("Repartition", "Repartition"),
    ("MapBatches(ExtractSpans)", "ExtractSpans"),
    ("MapBatches(add_reassembly_bucket)", "Bucket"),
    ("Sort", "GroupBy"),
    ("MapBatches(reassemble_bucket)->Write", "MapGroups"),
])
def test_ray_operator_names_map_to_keys(operator, key):
    assert trace.ray_op_key(operator) == key


def test_outside_a_checkout_exits_nonzero(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "web_text", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
