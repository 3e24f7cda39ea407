"""Keyword analysis stage over extracted spans — broadcast-join semantics
incl. the keyword-list hot-swap (reference tests/test_ocr_worker.py:96-102)."""

import pyarrow as pa
import pytest
import ray.data as rd

from ocr_ray.kernels.wordpool import keyword_list
from ocr_ray.schema import EXTRACTED_SCHEMA
from ocr_ray.stages.analyze import KeywordAnalyzer, corpus_keyword_counts, keyword_hits


def _extracted_ds(rows):
    return rd.from_arrow(pa.Table.from_pylist(rows, schema=EXTRACTED_SCHEMA))


@pytest.fixture(scope="module")
def sample_rows():
    return [
        {"doc_id": "a", "spans": [
            {"kind": "text", "text": "Se semnează un acord cadru important.",
             "media_ref": "", "offset": 0},
            {"kind": "text", "text": "Urmează licitație publică deschisă.",
             "media_ref": "", "offset": 1},
        ]},
        {"doc_id": "b", "spans": [
            {"kind": "text", "text": "Nimic relevant în acest text simplu.",
             "media_ref": "", "offset": 0},
        ]},
    ]


class TestKeywordStage:
    def test_hits_shape_and_offsets(self, ray_session, sample_rows):
        hits = keyword_hits(_extracted_ds(sample_rows),
                            keywords=["acord cadru", "licitație"]).to_pandas()
        assert set(hits["doc_id"]) == {"a"}
        by_kw = {r.keyword: r for r in hits.itertuples()}
        assert by_kw["acord cadru"].total_occs == 1
        occ = by_kw["acord cadru"].occs[0]
        assert occ["span_idx"] == 0 and occ["start"] < occ["end"]
        assert by_kw["licitație"].occs[0]["span_idx"] == 1

    def test_keyword_hot_swap(self, ray_session, sample_rows):
        """A new keyword-list version produces matcher state keyed by the
        new hash — results switch with the list."""
        ds = _extracted_ds(sample_rows)
        v1 = keyword_hits(ds, keywords=["acord cadru"]).to_pandas()
        v2 = keyword_hits(ds, keywords=["text simplu"]).to_pandas()
        assert set(v1["keyword"]) == {"acord cadru"}
        assert set(v2["keyword"]) == {"text simplu"}
        assert set(v2["doc_id"]) == {"b"}

    def test_corpus_rollup(self, ray_session, sample_rows):
        hits = keyword_hits(_extracted_ds(sample_rows),
                            keywords=["acord cadru", "licitație"])
        roll = corpus_keyword_counts(hits).to_pandas().set_index("keyword")
        assert roll.loc["acord cadru", "doc_freq"] == 1
        assert roll.loc["licitație", "total_occs"] == 1

    def test_synonym_variant_matching_golden_count(self, ray_session):
        """Synonym-expanded keyword matching (ref synonyms.py:6-28 +
        doc_analysis.py:100-134; golden-count style of
        tests/test_ocr_worker.py:48-51): keyword 'fast query' must match
        'quick search', 'rapid lookup' and the surface form — hand-built
        oracle count of 3 occurrences over the fixture."""
        rows = [{"doc_id": "syn", "spans": [
            {"kind": "text",
             "text": "A quick search beats a slow scan. The rapid lookup "
                     "wins. Running a fast query is best.",
             "media_ref": "", "offset": 0},
        ]}]
        hits = keyword_hits(_extracted_ds(rows),
                            keywords=["fast query"]).to_pandas()
        assert len(hits) == 1
        assert int(hits["total_occs"].iloc[0]) == 3

    def test_synonyms_not_expanded_on_document_side(self, ray_session):
        """Only KEYWORD tokens expand synonyms (reference pattern
        direction): keyword 'search' must NOT match document 'query'."""
        rows = [{"doc_id": "d", "spans": [
            {"kind": "text", "text": "run the query now",
             "media_ref": "", "offset": 0},
        ]}]
        hits = keyword_hits(_extracted_ds(rows),
                            keywords=["search"]).to_pandas()
        assert len(hits) == 0

    def test_short_token_gets_no_synonyms(self):
        from ocr_ray.kernels.keywords import synonyms_for, token_variants

        assert synonyms_for("joi") == frozenset()       # < 4 chars
        assert synonyms_for("x2ab") == frozenset()      # not alpha
        assert "merge" in token_variants("join")        # 4-char alpha

    def test_kwdall_corpus_golden_count(self, ray_session, golden_result):
        """Distributed analog of the num_kwds == 365 golden assertion."""
        kwdall = [r for r in golden_result["extracted"].to_pylist()
                  if r["doc_id"].startswith("kwdall-")]
        hits = keyword_hits(_extracted_ds(kwdall)).to_pandas()
        assert hits["keyword"].nunique() == len(keyword_list()) == 365


def test_stages_run_as_tasks_not_actor_pools(ray_session, sample_rows,
                                             monkeypatch):
    """``keyword_hits`` and ``media_features`` execute as plain Ray Data
    tasks: no ActorPoolMapOperator in either executed plan (a pool's
    minimum actor can hold the only CPU of a small cluster and starve
    the read feeding it)."""
    from ray.data._internal.execution.streaming_executor import (
        StreamingExecutor,
    )

    from ocr_ray.stages.multimodal import media_features, synth_media_table

    operators = []
    execute = StreamingExecutor.execute

    def recording(self, dag, *args, **kwargs):
        stack = [dag]
        while stack:
            op = stack.pop()
            operators.append(type(op).__name__)
            stack.extend(op.input_dependencies)
        return execute(self, dag, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", recording)
    hits = keyword_hits(_extracted_ds(sample_rows),
                        keywords=["acord cadru"]).take_all()
    feats = media_features(rd.from_arrow(synth_media_table(8))).take_all()
    assert len(hits) == 1 and len(feats) == 8
    assert "TaskPoolMapOperator" in operators, operators
    assert "ActorPoolMapOperator" not in operators, operators
