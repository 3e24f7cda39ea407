"""The extract stages pause the cyclic GC only for the batch they run:
the calling process's GC state is the same before and after (no Ray)."""

import gc

import pyarrow.compute as pc
import pytest

from ocr_ray.stages.extract_stage import ExtractDocs, ExtractSpans, explode_spans
from ocr_ray.stages.validate import validate_batch


@pytest.fixture
def restore_gc():
    was_enabled = gc.isenabled()
    yield
    (gc.enable if was_enabled else gc.disable)()


def _docs(corpus):
    return corpus


def _spans(corpus):
    v = validate_batch(corpus)
    return explode_spans(v.filter(pc.equal(v["reject_reason"], "")))


@pytest.mark.parametrize("enabled", [True, False], ids=["gc_on", "gc_off"])
@pytest.mark.parametrize("stage, make_batch",
                         [(ExtractDocs, _docs), (ExtractSpans, _spans)],
                         ids=["ExtractDocs", "ExtractSpans"])
def test_stage_leaves_gc_state_unchanged(small_corpus, restore_gc, enabled,
                                         stage, make_batch):
    (gc.enable if enabled else gc.disable)()
    batch = make_batch(small_corpus.slice(0, 12))
    fn = stage()
    assert gc.isenabled() is enabled
    assert fn(batch).num_rows > 0
    assert gc.isenabled() is enabled
