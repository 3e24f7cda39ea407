"""Vectorized document validation stage.

Ray-native restatement of ``validate_document`` (ocr_worker.py:170-181 +
the MAX_NUM_PAGES guard :161-167): instead of raising per document, the
stage annotates every row with a ``reject_reason`` ('' = processable) —
computed with pyarrow.compute / numpy over the flattened span arrays, no
per-row Python.  The exploded path runs it before ``explode_spans``, which
turns each rejected doc into one sentinel row; the nested path validates
inside the kernel instead (``extract_doc_cols``).

MUST stay semantics-equal to the scalar ``kernels.extract.validate_spans``
(the golden oracle's and the nested path's check); tests/test_pipeline.py
asserts row-for-row agreement on the archetype corpus.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..config import DEFAULT_CONFIG, PipelineConfig
from ..kernels.extract import R_DUP_OFFSET, R_EMPTY, R_MALFORMED, R_NO_CONTENT, R_TOO_MANY

# every char where Python's str.isspace() is True — Arrow's
# utf8_trim_whitespace strips only Unicode White_Space, which EXCLUDES
# \x1c-\x1f (+ \x85 handling differs), so the vectorized no_content
# check would disagree with the scalar kernel's str.strip()
_PY_WHITESPACE = (" \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u1680"
                  "\u2000\u2001\u2002\u2003\u2004\u2005\u2006\u2007"
                  "\u2008\u2009\u200a\u2028\u2029\u202f\u205f\u3000")


def _np(arr, fill=None):
    if fill is not None:
        arr = arr.fill_null(fill)
    return arr.to_numpy(zero_copy_only=False)


def validate_batch(batch: pa.Table, cfg: PipelineConfig = DEFAULT_CONFIG) -> pa.Table:
    n = batch.num_rows
    spans = batch.column("spans").combine_chunks()
    if isinstance(spans, pa.ChunkedArray):  # empty chunked edge
        spans = pa.concat_arrays(spans.chunks) if spans.num_chunks else pa.array(
            [], type=batch.schema.field("spans").type)

    n_spans = _np(pc.list_value_length(spans), fill=0).astype(np.int64)
    doc_null = _np(pc.is_null(spans))

    flat = pc.list_flatten(spans)
    parent = _np(pc.list_parent_indices(spans)).astype(np.int64)

    kind = flat.field("kind")
    text = flat.field("text")
    mref = flat.field("media_ref")
    off = flat.field("offset")

    null_field = pc.or_(
        pc.or_(pc.is_null(kind), pc.is_null(text)),
        pc.or_(pc.is_null(mref), pc.is_null(off)),
    )
    is_text = pc.equal(kind, "text")
    is_media = pc.equal(kind, "media")
    bad_kind = pc.and_kleene(
        pc.invert(pc.coalesce(is_text, pa.scalar(False))),
        pc.invert(pc.coalesce(is_media, pa.scalar(False))),
    )
    # text spans must carry no media_ref; media spans must carry one
    mref_empty = pc.equal(mref, "")
    mismatch = pc.or_kleene(
        pc.and_kleene(is_text, pc.invert(mref_empty)),
        pc.and_kleene(is_media, mref_empty),
    )
    span_malformed = _np(pc.coalesce(
        pc.or_kleene(pc.or_kleene(null_field, bad_kind), mismatch),
        pa.scalar(True),
    ))

    has_content_span = _np(pc.coalesce(
        pc.or_kleene(
            is_media,
            pc.and_kleene(is_text, pc.invert(pc.equal(
                pc.utf8_trim(text, characters=_PY_WHITESPACE), ""))),
        ),
        pa.scalar(False),
    ))

    doc_malformed = np.zeros(n, dtype=bool)
    np.logical_or.at(doc_malformed, parent, span_malformed)
    doc_has_content = np.zeros(n, dtype=bool)
    np.logical_or.at(doc_has_content, parent, has_content_span)

    # duplicate offsets within a doc: sort by (parent, offset), compare runs
    off_np = _np(off, fill=np.iinfo(np.int32).min).astype(np.int64)
    doc_dup = np.zeros(n, dtype=bool)
    if len(off_np):
        order = np.lexsort((off_np, parent))
        p_s, o_s = parent[order], off_np[order]
        dup_pos = (p_s[1:] == p_s[:-1]) & (o_s[1:] == o_s[:-1])
        np.logical_or.at(doc_dup, p_s[1:][dup_pos], True)

    reasons = np.full(n, "", dtype=object)
    reasons[~doc_has_content] = R_NO_CONTENT
    reasons[doc_dup] = R_DUP_OFFSET
    reasons[doc_malformed] = R_MALFORMED
    reasons[n_spans > cfg.max_spans_per_doc] = R_TOO_MANY
    reasons[doc_null | (n_spans == 0)] = R_EMPTY

    return batch.append_column(
        "reject_reason", pa.array(reasons, type=pa.string()))
