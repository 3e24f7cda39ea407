"""Per-document extraction core — the kernel both the golden oracle and
every Ray stage call.

Semantics per document (validate -> per-span extract -> reassemble), the
Ray-native restatement of the reference's per-document chain
(ocr_worker.py:170-249):

* validation (ocr_worker.py:170-181 + MAX_NUM_PAGES guard :161-167):
  structural checks emit a reject reason instead of raising;
* ``kind == "text"`` spans: DOM block extraction (htmlx) + line cleaner —
  the HTML analog of get_ocrized_text_from_blocks (ocr_service.py:137-145);
* ``kind == "media"`` spans: simulated OCR pass + line cleaner + quality
  estimate; quality < ``quality.MIN_QUALITY`` triggers ONE force-rotate
  re-OCR (ocr_worker.py:214-222, app/config.py:17) and the retried pass
  wins, unless the first pass took longer than ``span_soft_timeout_ms``;
* output spans keep (kind, media_ref, offset) and are ordered by offset —
  the span-sequence-equality invariant.

All functions are pure; per-doc metrics come back as flat dicts ready to
become Arrow columns, from ``doc_metrics`` — the one per-document rollup,
which the nested and the exploded path both call.
"""

from __future__ import annotations

import re

import numpy as np

from ..config import DEFAULT_CONFIG, PipelineConfig
from .cleaner import CleanStats, clean_lines
from .htmlx import extract_main_text
from .ocr_sim import run_ocr
from .quality import MIN_QUALITY, estimate_quality

VALID_KINDS = ("text", "media")

# num_ents analog (ref doc_analysis.py:36,190-204, app/constants.py:19):
# deterministic capitalized-token entity rule standing in for the
# reference's optional spaCy NER counter
_ENT_RE = re.compile(r"[A-Z][a-z]+")


def count_entities(text: str) -> int:
    return len(_ENT_RE.findall(text))

# reject reasons (validation failure taxonomy; FIXTURES.md archetypes
# empty / malformed / oversize_reject)
R_EMPTY = "empty_document"
R_MALFORMED = "malformed_span"
R_DUP_OFFSET = "duplicate_offsets"
R_TOO_MANY = "too_many_spans"
R_NO_CONTENT = "no_content"


def validate_spans(spans, cfg: PipelineConfig = DEFAULT_CONFIG) -> str | None:
    """Return a reject reason or None if the document is processable.

    Dict-rows face of ``validate_spans_cols`` (golden extractor + unit
    tests); the Arrow stage feeds the cols variant directly."""
    if spans is None or len(spans) == 0:
        return R_EMPTY
    cols = _spans_to_cols(spans)
    return validate_spans_cols(*cols, cfg)


def _spans_to_cols(spans):
    """list-of-dicts -> four parallel lists (None dict -> all-None row,
    which the cols validator classifies malformed exactly like the old
    per-dict check did)."""
    kinds, texts, refs, offs = [], [], [], []
    for s in spans:
        if s is None:
            kinds.append(None)
            texts.append(None)
            refs.append(None)
            offs.append(None)
        else:
            kinds.append(s.get("kind"))
            texts.append(s.get("text"))
            refs.append(s.get("media_ref"))
            offs.append(s.get("offset"))
    return kinds, texts, refs, offs


def validate_spans_cols(kinds, texts, media_refs, offsets,
                        cfg: PipelineConfig = DEFAULT_CONFIG) -> str | None:
    """Columnar validate over four parallel span-field lists.

    Reason priority (fixed, so the scalar kernel and the vectorized stage
    in stages/validate.py agree regardless of span position):
    empty > too_many_spans > malformed > duplicate_offsets > no_content.
    """
    n = len(kinds)
    if n == 0:
        return R_EMPTY
    if n > cfg.max_spans_per_doc:
        return R_TOO_MANY
    seen_offsets = set()
    malformed = dup = False
    any_content = False
    for kind, text, media_ref, offset in zip(kinds, texts, media_refs,
                                             offsets):
        if (kind not in VALID_KINDS or text is None or media_ref is None
                or offset is None):
            malformed = True
            continue
        if kind == "text" and media_ref != "":
            malformed = True
        if kind == "media" and media_ref == "":
            malformed = True
        if offset in seen_offsets:
            dup = True
        seen_offsets.add(offset)
        if (kind == "text" and text.strip()) or kind == "media":
            any_content = True
    if malformed:
        return R_MALFORMED
    if dup:
        return R_DUP_OFFSET
    if not any_content:
        return R_NO_CONTENT
    return None


def extract_span(
    kind: str,
    text: str,
    media_ref: str,
    cfg: PipelineConfig = DEFAULT_CONFIG,
    stats: CleanStats | None = None,
) -> tuple[str, dict]:
    """Extract one span. Returns (clean_text, meta).

    meta: {"quality": float|-1, "retried": bool, "confs": list[float]}
    (quality/-confidence only meaningful for media spans).
    """
    st = stats if stats is not None else CleanStats()
    if kind == "text":
        cleaned, _ = clean_lines(extract_main_text(text), stats=st)
        return cleaned, {"quality": -1.0, "retried": False, "confs": []}

    # media span: OCR -> clean -> quality gate -> maybe force-rotate retry
    import time as _time

    t0 = _time.monotonic()
    raw, confs = run_ocr(media_ref)
    first_pass_ms = (_time.monotonic() - t0) * 1000.0
    pass_stats = CleanStats()
    cleaned, _ = clean_lines(raw, stats=pass_stats)
    q = estimate_quality(cleaned)
    retried = False
    # straggler bound: skip the retry when the first pass already blew the
    # per-span budget (ocr_service.py:40-41 timeout analog)
    if q < MIN_QUALITY and first_pass_ms <= cfg.span_soft_timeout_ms:
        retried = True
        raw, confs = run_ocr(media_ref, force_rotate=True)
        pass_stats = CleanStats()
        cleaned, _ = clean_lines(raw, stats=pass_stats)
        q = estimate_quality(cleaned)
    st.merge(pass_stats)  # only the winning pass lands in the metrics
    return cleaned, {"quality": q, "retried": retried, "confs": confs}


def conf_histogram(confs, bins: int = 10) -> list[int]:
    """Confidence histogram, bins over [0, 1] (1.0 lands in the last)."""
    if len(confs) == 0:
        return [0] * bins
    idx = (np.asarray(confs, dtype=np.float64) * bins).astype(np.int64)
    return np.bincount(np.clip(idx, 0, bins - 1), minlength=bins).tolist()


def extract_doc(
    doc_id: str,
    spans,
    cfg: PipelineConfig = DEFAULT_CONFIG,
) -> dict:
    """Full per-document extraction (dict-rows face, used by the golden
    extractor and unit tests; the Arrow stage walks the ListArray
    offsets and calls ``extract_doc_cols`` without building span dicts).

    Returns a dict with either ``{"ok": True, "spans": [...], "metrics": {...}}``
    (spans ordered by offset) or ``{"ok": False, "reason": str}``.
    """
    if spans is None or len(spans) == 0:
        return {"ok": False, "doc_id": doc_id, "reason": R_EMPTY}
    cols = _spans_to_cols(spans)
    res = extract_doc_cols(doc_id, *cols, cfg)
    if res["ok"]:
        res = dict(res)
        res["spans"] = [
            {"kind": k, "text": t, "media_ref": r, "offset": o}
            for k, t, r, o in zip(res.pop("kinds"), res.pop("texts"),
                                  res.pop("refs"), res.pop("offsets"))]
    return res


def extract_doc_cols(
    doc_id: str,
    kinds,
    texts,
    media_refs,
    offsets,
    cfg: PipelineConfig = DEFAULT_CONFIG,
) -> dict:
    """Columnar per-document extraction over parallel span-field lists:
    validate, extract each span in offset order, ``doc_metrics``.

    Returns ``{"ok": True, "kinds": [...], "texts": [...], "refs": [...],
    "offsets": [...], "metrics": {...}}`` (span fields ordered by offset)
    or ``{"ok": False, "reason": str}``.
    """
    reason = validate_spans_cols(kinds, texts, media_refs, offsets, cfg)
    if reason is not None:
        return {"ok": False, "doc_id": doc_id, "reason": reason}

    order = sorted(range(len(offsets)), key=offsets.__getitem__)
    out_kinds = [kinds[i] for i in order]
    out_texts: list[str] = []
    qualities: list[float] = []
    retried: list[bool] = []
    confs: list[float] = []
    st = CleanStats()
    num_ents = 0
    for i in order:
        cleaned, meta = extract_span(kinds[i], texts[i], media_refs[i], cfg,
                                     stats=st)
        num_ents += count_entities(cleaned)
        out_texts.append(cleaned)
        qualities.append(meta["quality"])
        retried.append(meta["retried"])
        confs.extend(meta["confs"])
    return {"ok": True, "doc_id": doc_id,
            "kinds": out_kinds,
            "texts": out_texts,
            "refs": [media_refs[i] for i in order],
            "offsets": [offsets[i] for i in order],
            "metrics": doc_metrics(out_kinds, qualities, retried, confs, st,
                                   num_ents)}


def doc_metrics(kinds, qualities, retried, confs, stats: CleanStats,
                num_ents: int) -> dict:
    """The per-document metric columns (``METRICS_FIELDS`` minus doc_id)
    from a doc's span results: parallel per-span lists in OFFSET order,
    the doc's flat OCR confidences (only media spans carry any), its
    merged line stats and its entity count.

    The one rollup both physical paths call (``extract_doc_cols`` and the
    exploded ``reassemble_bucket``).  Media qualities are summed in offset
    order, so ``quality_mean`` is bit-identical whichever path ran."""
    media = [i for i, k in enumerate(kinds) if k == "media"]
    qs = [qualities[i] for i in media]
    return {
        "n_spans": len(kinds),
        "media_spans": len(media),
        "blocks_kept": stats.kept_lines,
        "blocks_dropped": stats.dropped_lines,
        "clean_chars": stats.total_clean_chars,
        "original_chars": stats.total_original_chars,
        "min_length_lines": stats.min_length_lines,
        "forbidden_lines": stats.forbidden_lines,
        "low_alpha_lines": stats.low_alpha_lines,
        "high_digit_lines": stats.high_digit_lines,
        "non_ascii_lines": stats.non_ascii_lines,
        "num_ents": num_ents,
        "quality_mean": round(sum(qs) / len(qs), 4) if qs else -1.0,
        "retried_spans": sum(int(retried[i]) for i in media),
        "conf_hist": conf_histogram(confs),
    }
