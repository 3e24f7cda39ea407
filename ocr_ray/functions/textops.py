"""Text-analysis operators over the flat ``documents`` table
(doc_id:int64, text, lang, source, n_chars) — the engine's text-quality /
token / language / fingerprint family (SURVEY.md "text analysis"), each
vectorized per batch and, where expressible, with an exact DuckDB oracle.
"""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ._num import round_half_up, np_round_half_up
from .relational import _gb

# Explicit ASCII whitespace, pinned on BOTH engines: Python's \s and
# str.strip() are Unicode-wide, DuckDB's trim() strips only spaces and
# RE2's \s is ASCII-only — NBSP/vertical-tab inputs diverge otherwise.
_ASCII_WS = " \t\n\r\f\v"
_ASCII_WS_RE = r"[ \t\n\r\f\v]+"
_SQL_WS = "' ' || chr(9) || chr(10) || chr(13) || chr(12) || chr(11)"


def _read(sf_dir: str, columns=None):
    import ray.data as rd

    from ._io import clean_read

    return clean_read(f"{sf_dir}/documents.parquet", columns=columns)


# ----------------------------------------------------------- lang stats

def doc_lang_stats(sf_dir: str):
    from ray.data.aggregate import Max, Min, Sum

    ds = _read(sf_dir, ["lang", "n_chars"])

    def partial(batch: pa.Table) -> pa.Table:
        return _gb(batch, ["lang"],
                   [("n_chars", "count_all"), ("n_chars", "sum"),
                    ("n_chars", "max"), ("n_chars", "min")],
                   ["n_docs", "sum_chars", "max_chars", "min_chars"])

    agg = ds.map_batches(partial, batch_format="pyarrow").groupby("lang") \
        .aggregate(Sum("n_docs", alias_name="n_docs"),
                   Sum("sum_chars", alias_name="sum_chars"),
                   Max("max_chars", alias_name="max_chars"),
                   Min("min_chars", alias_name="min_chars"))

    def finalize(batch: pa.Table) -> pa.Table:
        return pa.table({
            "lang": batch["lang"],
            "n_docs": batch["n_docs"],
            "sum_chars": batch["sum_chars"],
            "max_chars": batch["max_chars"],
            "min_chars": batch["min_chars"],
            "avg_chars": round_half_up(pc.divide(pc.cast(
                batch["sum_chars"], pa.float64()),
                pc.cast(batch["n_docs"], pa.float64())), 6),
        })

    return agg.map_batches(finalize, batch_format="pyarrow")


DOC_LANG_STATS_SQL = """
SELECT lang, count(*) AS n_docs, CAST(sum(n_chars) AS BIGINT) AS sum_chars,
       max(n_chars) AS max_chars, min(n_chars) AS min_chars,
       floor((sum(n_chars) / CAST(count(*) AS DOUBLE)) * 1000000.0 + 0.5) / 1000000.0 AS avg_chars
FROM documents GROUP BY lang
"""


# --------------------------------------------------------- token counts

def doc_token_counts(sf_dir: str):
    """Whitespace token count per doc (the num_wds statistic,
    doc_analysis.py:203)."""
    ds = _read(sf_dir, ["doc_id", "text"])

    def count(batch: pa.Table) -> pa.Table:
        s = batch["text"].to_pandas().str.strip(_ASCII_WS)
        n = s.str.split(_ASCII_WS_RE, regex=True).map(
            lambda t: 0 if t == [""] else len(t)).astype("int64")
        return pa.table({"doc_id": batch["doc_id"],
                         "n_tokens": pa.array(n, pa.int64())})

    return ds.map_batches(count, batch_format="pyarrow", batch_size=4096)


DOC_TOKEN_COUNTS_SQL = f"""
SELECT doc_id,
       CASE WHEN length(trim(text, {_SQL_WS})) = 0 THEN 0
            ELSE array_length(string_split_regex(
                   trim(text, {_SQL_WS}), '[ \t\n\r\f\v]+')) END AS n_tokens
FROM documents
"""


# ------------------------------------------------------ char plausibility

def doc_char_quality(sf_dir: str):
    """CER-style plausible-character ratio per doc
    (ocr_evaluation.py:50-57 semantics, ascii-safe char class so the SQL
    oracle is byte-identical)."""
    ds = _read(sf_dir, ["doc_id", "text"])

    def score(batch: pa.Table) -> pa.Table:
        raw = batch["text"].to_pandas()
        s = raw.str.lower()
        good = s.str.count(r"[a-z0-9 ]")
        # denominator = ORIGINAL length: Unicode lower() can change the
        # code-point count and the oracle divides by length(text)
        total = raw.str.len()
        ratio = np_round_half_up((good / total).where(total > 0, 0.0).to_numpy(), 6)
        return pa.table({"doc_id": batch["doc_id"],
                         "char_quality": pa.array(ratio, pa.float64())})

    return ds.map_batches(score, batch_format="pyarrow", batch_size=4096)


DOC_CHAR_QUALITY_SQL = """
SELECT doc_id,
       CASE WHEN length(text) = 0 THEN 0.0
            ELSE floor((length(regexp_replace(lower(text), '[^a-z0-9 ]', '', 'g'))
                       / CAST(length(text) AS DOUBLE)) * 1000000.0 + 0.5) / 1000000.0 END AS char_quality
FROM documents
"""


def doc_compression_stats(sf_dir: str, level: int = 6):
    """zlib compression-ratio quality signal per doc — the
    Dolma/RedPajama junk detector: machine-generated/looping text
    compresses far below prose, random noise barely at all.  Emits
    exact int64 (n_bytes, compressed_bytes) — the consumer divides —
    plus the float ratio for convenience.  Deterministic (fixed zlib
    level, byte-exact across platforms for a given zlib build;
    pytest-gated property oracle — not SQL-expressible).  Map-only."""
    import zlib

    ds = _read(sf_dir, ["doc_id", "text"])

    def score(batch: pa.Table, level=level) -> pa.Table:
        n_b, c_b, ratio = [], [], []
        for t in batch["text"].to_pylist():
            raw = t.encode("utf-8")
            comp = len(zlib.compress(raw, level))
            n_b.append(len(raw))
            c_b.append(comp)
            ratio.append(round(comp / len(raw), 6) if raw else 1.0)
        return pa.table({"doc_id": batch["doc_id"],
                         "n_bytes": pa.array(n_b, pa.int64()),
                         "compressed_bytes": pa.array(c_b, pa.int64()),
                         "compression_ratio": pa.array(ratio,
                                                       pa.float64())})

    return ds.map_batches(score, batch_format="pyarrow", batch_size=4096)


# ------------------------------------------------------ line-level stats

def doc_line_stats(sf_dir: str, min_len: int = 10):
    """Per-doc kept/short line counts — the SQL-checkable core of the
    Cleaner's min-length rule (text_processing.py:100-101)."""
    ds = _read(sf_dir, ["doc_id", "text"])

    def stats(batch: pa.Table) -> pa.Table:
        out_id, out_lines, out_short = [], [], []
        for doc_id, text in zip(batch["doc_id"].to_pylist(),
                                batch["text"].to_pylist()):
            lines = text.split("\n")
            short = sum(1 for ln in lines if len(ln.strip()) < min_len)
            out_id.append(doc_id)
            out_lines.append(len(lines))
            out_short.append(short)
        return pa.table({"doc_id": pa.array(out_id, pa.int64()),
                         "n_lines": pa.array(out_lines, pa.int64()),
                         "short_lines": pa.array(out_short, pa.int64())})

    return ds.map_batches(stats, batch_format="pyarrow", batch_size=4096)


DOC_LINE_STATS_SQL = """
SELECT doc_id, count(*) AS n_lines,
       count(*) FILTER (WHERE length(trim(line)) < 10) AS short_lines
FROM (SELECT doc_id, unnest(string_split(text, chr(10))) AS line FROM documents)
GROUP BY doc_id
"""


# -------------------------------------------------------- keyword match

ANALYTICS_KEYWORDS = ("spark", "vector", "query", "shuffle", "join")


def keyword_doc_freq(sf_dir: str, keywords=ANALYTICS_KEYWORDS):
    """Document frequency per keyword — broadcast keyword list matched
    per batch (substring semantics to stay oracle-exact)."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, ["text"])

    def partial(batch: pa.Table, kws=None) -> pa.Table:
        s = batch["text"].to_pandas()
        rows = [{"keyword": kw, "n_docs": int(s.str.contains(kw, regex=False).sum())}
                for kw in kws]
        return pa.Table.from_pylist(rows)

    return (ds.map_batches(partial, batch_format="pyarrow", batch_size=8192,
                           fn_kwargs={"kws": list(keywords)})
            .groupby("keyword").aggregate(Sum("n_docs", alias_name="n_docs")))


KEYWORD_DOC_FREQ_SQL = """
SELECT kw AS keyword, count(*) FILTER (WHERE contains(text, kw)) AS n_docs
FROM documents, (SELECT unnest(['spark','vector','query','shuffle','join']) AS kw)
GROUP BY kw
"""


# ---------------------------------------------------------- exact dedup

def _md5_col(texts: pd.Series) -> list[str]:
    return [hashlib.md5(t.encode()).hexdigest() for t in texts]


def exact_dedup_groups(sf_dir: str):
    """Exact dedup: content hash -> (survivor, copy count).  The classic
    hash-partition + per-group-first (SURVEY.md §2.7): hashing is a
    vectorized map; the groupby shuffles only (hash, doc_id)."""
    from ray.data.aggregate import Count, Min

    ds = _read(sf_dir, ["doc_id", "text"])

    def add_hash(batch: pa.Table) -> pa.Table:
        return pa.table({
            "text_md5": pa.array(_md5_col(batch["text"].to_pandas()), pa.string()),
            "doc_id": batch["doc_id"],
        })

    return (ds.map_batches(add_hash, batch_format="pyarrow", batch_size=8192)
            .groupby("text_md5")
            .aggregate(Min("doc_id", alias_name="keep_doc_id"),
                       Count(alias_name="n_copies")))


EXACT_DEDUP_SQL = """
SELECT md5(text) AS text_md5, min(doc_id) AS keep_doc_id, count(*) AS n_copies
FROM documents GROUP BY md5(text)
"""


# ------------------------------------------------- language ID heuristic

_STOPWORDS = {
    "en": {"the", "and", "of", "to", "a", "in", "is", "for", "on", "with"},
    "de": {"der", "die", "das", "und", "ist", "von", "mit", "für", "auf", "ein"},
    "fr": {"le", "la", "les", "et", "de", "est", "pour", "dans", "un", "une"},
    "es": {"el", "la", "los", "las", "y", "de", "es", "para", "en", "un"},
}


def lang_id(sf_dir: str):
    """Stopword-vote language ID (n-gram-free heuristic; deterministic).
    Round 2: gained an exact SQL oracle — the vote is list_filter + IN
    per language with the same de>en>es>fr tie-break."""
    ds = _read(sf_dir, ["doc_id", "text"])
    word_re = re.compile(r"[a-zà-ÿä-ü]+")

    def predict(batch: pa.Table) -> pa.Table:
        preds = []
        for text in batch["text"].to_pylist():
            toks = word_re.findall(text.lower())
            votes = {lang: sum(t in sw for t in toks)
                     for lang, sw in _STOPWORDS.items()}
            best = max(sorted(votes), key=lambda k: votes[k])
            preds.append(best if votes[best] > 0 else "unk")
        return pa.table({"doc_id": batch["doc_id"],
                         "pred_lang": pa.array(preds, pa.string())})

    return ds.map_batches(predict, batch_format="pyarrow", batch_size=4096)


def _sql_list(words) -> str:
    return "[" + ", ".join(f"'{w}'" for w in sorted(words)) + "]"


# mirror of lang_id: per-language stopword vote with the Python
# tie-break (max over languages in sorted order: de, en, es, fr)
LANG_ID_SQL = f"""
WITH t AS (
  SELECT doc_id, regexp_extract_all(lower(text), '[a-zà-ÿä-ü]+') AS toks
  FROM documents
), v AS (
  SELECT doc_id,
         len(list_filter(toks, x -> list_contains({_sql_list(_STOPWORDS["en"])}, x))) AS en,
         len(list_filter(toks, x -> list_contains({_sql_list(_STOPWORDS["de"])}, x))) AS de,
         len(list_filter(toks, x -> list_contains({_sql_list(_STOPWORDS["fr"])}, x))) AS fr,
         len(list_filter(toks, x -> list_contains({_sql_list(_STOPWORDS["es"])}, x))) AS es
  FROM t
)
SELECT doc_id,
       CASE WHEN greatest(en, de, fr, es) = 0 THEN 'unk'
            WHEN de >= en AND de >= es AND de >= fr THEN 'de'
            WHEN en >= es AND en >= fr THEN 'en'
            WHEN es >= fr THEN 'es'
            ELSE 'fr' END AS pred_lang
FROM v
"""


# ------------------------------------------------ entity-count analog

def doc_entity_counts(sf_dir: str):
    """num_ents analog (ref doc_analysis.py:190-204, app/constants.py:19):
    deterministic capitalized-token rule — count of [A-Z][a-z]+ runs —
    standing in for the reference's optional NER entity counter, with an
    exact SQL oracle."""
    ds = _read(sf_dir, ["doc_id", "text"])
    ent_re = re.compile(r"[A-Z][a-z]+")

    def count(batch: pa.Table) -> pa.Table:
        n = [len(ent_re.findall(t)) for t in batch["text"].to_pylist()]
        return pa.table({"doc_id": batch["doc_id"],
                         "n_ents": pa.array(n, pa.int64())})

    return ds.map_batches(count, batch_format="pyarrow", batch_size=4096)


DOC_ENTITY_COUNTS_SQL = """
SELECT doc_id,
       CAST(length(regexp_extract_all(text, '[A-Z][a-z]+')) AS BIGINT) AS n_ents
FROM documents
"""


# ------------------------------------------------------- fingerprinting

def doc_fingerprints(sf_dir: str, window: int = 8):
    """Winnowing-style fingerprint: min 60-bit md5-window hash per doc
    over ASCII-whitespace token windows.  Round 2: md5-based (one digest
    per window, ~2x cheaper than the round-1 sha256 and, crucially,
    replicable in DuckDB — the query gained an exact SQL oracle)."""
    _win_re = re.compile(_ASCII_WS_RE)

    ds = _read(sf_dir, ["doc_id", "text"])

    def fp64(s: str) -> int:
        return int(hashlib.md5(s.encode()).hexdigest()[:15], 16)

    def fp(batch: pa.Table, w=window) -> pa.Table:
        out = []
        for text in batch["text"].to_pylist():
            toks = _win_re.split(text.strip(_ASCII_WS))
            if toks == [""]:
                toks = []
            if len(toks) <= w:
                out.append(fp64(" ".join(toks)))
                continue
            out.append(min(fp64(" ".join(toks[i:i + w]))
                           for i in range(len(toks) - w + 1)))
        return pa.table({"doc_id": batch["doc_id"],
                         "fingerprint": pa.array(out, pa.int64())})

    return ds.map_batches(fp, batch_format="pyarrow", batch_size=2048)


# min over all 8-token windows of the 60-bit md5 prefix; list slicing is
# 1-based INCLUSIVE in DuckDB so t[i:i+7] is an 8-element window
DOC_FINGERPRINTS_SQL = f"""
WITH toks AS (
  SELECT doc_id,
         CASE WHEN length(trim(text, {_SQL_WS})) = 0 THEN CAST([] AS VARCHAR[])
              ELSE string_split_regex(trim(text, {_SQL_WS}), '[ \t\n\r\f\v]+')
         END AS t
  FROM documents
)
SELECT doc_id,
       min(CAST(('0x' || substr(md5(array_to_string(t[i:i+7], ' ')), 1, 15))
                AS BIGINT)) AS fingerprint
FROM (SELECT doc_id, t,
             unnest(range(1, greatest(len(t) - 7, 1) + 1)) AS i
      FROM toks)
GROUP BY doc_id
"""


# --------------------------------------------------- composite quality

def doc_quality_scores(sf_dir: str):
    """Length/alpha/space composite quality score, fully SQL-expressible."""
    ds = _read(sf_dir, ["doc_id", "text"])

    def score(batch: pa.Table) -> pa.Table:
        s = batch["text"].to_pandas()
        length = s.str.len()
        alpha = s.str.count(r"[a-zA-Z]")
        space = s.str.count(r" ")
        len_score = np.minimum(length / 500.0, 1.0)
        alpha_ratio = (alpha / length).where(length > 0, 0.0)
        space_ratio = (space / length).where(length > 0, 0.0)
        q = np_round_half_up((0.4 * len_score + 0.4 * alpha_ratio
                              + 0.2 * space_ratio).to_numpy(), 6)
        return pa.table({"doc_id": batch["doc_id"],
                         "quality": pa.array(q, pa.float64())})

    return ds.map_batches(score, batch_format="pyarrow", batch_size=4096)


DOC_QUALITY_SQL = """
WITH parts AS (
  SELECT doc_id,
         CAST(length(text) AS DOUBLE) AS len,
         CAST(length(regexp_replace(text, '[^a-zA-Z]', '', 'g')) AS DOUBLE) AS alpha,
         CAST(length(text) - length(replace(text, ' ', '')) AS DOUBLE) AS spaces
  FROM documents
)
SELECT doc_id,
       floor((0.4 * least(len / 500.0, 1.0)
           + 0.4 * CASE WHEN len = 0 THEN 0.0 ELSE alpha / len END
           + 0.2 * CASE WHEN len = 0 THEN 0.0 ELSE spaces / len END) * 1000000.0 + 0.5) / 1000000.0 AS quality
FROM parts
"""


# ----------------------------------------------------- summarization

def doc_summaries(sf_dir: str):
    """Extractive top-5-sentence summaries (A7 parity, summarization.py
    semantics; deterministic scorer — rows-only oracle)."""
    from ..kernels.summarize import summarize

    ds = _read(sf_dir, ["doc_id", "text"])

    def run(batch: pa.Table) -> pa.Table:
        outs = [summarize(t) for t in batch["text"].to_pylist()]
        return pa.table({"doc_id": batch["doc_id"],
                         "summary": pa.array(outs, pa.string()),
                         "summary_chars": pa.array(
                             [len(o) for o in outs], pa.int64())})

    return ds.map_batches(run, batch_format="pyarrow", batch_size=2048)


def semantic_keyword_hits(sf_dir: str):
    """Vector (one-class) keyword search over documents — A6/J2 parity
    (vector_searcher.py semantics, deterministic hash embeddings;
    rows-only oracle).  The searcher is built once, on the driver, from
    the handful of embedded keywords and ships with the callable to
    plain Ray Data tasks."""
    from ray.data.aggregate import Count, Sum

    class Searcher:
        def __init__(self):
            from ..kernels.vecsearch import VectorKeywordSearcher
            self.model = VectorKeywordSearcher(list(ANALYTICS_KEYWORDS))

        def __call__(self, batch: pa.Table) -> pa.Table:
            # span-level output (round 2): each resolved, de-overlapped
            # span is one row — parity with the reference's resolved
            # filter_spans hits (vector_searcher.py:32-48), not just a
            # per-doc count
            rows = []
            for doc_id, text in zip(batch["doc_id"].to_pylist(),
                                    batch["text"].to_pylist()):
                for h in self.model.search(text):
                    rows.append({"doc_id": doc_id, "start": h["start"],
                                 "end": h["end"], "phrase": h["phrase"],
                                 "score": h["score"]})
            return pa.Table.from_pylist(rows, schema=pa.schema([
                ("doc_id", pa.int64()), ("start", pa.int64()),
                ("end", pa.int64()), ("phrase", pa.string()),
                ("score", pa.float64())]))

    ds = _read(sf_dir, ["doc_id", "text"])
    return ds.map_batches(Searcher(), batch_format="pyarrow", batch_size=256)


def degrade_payload(extracted_ds, level: int = 1):
    """Payload-degradation ladder (M13 parity, ocr_worker.py:99-115
    shorten_analysis/shorten_payload: on a 413 the reference first
    replaces the full text with its summary, then — "for good" — drops
    the highlight metadata entirely).

    Columnar rendition over extracted (doc_id, spans, ...) rows:
    * level 1 — every text-bearing span's text is replaced by its
      extractive summary (text -> summary);
    * level 2 — additionally the per-span payload is dropped to
      metadata-only spans (text='', the ANALYSIS_META -> [] analog),
      leaving just the span skeleton (kind, media_ref, offset).
    Streaming map; emits a payload_chars column so the shrink is
    observable/testable at each rung.
    """
    from ..kernels.summarize import summarize

    def shorten(batch: pa.Table, level=level) -> pa.Table:
        rows = []
        for row in batch.select(["doc_id", "spans"]).to_pylist():
            spans = []
            for s in row["spans"]:
                text = s["text"]
                if text:
                    text = "" if level >= 2 else summarize(text)
                spans.append({"kind": s["kind"], "text": text,
                              "media_ref": s["media_ref"],
                              "offset": s["offset"]})
            rows.append({
                "doc_id": row["doc_id"],
                "spans": spans,
                "payload_chars": sum(len(s["text"]) for s in spans),
            })
        from ..schema import SPANS_TYPE
        return pa.Table.from_pylist(rows, schema=pa.schema([
            ("doc_id", pa.string()), ("spans", SPANS_TYPE),
            ("payload_chars", pa.int64())]))

    return extracted_ds.map_batches(shorten, batch_format="pyarrow",
                                    batch_size=256)


def doc_source_stats(sf_dir: str):
    """Per-source doc counts + char totals (second grouping key of the
    flat corpus)."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, ["source", "n_chars"])

    def partial(batch: pa.Table) -> pa.Table:
        return _gb(batch, ["source"],
                   [("n_chars", "count_all"), ("n_chars", "sum")],
                   ["n_docs", "sum_chars"])

    return ds.map_batches(partial, batch_format="pyarrow").groupby(
        "source").aggregate(Sum("n_docs", alias_name="n_docs"),
                            Sum("sum_chars", alias_name="sum_chars"))


DOC_SOURCE_SQL = """
SELECT source, count(*) AS n_docs, CAST(sum(n_chars) AS BIGINT) AS sum_chars
FROM documents GROUP BY source
"""


# BPE-ish subword-style tokenization: letter runs, digit runs, and single
# punctuation marks each count as a token (ascii classes so the Python
# and RE2/DuckDB regex engines agree byte for byte).
# explicit ASCII whitespace: Python's \s is Unicode-wide, RE2's is ASCII
_BPE_RE = "[a-zA-Z]+|[0-9]+|[^a-zA-Z0-9 \\t\\n\\r\\f\\v]"


def doc_bpe_token_counts(sf_dir: str):
    """Subword-style token counts per doc (brief: "token counting —
    whitespace + a BPE-ish regex"; whitespace variant: doc_token_counts)."""
    import re

    ds = _read(sf_dir, ["doc_id", "text"])
    rx = re.compile(_BPE_RE)

    def count(batch: pa.Table) -> pa.Table:
        n = [len(rx.findall(t)) for t in batch["text"].to_pylist()]
        return pa.table({"doc_id": batch["doc_id"],
                         "n_bpe_tokens": pa.array(n, pa.int64())})

    return ds.map_batches(count, batch_format="pyarrow", batch_size=4096)


DOC_BPE_TOKEN_SQL = """
SELECT doc_id,
       CAST(length(regexp_extract_all(text, '[a-zA-Z]+|[0-9]+|[^a-zA-Z0-9 \t\n\r\f\v]')) AS BIGINT) AS n_bpe_tokens
FROM documents
"""


def doc_sample_stats(sf_dir: str):
    """Deterministic 1/16 sample (docs whose md5(doc_id) starts with '0')
    + rollup — reproducible sampling both engines can express, the
    hash-sample analog of ds.random_sample for auditable subsets."""
    ds = _read(sf_dir, ["doc_id", "n_chars"])

    def pick(batch: pa.Table) -> pa.Table:
        keep = [hashlib.md5(str(d).encode()).hexdigest().startswith("0")
                for d in batch["doc_id"].to_pylist()]
        sel = batch.filter(pa.array(keep))
        n = sel.num_rows
        total = sum(sel["n_chars"].to_pylist()) if n else 0
        return pa.table({"n_docs": pa.array([n], pa.int64()),
                         "sum_chars": pa.array([total], pa.int64())})

    from ray.data.aggregate import Sum

    # global aggregate() returns a plain dict -> wrap as a one-row table
    agg = (ds.map_batches(pick, batch_format="pyarrow", batch_size=8192)
           .aggregate(Sum("n_docs", alias_name="n_docs"),
                      Sum("sum_chars", alias_name="sum_chars")))
    return pa.table({"n_docs": pa.array([agg["n_docs"] or 0], pa.int64()),
                     "sum_chars": pa.array([agg["sum_chars"] or 0], pa.int64())})


DOC_SAMPLE_SQL = """
SELECT count(*) AS n_docs, CAST(sum(n_chars) AS BIGINT) AS sum_chars
FROM documents WHERE md5(CAST(doc_id AS VARCHAR)) LIKE '0%'
"""


# ------------------------------------- canonicalized (fuzzy-exact) dedup

_ASCII_UPPER = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
_ASCII_LOWER = "abcdefghijklmnopqrstuvwxyz"
_LOWER_TABLE = str.maketrans(_ASCII_UPPER, _ASCII_LOWER)
_WS_COLLAPSE_RE = re.compile(_ASCII_WS_RE)


def canonical_text_key(text: str) -> str:
    """Whitespace/case-canonical form: strip ASCII whitespace, collapse
    internal runs to one space, ASCII-lowercase.  Lowercasing is
    ASCII-ONLY (str.translate over A-Z) so the Python side and the SQL
    oracle's translate() agree byte-for-byte on ANY input — unicode
    lower() rules differ between Python and DuckDB (e.g. 'İ')."""
    return _WS_COLLAPSE_RE.sub(
        " ", text.strip(_ASCII_WS)).translate(_LOWER_TABLE)


def normalized_dedup_groups(sf_dir: str):
    """Canonicalized exact dedup: md5 over the whitespace/case-canonical
    text -> (survivor, copy count).  The cheap tier between byte-exact
    dedup (`exact_dedup_groups`) and MinHash near-dup — catches
    re-wrapped / re-cased copies (the most common crawl duplicate) with
    the same scale shape: vectorizable map + a (hash, doc_id)-only
    shuffle; the full text never moves."""
    from ray.data.aggregate import Count, Min

    ds = _read(sf_dir, ["doc_id", "text"])

    def add_hash(batch: pa.Table) -> pa.Table:
        keys = [hashlib.md5(canonical_text_key(t).encode()).hexdigest()
                for t in batch["text"].to_pylist()]
        return pa.table({"canon_md5": pa.array(keys, pa.string()),
                         "doc_id": batch["doc_id"]})

    return (ds.map_batches(add_hash, batch_format="pyarrow", batch_size=8192)
            .groupby("canon_md5")
            .aggregate(Min("doc_id", alias_name="keep_doc_id"),
                       Count(alias_name="n_copies")))


# translate() gives DuckDB an ASCII-only lower that matches
# str.translate exactly; trim/regexp use the pinned ASCII ws set.
NORMALIZED_DEDUP_SQL = f"""
SELECT md5(translate(regexp_replace(trim(text, {_SQL_WS}),
                                    '{_ASCII_WS_RE}', ' ', 'g'),
           '{_ASCII_UPPER}', '{_ASCII_LOWER}')) AS canon_md5,
       min(doc_id) AS keep_doc_id, count(*) AS n_copies
FROM documents GROUP BY 1
"""


# ---------------------------------------------- top terms per language

_TERM_RE = re.compile(r"[A-Za-z0-9]+")


def top_terms_per_lang(sf_dir: str, k: int = 10):
    """Distributed word count + per-language top-k (count DESC, token ASC
    — fully deterministic).  Scale shape: tokens are counted INSIDE each
    batch first (Zipf reuse makes each partial ~vocabulary-sized, not
    corpus-sized), the (lang, token) shuffle then moves at most one row
    per distinct pair per block; after the global sum, each block prunes
    to k rows per lang (global top-k is a subset of the union of
    per-block top-ks) so the final per-language rank sees O(k x blocks)
    rows for a handful of groups.  Tokens are matched case-SENSITIVELY
    as ASCII [A-Za-z0-9]+ runs and lowercased afterwards: the match
    never depends on unicode lower() rules, so Python and the SQL
    oracle agree on any input."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, ["lang", "text"])

    def partial(batch: pa.Table) -> pa.Table:
        counts: dict[tuple[str, str], int] = {}
        for lg, tx in zip(batch["lang"].to_pylist(),
                          batch["text"].to_pylist()):
            for tok in _TERM_RE.findall(tx):
                key = (lg, tok.translate(_LOWER_TABLE))
                counts[key] = counts.get(key, 0) + 1
        keys = list(counts)
        return pa.table({
            "lang": pa.array([a for a, _ in keys], pa.string()),
            "token": pa.array([b for _, b in keys], pa.string()),
            "n": pa.array([counts[x] for x in keys], pa.int64())})

    counted = (ds.map_batches(partial, batch_format="pyarrow",
                              batch_size=2048)
               .groupby(["lang", "token"])
               .aggregate(Sum("n", alias_name="n")))

    def local_prune(batch: pa.Table, k=k) -> pa.Table:
        df = batch.to_pandas().sort_values(
            ["lang", "n", "token"], ascending=[True, False, True])
        return pa.Table.from_pandas(
            df.groupby("lang", as_index=False).head(k),
            preserve_index=False)

    def rank_group(group: pd.DataFrame, k=k) -> pd.DataFrame:
        g = group.sort_values(["n", "token"],
                              ascending=[False, True]).head(k).copy()
        g["rank"] = np.arange(1, len(g) + 1, dtype=np.int64)
        return g[["lang", "rank", "token", "n"]]

    return (counted.map_batches(local_prune, batch_format="pyarrow")
            .groupby("lang").map_groups(rank_group, batch_format="pandas"))


TOP_TERMS_PER_LANG_SQL = """
WITH toks AS (
  SELECT lang, lower(tok) AS token
  FROM (SELECT lang,
               unnest(regexp_extract_all(text, '[A-Za-z0-9]+')) AS tok
        FROM documents)
), counts AS (
  SELECT lang, token, count(*) AS n FROM toks GROUP BY 1, 2
)
SELECT lang,
       CAST(row_number() OVER (PARTITION BY lang
                               ORDER BY n DESC, token ASC) AS BIGINT) AS rank,
       token, n
FROM counts
QUALIFY rank <= 10
"""


def mixed_language_stats(sf_dir: str):
    """Per-LINE language composition (the mixed-language-document
    filter signal a multilingual corpus needs: lang_id is per-doc and
    silently averages a 50/50 en/de page into one label).  Each
    non-empty line votes with the shared stopword rule; per doc:
    n_lines, the majority line language (count desc, then the lang_id
    de>en>es>fr precedence via sorted-key max) and its fraction.
    Docs with no non-empty line read ('unk', 0.0).

    Map-only over the pruned scan; exact SQL mirror
    (MIXED_LANGUAGE_SQL — unnest + per-line CASE + windowed top-1),
    pytest-gated.  Returns (doc_id, n_lines, top_lang, top_frac)."""
    ds = _read(sf_dir, ["doc_id", "text"])
    word_re = re.compile(r"[a-zà-ÿä-ü]+")

    def stats(batch: pa.Table) -> pa.Table:
        out_id, out_n, out_lang, out_frac = [], [], [], []
        for doc_id, text in zip(batch["doc_id"].to_pylist(),
                                batch["text"].to_pylist()):
            lines = [ln for ln in (text or "").split("\n")
                     if ln.strip(" ")]
            counts: dict[str, int] = {}
            for ln in lines:
                toks = word_re.findall(ln.lower())
                votes = {lang: sum(t in sw for t in toks)
                         for lang, sw in _STOPWORDS.items()}
                best = max(sorted(votes), key=lambda k: votes[k])
                lang = best if votes[best] > 0 else "unk"
                counts[lang] = counts.get(lang, 0) + 1
            out_id.append(doc_id)
            out_n.append(len(lines))
            if lines:
                top = max(sorted(counts), key=lambda k: counts[k])
                out_lang.append(top)
                out_frac.append(
                    float(np.floor(counts[top] / len(lines) * 1e6
                                   + 0.5) / 1e6))
            else:
                out_lang.append("unk")
                out_frac.append(0.0)
        return pa.table({
            "doc_id": pa.array(out_id, pa.int64()),
            "n_lines": pa.array(out_n, pa.int64()),
            "top_lang": pa.array(out_lang, pa.string()),
            "top_frac": pa.array(out_frac, pa.float64())})

    return ds.map_batches(stats, batch_format="pyarrow",
                          batch_size=4096)


MIXED_LANGUAGE_SQL = f"""
WITH lines AS (
  SELECT doc_id, unnest(string_split(text, chr(10))) AS line
  FROM documents
), nz AS (
  SELECT doc_id,
         regexp_extract_all(lower(line), '[a-zà-ÿä-ü]+') AS toks
  FROM lines WHERE length(trim(line, ' ')) > 0
), v AS (
  SELECT doc_id,
         len(list_filter(toks, x -> list_contains({_sql_list(_STOPWORDS["en"])}, x))) AS en,
         len(list_filter(toks, x -> list_contains({_sql_list(_STOPWORDS["de"])}, x))) AS de,
         len(list_filter(toks, x -> list_contains({_sql_list(_STOPWORDS["fr"])}, x))) AS fr,
         len(list_filter(toks, x -> list_contains({_sql_list(_STOPWORDS["es"])}, x))) AS es
  FROM nz
), langs AS (
  SELECT doc_id,
         CASE WHEN greatest(en, de, fr, es) = 0 THEN 'unk'
              WHEN de >= en AND de >= es AND de >= fr THEN 'de'
              WHEN en >= es AND en >= fr THEN 'en'
              WHEN es >= fr THEN 'es'
              ELSE 'fr' END AS lang
  FROM v
), per AS (
  SELECT doc_id, lang, count(*) AS n FROM langs GROUP BY doc_id, lang
), tot AS (
  SELECT doc_id, sum(n) AS n_lines FROM per GROUP BY doc_id
), top AS (
  SELECT doc_id, lang, n,
         row_number() OVER (PARTITION BY doc_id
                            ORDER BY n DESC, lang) AS rn
  FROM per
)
SELECT d.doc_id AS doc_id,
       COALESCE(tot.n_lines, 0) AS n_lines,
       COALESCE(top.lang, 'unk') AS top_lang,
       COALESCE(floor(top.n / CAST(tot.n_lines AS DOUBLE) * 1e6 + 0.5)
                / 1e6, 0.0) AS top_frac
FROM documents d
LEFT JOIN tot ON d.doc_id = tot.doc_id
LEFT JOIN top ON d.doc_id = top.doc_id AND top.rn = 1
ORDER BY d.doc_id
"""


def regexp_extract_rows(sf_dir: str, pattern: str,
                        max_matches_per_doc: int = 10_000):
    """Every match of ``pattern`` as its own row: (doc_id, match_idx
    1-based, match, start, end) — the generic flat_map extractor
    behind "pull every email / id / URL out of the corpus".  Map-only
    (compiled once per task, finditer per doc); ``max_matches_per_doc``
    caps pathological docs (a match-everything pattern on a huge doc)
    with the count still reported via the cap — raise it explicitly
    when you mean it.

    Offsets are Python ``re`` character offsets.  The SQL-checkable
    mirror covers (doc_id, match_idx, match):
    ``SELECT doc_id, s.i AS match_idx, m[s.i] AS match FROM (SELECT
    doc_id, regexp_extract_all(text, pat) m FROM documents),
    unnest(generate_series(1, len(m))) s(i)`` — keep patterns inside
    the re/RE2 common subset (no lookarounds, no backreferences) for
    cross-engine parity, the blocklist module's rule.
    """
    compiled = re.compile(pattern)

    ds = _read(sf_dir, ["doc_id", "text"])

    def extract(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.is_valid(batch["text"]))
        docs, idxs, matches, starts, ends = [], [], [], [], []
        for doc_id, text in zip(batch["doc_id"].to_pylist(),
                                batch["text"].to_pylist()):
            for i, m in enumerate(compiled.finditer(text)):
                if i >= max_matches_per_doc:
                    break
                docs.append(doc_id)
                idxs.append(i + 1)
                matches.append(m.group(0))
                starts.append(m.start())
                ends.append(m.end())
        return pa.table({
            "doc_id": pa.array(docs, pa.int64()),
            "match_idx": pa.array(idxs, pa.int64()),
            "match": pa.array(matches, pa.string()),
            "start": pa.array(starts, pa.int64()),
            "end": pa.array(ends, pa.int64())})

    return ds.map_batches(extract, batch_format="pyarrow")
