"""Broadcast keyword matching over extracted text.

Rebuild of the reference's multi-variant phrase matching
(app/services/doc_analysis.py:52-178) without spaCy: every keyword token
expands to a variant set {surface, diacritic-folded, stem} — the LOWER /
ORTH / LEMMA matcher trio collapsed into one variant-set matcher — and
documents are scanned token-wise with a sliding window.  Overlapping
matches resolve longest-first (spacy.util.filter_spans semantics used at
doc_analysis.py:177: sort by length desc then start asc, greedy
non-overlap) — reimplemented in ``filter_spans``.

The compiled matcher is the classic Ray "broadcast small side": built from
the (≤ a few hundred row) keyword list once per worker process and
version-keyed by ``keywords_hash`` exactly like the reference's
LAST_KEYWORDS_HASH cache (doc_analysis.py:28,321-335) — the cache is
``stages/analyze._matcher``.
"""

from __future__ import annotations

from collections import defaultdict

from .textnorm import fold_diacritics, normalize_word, tokenize_with_offsets


# Static synonym table standing in for the reference's rowordnet store
# (synonyms.py:3-28): deterministic, no external model, versioned via
# SYNONYM_TABLE_VERSION (folded into the matcher version key so a table
# change recompiles the matcher, like a keyword-list change).
SYNONYM_TABLE_VERSION = "syn-1"
SYNONYMS: dict[str, frozenset] = {
    "query": frozenset({"search", "lookup"}),
    "join": frozenset({"merge"}),
    "shuffle": frozenset({"exchange"}),
    "batch": frozenset({"chunk"}),
    "fast": frozenset({"quick", "rapid"}),
    "large": frozenset({"big", "huge"}),
    "table": frozenset({"relation"}),
    "column": frozenset({"field"}),
    "error": frozenset({"fault", "failure"}),
    "document": frozenset({"record"}),
}


def synonyms_for(token: str) -> frozenset:
    """Context-filtered synonyms of one token, mirroring the reference's
    get_synonyms gates (synonyms.py:6-28): alphabetic tokens of length
    >= 4 only; no multi-word literals; no literal containing the token
    itself.  The static table is pre-filtered but the gates are applied
    anyway so table edits cannot violate the contract."""
    t = token.lower()
    if not t.isalpha() or len(t) < 4:
        return frozenset()
    return frozenset(s for s in SYNONYMS.get(t, frozenset())
                     if t not in s and " " not in s and "_" not in s)


def token_variants(token: str, *, with_synonyms: bool = True) -> frozenset:
    """Surface/folded/stemmed + synonym (and folded-synonym) variant set
    of one keyword token (doc_analysis.py:100-110 get_token_variants:
    {text, de-diacritic, lemma} + filtered synonyms + their de-diacritic
    forms)."""
    t = token.lower()
    out = {t, fold_diacritics(t), normalize_word(t)}
    if with_synonyms:
        for s in synonyms_for(t):
            out.add(s)
            out.add(fold_diacritics(s))
    return frozenset(out)


def filter_spans(spans: list[tuple[int, int, str]]) -> list[tuple[int, int, str]]:
    """Longest-match overlap resolution: sort by (length desc, start asc),
    keep greedily non-overlapping; result in document order.

    Occupancy is a bytearray so both the overlap probe (``find``) and the
    claim (slice assign) run at C speed — the set-of-ints version was a
    visible slice of the corpus-wide match profile."""
    order = sorted(spans, key=lambda s: (-(s[1] - s[0]), s[0]))
    taken: list[tuple[int, int, str]] = []
    if not order:
        return taken
    # all real callers pass non-negative positions; shift if not, since
    # a negative index would WRAP bytearray slicing/find
    shift = -min(0, min(s[0] for s in order))
    occ = bytearray(shift + max(s[1] for s in order))
    for start, end, label in order:
        if occ.find(1, start + shift, end + shift) != -1:
            continue
        occ[start + shift:end + shift] = b"\x01" * (end - start)
        taken.append((start, end, label))
    taken.sort(key=lambda s: s[0])
    return taken


class KeywordMatcher:
    """Compiled matcher for one keyword-list version."""

    def __init__(self, keywords: list[str]):
        self.keywords = sorted({k.strip() for k in keywords if k.strip()})
        # first-token variant -> [(keyword, [variant_set per token])]
        self._index: dict[str, list[tuple[str, list[frozenset]]]] = defaultdict(list)
        self._tok_cache: dict[str, tuple] = {}
        self.max_len = 1
        for kw in self.keywords:
            toks = kw.lower().split()
            if not toks:
                continue
            vsets = [token_variants(t) for t in toks]
            self.max_len = max(self.max_len, len(vsets))
            for first_var in vsets[0]:
                self._index[first_var].append((kw, vsets))

    def _tok_info(self, token: str):
        """Memoized per-token resolution (tokens are Zipf-distributed, so
        the corpus-wide match path hits this cache almost always).

        Returns ``(tv, hits1, candn)`` where ``tv`` is the no-synonym
        variant set, ``hits1`` the single-token keywords this token
        matches OUTRIGHT (a candidate exists because var ∈ tv ∩ vsets[0],
        so the window check at j=0 is always true — for n == 1 that IS
        the whole match), and ``candn`` the multi-token candidates
        ``(kw, n, vsets-tail)``.  Candidate order is exactly the eager loop's
        (sorted variants, then index-list order, duplicates kept):
        filter_spans ties break by insertion order, and only same-length
        same-start spans tie, whose relative order this preserves."""
        info = self._tok_cache.get(token)
        if info is None:
            tv = token_variants(token, with_synonyms=False)
            hits1: list[str] = []
            candn: list[tuple[str, list, int]] = []
            # sorted: frozenset iteration order is hash-seed dependent and
            # would make tie-breaks differ across worker processes
            for var in sorted(tv):
                for kw, vsets in self._index.get(var, ()):
                    n = len(vsets)
                    if n == 1:
                        hits1.append(kw)
                    else:
                        # tail only: j = 0 is proven by candidacy itself
                        candn.append((kw, n, tuple(vsets[1:])))
            if len(self._tok_cache) >= 1_000_000:  # bound worker memory
                self._tok_cache.clear()
            info = (tv, hits1, candn)
            self._tok_cache[token] = info
        return info

    def find(self, text: str) -> list[dict]:
        """All keyword occurrences in one text.

        Returns [{keyword, start, end, tok_start, tok_end}] in document
        order after longest-match de-overlap.
        """
        toks = tokenize_with_offsets(text)
        # document tokens do NOT expand synonyms: the reference expands
        # only KEYWORD tokens (make_keywords_in_spacy patterns); document
        # side matches by surface/lemma (LOWER/LEMMA/ORTH attrs)
        infos = [self._tok_info(t) for t, _, _ in toks]
        tok_variant = [inf[0] for inf in infos]
        L = len(toks)
        raw: list[tuple[int, int, str]] = []  # (tok_start, tok_end, keyword)
        append = raw.append
        for i, (_, hits1, candn) in enumerate(infos):
            for kw in hits1:
                append((i, i + 1, kw))
            for kw, n, tail in candn:
                if i + n > L:
                    continue
                # explicit loop: the all()-generator frame per window was
                # a measured cost at 724k windows per 300 docs
                k = i + 1
                for vs in tail:
                    if not (tok_variant[k] & vs):
                        break
                    k += 1
                else:
                    append((i, i + n, kw))
        hits = []
        for ts, te, kw in filter_spans(raw):
            hits.append({
                "keyword": kw,
                "start": toks[ts][1],
                "end": toks[te - 1][2],
                "tok_start": ts,
                "tok_end": te,
            })
        return hits

    def group_hits(self, hits: list[dict]) -> list[dict]:
        """Group per keyword with counts (doc_analysis.py:298-306 shape)."""
        grouped: dict[str, list] = defaultdict(list)
        for h in hits:
            grouped[h["keyword"]].append(h)
        return [
            {"keyword": k, "occs": v, "total_occs": len(v)}
            for k, v in grouped.items()
        ]
