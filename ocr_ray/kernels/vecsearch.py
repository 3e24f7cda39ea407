"""Semantic (vector) keyword search — reference parity: A6/J2,
app/services/vector_searcher.py.

The reference fits a OneClassSVM(rbf, nu=.99) on keyword doc-vectors and
classifies every 2..5-token window of the document, de-overlapped with
filter_spans (vector_searcher.py:21-48).  This engine keeps the same
shape with deterministic, dependency-free pieces:

* embedding: signed char-3-gram feature hashing into R^64 (a stable
  public trick; no model download) over the normalized phrase;
* one-class model: centroid of the keyword embeddings + a radius set at
  the ``nu``-quantile of the keywords' own cosine distances — windows
  whose cosine to the centroid beats the radius are "semantic matches";
* candidate windows: all 2..5-token n-grams (vector_searcher.py:12-17),
  longest-match de-overlap via kernels.keywords.filter_spans.

Everything is a pure function of the keyword list, so the searcher is
built once on the driver and shipped to the tasks with their callable.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .keywords import filter_spans
from .textnorm import fold_diacritics, tokenize_with_offsets

DIM = 64


def _embed(phrase: str) -> np.ndarray:
    """Signed feature-hash of char 3-grams, L2-normalized."""
    s = f"^{fold_diacritics(phrase.lower())}$"
    v = np.zeros(DIM, dtype=np.float64)
    for i in range(len(s) - 2):
        h = hashlib.blake2b(s[i:i + 3].encode(), digest_size=8).digest()
        idx = h[0] % DIM
        sign = 1.0 if h[1] & 1 else -1.0
        v[idx] += sign
    n = np.linalg.norm(v)
    return v / n if n else v


class VectorKeywordSearcher:
    """One-class semantic matcher over token windows (2..5-grams)."""

    def __init__(self, keywords: list[str], nu: float = 0.90,
                 min_window: int = 2, max_window: int = 5):
        kws = sorted({k.strip() for k in keywords if k.strip()})
        self.min_window, self.max_window = min_window, max_window
        mat = np.stack([_embed(k) for k in kws]) if kws else np.zeros((0, DIM))
        centroid = mat.mean(axis=0) if len(mat) else np.zeros(DIM)
        n = np.linalg.norm(centroid)
        self.centroid = centroid / n if n else centroid
        if len(mat):
            cos = mat @ self.centroid
            # radius: the nu-quantile of the keywords' own similarity —
            # the stand-in for OneClassSVM(nu=.99)'s tight boundary
            self.threshold = float(np.quantile(cos, 1.0 - nu))
        else:
            self.threshold = 1.1  # nothing matches

    def search(self, text: str) -> list[dict]:
        """[{start, end, phrase, score}] in document order, de-overlapped."""
        toks = tokenize_with_offsets(text)
        cands: list[tuple[int, int, str]] = []
        scores: dict[tuple[int, int], float] = {}
        for size in range(self.min_window, self.max_window + 1):
            for i in range(len(toks) - size + 1):
                phrase = text[toks[i][1]:toks[i + size - 1][2]]
                score = float(_embed(phrase) @ self.centroid)
                if score >= self.threshold:
                    cands.append((i, i + size, phrase))
                    scores[(i, i + size)] = score
        out = []
        for ts, te, phrase in filter_spans(cands):
            out.append({
                "start": toks[ts][1],
                "end": toks[te - 1][2],
                "phrase": phrase,
                "score": round(scores[(ts, te)], 6),
            })
        return out
