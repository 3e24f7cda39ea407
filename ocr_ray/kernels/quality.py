"""OCR quality estimation: character + word plausibility.

Reference semantics (app/services/ocr_evaluation.py:41-90):

* ``cer(text)``    = fraction of lowercase chars in the plausible set
* ``wer(text)``    = fraction of tokens whose normalized form (or raw form)
  is in the vocabulary; purely-non-letter tokens skipped; the denominator
  starts at 1 (ocr_evaluation.py:67 quirk, preserved — it is observable in
  the score)
* ``estimate_quality`` = round((cer + wer) / 2 * 100, 2); invalid text
  scores a vacuous 100 (so empty pages never trigger the retry)

A media span scoring below ``MIN_QUALITY`` gets one force-rotate re-OCR
(``kernels/extract.extract_span``).
"""

from __future__ import annotations

import re

from .textnorm import normalize_word, tokenize
from .wordpool import PLAUSIBLE_CHARS, vocabulary

# retry gate (app/config.py:17 MIN_QUALITY; ocr_worker.py:214-222)
MIN_QUALITY = 77.0

_NON_LETTER = re.compile(r"[^a-z]+")
# str.translate map deleting every plausible char: count-by-deletion at
# C speed (len(text) - len(residue) == chars in the plausible set)
_PLAUSIBLE_DEL = {ord(c): None for c in PLAUSIBLE_CHARS}


def validate_text(text: str) -> bool:
    """Non-empty and not an OCR-skip marker (ocr_evaluation.py:41-47)."""
    if text.startswith("[OCR skipped"):
        return False
    return bool(text.strip())


def cer(text: str) -> float:
    if not text:
        return 0.0
    low = text.lower()
    good = len(low) - len(low.translate(_PLAUSIBLE_DEL))
    return good / len(low)


def wer(text: str, vocab: frozenset | None = None) -> float:
    vocab = vocab if vocab is not None else vocabulary()
    correct = 0
    total = 1  # reference quirk: denominator starts at 1
    for tok in tokenize(text.lower()):
        norm = normalize_word(tok)
        if not norm or _NON_LETTER.fullmatch(norm):
            continue
        if norm in vocab or tok in vocab:
            correct += 1
        total += 1
    return correct / total


def estimate_quality(text: str, vocab: frozenset | None = None) -> float:
    """0-100 quality score; below ``MIN_QUALITY`` the span is retried."""
    if not validate_text(text):
        return 100.0
    return round((cer(text) + wer(text, vocab)) / 2 * 100, 2)
