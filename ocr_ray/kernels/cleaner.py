"""Line-level boilerplate cleaner with keep/drop accounting.

Rule-for-rule reimplementation of the reference cleaner semantics
(app/services/text_processing.py:76-213) — the reject-rule ORDER and the
per-rule (lines, chars) drop counters are observable through the metrics
table, so they are preserved exactly:

  1. strip; reject if len < MIN_LINE_LENGTH            -> ``min_length``
  2. re-decode utf-8 ignoring bad bytes
  3. reject if a forbidden char occurs                  -> ``forbidden``
  4. reject if alpha == 0 or alpha/len < 0.5            -> ``low_alpha``
  5. reject if digits/alpha >= 0.7 and digits > 6       -> ``high_digit``
  6. reject if ascii/alpha < 0.4 and len > 15           -> ``non_ascii``
  7. reject ascii-table lines (>2 '|' or '│', first char) -> counted under
     ``forbidden`` (same bucket as the reference, text_processing.py:158-167)
  8. substitutions: hyphen re-join, slash re-join, unicode-dash fold,
     number-comma join, URL strip, email strip,
     table-separator strip, cedilla fixes (ţ->ț ş->ș Ţ->Ț Ş->Ș),
     mojibake 'Ã¢'->'â', '( ă)'->'(ă)', multi-space collapse
     (text_processing.py:23-69, 171-191)
  9. re-reject if now shorter than MIN_LINE_LENGTH      -> ``min_length``
     (counted with the ORIGINAL stripped length, as the reference does at
     text_processing.py:195)

The thresholds 10, 0.7 and 0.4 are the constants ``MIN_LINE_LENGTH``,
``PERCENT_MAX_NUMERIC`` and ``PERCENT_MAX_NON_ASCII``.  The reference's
soft-hyphen strip is absent: U+00AD is in the unicode-dash class, whose
fold runs first, so no soft hyphen is left for it to remove.

Counters are plain ints (mergeable) rather than the reference's numpy
uint64 pairs; ``CleanStats.merge`` is the associative combiner used for
partial aggregation inside map_batches and the final groupby
(text_processing.py:215-243 ``add_stats`` analog).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields

# --- substitution patterns (semantics of text_processing.py:23-69) ---------
# word ending in '-' followed by whitespace then word: rejoin ("să- l" -> "să-l")
_HYPHEN_SPLIT = re.compile(r"([\w]+-)[\s]([\w]+)", re.IGNORECASE)
# word ending in '/' followed by space then word ("U/ ml" -> "U/ml")
_SLASH_SPLIT = re.compile(r"([\w]+/)\s([\w]+)", re.IGNORECASE)
# every unicode dash/bullet variant (category Pd + bullets) folded to '-'
_UNI_DASH = re.compile(
    "[■•~­֊־᐀᠆"
    "‐‑‒–—―⁓⁻₋−"
    "⸗⸺⸻〜〰゠︱︲﹣－]+"
)
# '1, 4%' -> '1,4%'
_NUM_COMMA = re.compile(r"([\d]+,)\s([\d]+)")
_URL = re.compile(r"(?:www|http)\S+|<\S+|\w+\/*>")
_EMAIL = re.compile(r"([^@]+@[^@]+\.[^@]+)")
_TABLE_SEP_BOX = re.compile("[─]+")   # box-drawing '─' runs
_TABLE_SEP_DASH = re.compile(r"[\-]+")
_MULTI_SPACE = re.compile(" +")

_CEDILLA_FIXES = (("( ă)", "(ă)"), ("ţ", "ț"), ("ş", "ș"),
                  ("Ţ", "Ț"), ("Ş", "Ș"), ("Ã¢", "â"))

# reject thresholds (text_processing.py:76-84 defaults)
MIN_LINE_LENGTH = 10
PERCENT_MAX_NUMERIC = 0.7
PERCENT_MAX_NON_ASCII = 0.40

FORBIDDEN_CHARS = frozenset("ºþÈ™ÓÑÄÈÃ®ƒ")

# ASCII fast-path tables: bytes.translate with a delete set runs at C
# speed; len(b) - len(b.translate(None, CLASS)) == count of CLASS chars
_ASCII_DIGITS = bytes(range(0x30, 0x3A))
_ASCII_ALPHA = bytes(range(0x41, 0x5B)) + bytes(range(0x61, 0x7B))
# str.translate map deleting every ASCII codepoint: leaves the NON-ascii
# residue, so the per-char Python classification loop only touches the
# few non-ascii chars of a mostly-ascii line
_DEL_ASCII = {i: None for i in range(128)}

_COUNTER_FIELDS = (
    "min_length_lines", "min_length_chars",
    "forbidden_lines", "forbidden_chars",
    "low_alpha_lines", "low_alpha_chars",
    "high_digit_lines", "high_digit_chars",
    "non_ascii_lines", "non_ascii_chars",
    "total_original_chars", "total_clean_chars",
    "kept_lines",
)


@dataclass
class CleanStats:
    """Mergeable drop/keep counters (text_processing.py:85-89,202-211)."""
    min_length_lines: int = 0
    min_length_chars: int = 0
    forbidden_lines: int = 0
    forbidden_chars: int = 0
    low_alpha_lines: int = 0
    low_alpha_chars: int = 0
    high_digit_lines: int = 0
    high_digit_chars: int = 0
    non_ascii_lines: int = 0
    non_ascii_chars: int = 0
    total_original_chars: int = 0
    total_clean_chars: int = 0
    kept_lines: int = 0

    def merge(self, other: "CleanStats") -> "CleanStats":
        for f in _COUNTER_FIELDS:
            setattr(self, f, getattr(self, f) + getattr(other, f))
        return self

    def as_dict(self) -> dict:
        return {f: getattr(self, f) for f in _COUNTER_FIELDS}

    @property
    def dropped_lines(self) -> int:
        return (self.min_length_lines + self.forbidden_lines +
                self.low_alpha_lines + self.high_digit_lines +
                self.non_ascii_lines)


def clean_lines(text: str, *,
                stats: CleanStats | None = None) -> tuple[str, CleanStats]:
    """Apply the reject rules + substitutions line by line.

    Returns (cleaned_text, stats). Kept lines are newline-terminated and
    concatenated (so non-empty output always ends in '\\n'), matching the
    reference's output contract (text_processing.py:199,213).
    When ``stats`` is given, counters accumulate into it (partial-agg mode).
    """
    st = stats if stats is not None else CleanStats()
    out: list[str] = []
    for raw in text.split("\n"):
        line = raw.strip()
        orig_len = len(line)
        st.total_original_chars += orig_len

        if orig_len < MIN_LINE_LENGTH:
            st.min_length_lines += 1
            st.min_length_chars += orig_len
            continue

        if line.isascii():
            # fast path: FORBIDDEN_CHARS are all non-ASCII, the utf-8
            # re-decode is the identity, and the char-class counts are
            # byte-translate deletions at C speed (the per-char Python
            # loop dominated the 8->32 scaling profile)
            b = line.encode("ascii")
            digits = orig_len - len(b.translate(None, _ASCII_DIGITS))
            alphas = orig_len - len(b.translate(None, _ASCII_ALPHA))
            asciis = orig_len
            hit_forbidden = False
        else:
            line = line.encode("utf-8", "ignore").decode("utf-8", "ignore")
            # mixed path: classify the ASCII projection with byte
            # translates and Python-loop ONLY the non-ascii residue
            # (typically a handful of diacritics per line).  Exactness:
            # the original loop's early break on a forbidden char only
            # skipped counts that are discarded anyway.
            b = line.encode("ascii", "ignore")
            asciis = len(b)
            digits = asciis - len(b.translate(None, _ASCII_DIGITS))
            alphas = asciis - len(b.translate(None, _ASCII_ALPHA))
            residue = line.translate(_DEL_ASCII)
            hit_forbidden = False
            for ch in residue:
                if ch in FORBIDDEN_CHARS:
                    hit_forbidden = True
                    break
                if ch.isnumeric():
                    digits += 1
                if ch.isalpha():
                    alphas += 1

        if hit_forbidden:
            st.forbidden_lines += 1
            st.forbidden_chars += orig_len
            continue
        if alphas == 0 or alphas / orig_len < 0.5:
            st.low_alpha_lines += 1
            st.low_alpha_chars += orig_len
            continue
        if digits / alphas >= PERCENT_MAX_NUMERIC and digits > 6:
            st.high_digit_lines += 1
            st.high_digit_chars += orig_len
            continue
        if asciis / alphas < PERCENT_MAX_NON_ASCII and orig_len > 15:
            st.non_ascii_lines += 1
            st.non_ascii_chars += orig_len
            continue
        # ascii-art table rows share the forbidden bucket (reference
        # behaviour, text_processing.py:158-167)
        first = line[0]
        if (first == "|" and line.count("|") > 2) or (
            first == "│" and line.count("│") > 2
        ):
            st.forbidden_lines += 1
            st.forbidden_chars += orig_len
            continue

        # every substitution is guarded by a C-speed substring/isascii
        # check that is TRUE whenever the pattern could match, so a
        # skipped sub is provably a no-op (the kernel profile showed
        # 282k re.sub calls per 400 docs, most against lines without
        # the trigger characters).  The URL/email guards additionally
        # kill O(n^2) backtracking stragglers on very long lines.
        if "-" in line:
            line = _HYPHEN_SPLIT.sub(r"\1\2", line)
        if "/" in line:
            line = _SLASH_SPLIT.sub(r"\1\2", line)
        la = line.isascii()
        if not la or "~" in line:   # '~' is the class's only ASCII char
            line = _UNI_DASH.sub("-", line)
        if "," in line:
            line = _NUM_COMMA.sub(r"\1\2", line)
        if "www" in line or "http" in line or "<" in line or ">" in line:
            line = _URL.sub("", line)
        if "@" in line:
            line = _EMAIL.sub("", line)
        if not la:
            line = _TABLE_SEP_BOX.sub("", line)
        if "-" in line:             # re-test: _UNI_DASH may introduce '-'
            line = _TABLE_SEP_DASH.sub("", line)
        if not la:                  # every fix pair contains non-ASCII
            for bad, good in _CEDILLA_FIXES:
                line = line.replace(bad, good)
        if "  " in line:            # single spaces map to themselves
            line = _MULTI_SPACE.sub(" ", line)
        line = line.strip()

        if len(line) < MIN_LINE_LENGTH:
            st.min_length_lines += 1
            st.min_length_chars += orig_len   # original length, by contract
            continue

        st.total_clean_chars += len(line)
        st.kept_lines += 1
        out.append(line)

    return ("\n".join(out) + "\n" if out else ""), st
