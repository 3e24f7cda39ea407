"""HTML main-content extraction: DOM -> ordered text blocks.

The reference extracts PDF page text as an ordered sequence of layout
blocks (app/services/ocr_service.py:137-145: per page, ``get_text("blocks")``,
block texts joined by '\\n', in-block newlines flattened to spaces).  For
HTML text spans our analog is a DOM walk producing reading-order blocks,
scored readability/trafilatura-style:

* container tags ``nav header footer aside script style form noscript``
  are boilerplate — every block inside them is dropped;
* a block's **link density** = chars inside <a> / total chars; blocks whose
  link density > ``MAX_LINK_DENSITY`` (0.5) are link farms and dropped
  (they never even reach the line cleaner, mirroring how the reference
  never OCRs annotations);
* surviving blocks keep their text with intra-block whitespace collapsed to
  single spaces (the '\\n' -> ' ' flatten of ocr_service.py:143).

The output is the raw block sequence; line-level rejection rules
(ocr_ray.kernels.cleaner) run afterwards, exactly like Cleaner runs after
the block walk in the reference (ocr_service.py:144).

Implementation is one streaming regex scan (``_scan_fused``) — no
recursion, so 100+-level nested DOMs (the ``deep_dom`` archetype) are
handled in O(depth) memory.  The stdlib-HTMLParser collector and the
un-inlined ``_scan`` below are its parity references (tests/) and its
salvage fallback.
"""

from __future__ import annotations

import re
from html.parser import HTMLParser

# tags that open a new text block (reading-order boundaries)
BLOCK_TAGS = frozenset(
    "p div li h1 h2 h3 h4 h5 h6 td th tr table ul ol dl dt dd blockquote "
    "pre article section main figure figcaption title br hr".split()
)
# subtree = boilerplate
DROP_TAGS = frozenset("nav header footer aside script style form noscript".split())
# link-farm cutoff (readability/trafilatura-style block scoring): a block
# whose <a> chars exceed this share of its chars is dropped
MAX_LINK_DENSITY = 0.5
# elements with no closing tag
VOID_TAGS = frozenset("br hr img meta link input area base col embed source track wbr".split())

_WS = re.compile(r"\s+")


class _BlockCollector(HTMLParser):
    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.blocks: list[tuple[str, int]] = []  # (text, link_chars)
        self._parts: list[str] = []
        self._link_chars = 0
        self._drop_depth = 0
        self._anchor_depth = 0

    # -- block lifecycle -----------------------------------------------
    def _flush(self):
        if not self._parts:
            return
        text = _WS.sub(" ", "".join(self._parts)).strip()
        if text:
            self.blocks.append((text, self._link_chars))
        self._parts = []
        self._link_chars = 0

    # -- parser callbacks ----------------------------------------------
    def handle_starttag(self, tag, attrs):
        if tag in DROP_TAGS:
            self._flush()
            if tag not in VOID_TAGS:
                self._drop_depth += 1
            return
        if tag in BLOCK_TAGS:
            self._flush()
        if tag == "a":
            self._anchor_depth += 1

    def handle_endtag(self, tag):
        if tag in DROP_TAGS:
            if self._drop_depth > 0:
                self._drop_depth -= 1
            return
        if tag in BLOCK_TAGS:
            self._flush()
        if tag == "a" and self._anchor_depth > 0:
            self._anchor_depth -= 1

    def handle_data(self, data):
        if self._drop_depth > 0 or not data:
            return
        self._parts.append(data)
        if self._anchor_depth > 0:
            self._link_chars += len(data.strip())

    def close(self):
        super().close()
        self._flush()


# ---------------------------------------------------------------------
# regex scanner: one compiled regex walk driving the SAME collector
# callbacks as the stdlib HTMLParser (the parity reference above —
# tests/test_property.py asserts scanner == HTMLParser on generated
# inputs).  ~4x faster per span; the stdlib parser's goahead loop
# dominated the extraction kernel profile.

_MARKUP_RE = re.compile(
    r"<!--.*?(?:-->|$)"                                  # comment
    r"|<!\[CDATA\[.*?(?:\]\]>|$)"                        # CDATA section
    r"|<![^>]*(?:>|$)"                                   # doctype/decl
    r"|<\?[^>]*(?:>|$)"                                  # processing instr
    r"|</([a-zA-Z][a-zA-Z0-9.\-:_]*)[^>]*(?:>|$)"        # end tag
    r"|<([a-zA-Z][a-zA-Z0-9.\-:_]*)"                     # start tag name
    r"((?:\"[^\"]*\"|'[^']*'|[^<>\"'])*)(>|$)",          # attrs + close
    re.DOTALL,
)
_CDATA_CLOSE = {t: re.compile(rf"</\s*{t}", re.IGNORECASE)
                for t in ("script", "style")}

from html import unescape as _unescape


def _scan(html: str, c: "_BlockCollector") -> None:
    pos, n = 0, len(html)
    search = _MARKUP_RE.search
    while pos < n:
        m = search(html, pos)
        if m is None:
            data = html[pos:]
            c.handle_data(_unescape(data) if "&" in data else data)
            return
        if m.start() > pos:
            data = html[pos:m.start()]
            c.handle_data(_unescape(data) if "&" in data else data)
        pos = m.end()
        if pos == n:
            # EOF-unterminated markup: HTMLParser flushes it as raw
            # data on close() — mirror that exactly
            g0 = m.group(0)
            closer = ("-->" if g0.startswith("<!--")
                      else "]]>" if g0.startswith("<![CDATA[") else ">")
            if not g0.endswith(closer):
                c.handle_data(_unescape(g0) if "&" in g0 else g0)
                return
        end_name, start_name, attrs, close = m.group(1, 2, 3, 4)
        if end_name:
            c.handle_endtag(end_name.lower())
        elif start_name:
            tag = start_name.lower()
            c.handle_starttag(tag, ())
            if attrs.rstrip().endswith("/"):
                c.handle_endtag(tag)       # <x/> => startendtag
            elif tag in _CDATA_CLOSE:
                # script/style content is CDATA: no tags, no charrefs
                mm = _CDATA_CLOSE[tag].search(html, pos)
                if mm is None:
                    return                  # unterminated: swallowed
                c.handle_data(html[pos:mm.start()])
                gt = html.find(">", mm.start())
                c.handle_endtag(tag)
                if gt == -1:
                    return
                pos = gt + 1
        # comments / doctype / CDATA sections / PIs: no callbacks


def _scan_fused(html: str) -> list[tuple[str, int]]:
    """The _scan loop with the collector state INLINED as locals —
    byte-identical block output to _scan + _BlockCollector (parity
    property tests in tests/test_property.py), minus ~500k bound-
    method calls and attribute loads per 400 docs: handle_data /
    starttag / endtag were pure state flips, so the dispatch cost
    exceeded the work."""
    blocks: list[tuple[str, int]] = []
    parts: list[str] = []
    link_chars = 0
    drop_depth = 0
    anchor_depth = 0
    pos, n = 0, len(html)
    search = _MARKUP_RE.search
    ws_sub = _WS.sub

    def flush():
        # call sites guard `if parts:` so the empty fast path never
        # pays the call
        nonlocal parts, link_chars
        text = ws_sub(" ", "".join(parts)).strip()
        if text:
            blocks.append((text, link_chars))
        parts = []
        link_chars = 0

    while pos < n:
        m = search(html, pos)
        if m is None:
            data = html[pos:]
            if not drop_depth:
                if "&" in data:
                    data = _unescape(data)
                parts.append(data)
                if anchor_depth:
                    link_chars += len(data.strip())
            break
        if m.start() > pos and not drop_depth:
            data = html[pos:m.start()]
            if "&" in data:
                data = _unescape(data)
            parts.append(data)
            if anchor_depth:
                link_chars += len(data.strip())
        pos = m.end()
        if pos == n:
            g0 = m.group(0)
            closer = ("-->" if g0.startswith("<!--")
                      else "]]>" if g0.startswith("<![CDATA[") else ">")
            if not g0.endswith(closer):
                if not drop_depth and g0:
                    if "&" in g0:
                        g0 = _unescape(g0)
                    parts.append(g0)
                    if anchor_depth:
                        link_chars += len(g0.strip())
                break
        end_name, start_name, attrs = m.group(1, 2, 3)
        if end_name:
            tag = end_name.lower()
            if tag in DROP_TAGS:
                if drop_depth > 0:
                    drop_depth -= 1
            else:
                if tag in BLOCK_TAGS and parts:
                    flush()
                if tag == "a" and anchor_depth > 0:
                    anchor_depth -= 1
        elif start_name:
            tag = start_name.lower()
            if tag in DROP_TAGS:
                if parts:
                    flush()
                if tag not in VOID_TAGS:
                    drop_depth += 1
            else:
                if tag in BLOCK_TAGS and parts:
                    flush()
                if tag == "a":
                    anchor_depth += 1
            if attrs.rstrip().endswith("/"):
                # <x/> => startendtag: replay the endtag state flips
                if tag in DROP_TAGS:
                    if drop_depth > 0:
                        drop_depth -= 1
                elif tag in BLOCK_TAGS and parts:
                    flush()
                elif tag == "a" and anchor_depth > 0:
                    anchor_depth -= 1
            elif tag in _CDATA_CLOSE:
                mm = _CDATA_CLOSE[tag].search(html, pos)
                if mm is None:
                    break                   # unterminated: swallowed
                if not drop_depth:
                    data = html[pos:mm.start()]
                    if data:
                        parts.append(data)
                        if anchor_depth:
                            link_chars += len(data.strip())
                gt = html.find(">", mm.start())
                if tag in DROP_TAGS:
                    if drop_depth > 0:
                        drop_depth -= 1
                elif tag in BLOCK_TAGS and parts:
                    flush()
                elif tag == "a" and anchor_depth > 0:
                    anchor_depth -= 1
                if gt == -1:
                    break
                pos = gt + 1
    if parts:
        flush()
    return blocks


def _drop_link_farms(blocks: list[tuple[str, int]]) -> list[str]:
    """Drop link-farm blocks (link chars / chars > MAX_LINK_DENSITY)."""
    return [text for text, link_chars in blocks
            if not (text and link_chars / len(text) > MAX_LINK_DENSITY)]


def html_to_blocks(html: str) -> list[str]:
    """Parse HTML into reading-order main-content blocks.

    Pure function; tolerant of malformed HTML (never raises).  Plain
    text (no tags) comes back as its own block sequence — the same code
    path serves non-HTML text spans.
    """
    try:
        blocks = _scan_fused(html)
    except Exception:  # pragma: no cover — the scanner never raises;
        # salvage whatever the collector saw before the failure
        parser = _BlockCollector()
        try:
            _scan(html, parser)
            parser._flush()
        except Exception:
            pass
        blocks = parser.blocks
    return _drop_link_farms(blocks)


def extract_main_text(html: str) -> str:
    """Blocks joined by newline — the input contract of the line cleaner
    (the reference joins block texts with '\\n', ocr_service.py:143)."""
    return "\n".join(html_to_blocks(html))
