"""HTML link extraction + web link graph — the step that turns a
crawl into a graph, closing the web loop: WARC source -> link
extraction -> URL canonicalization -> int64 edge list -> the existing
``graph.pagerank`` / ``connected_components`` / anchor-text rollups.

Extraction kernel: stdlib ``HTMLParser`` collecting ``<a href>``
targets with their anchor text (the robust tolerant parser; this path
is NOT parity-bound to the reference extractor, so it does not ride
the tuned block scanners in ``kernels/htmlx.py``).  Per link:

* relative hrefs resolve against the page URL (``urljoin``), so
  ``/about`` on ``http://example.com/x/y`` becomes
  ``http://example.com/about``;
* ``javascript:``/``mailto:``/``tel:``/``data:`` and same-page
  fragment-only hrefs are skipped;
* targets canonicalize through ``urlnorm.canonicalize_url`` and
  repeat targets within one page dedup (first anchor text wins) —
  nav menus must not multiply edges.

``url_id`` maps canonical URLs to stable int64 node ids (md5 low 63
bits — deterministic across runs/machines, collision odds ~n²/2⁶⁴),
the id convention for composing with the int64 graph kernels.

Everything is map-only until the caller's graph algorithm shuffles.

Reference analog: none — beyond-reference web-pipeline operator
(SURVEY.md §2.8 extension).
"""
from __future__ import annotations

import hashlib
from html.parser import HTMLParser
from urllib.parse import urljoin

import pyarrow as pa

from .urlnorm import canonicalize_url

_SKIP_SCHEMES = ("javascript:", "mailto:", "tel:", "data:")


class _LinkCollector(HTMLParser):
    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.links: list[tuple[str, list[str]]] = []
        self._open_href: str | None = None
        self._anchor: list[str] = []

    def handle_starttag(self, tag, attrs):
        if tag == "a":
            href = dict(attrs).get("href")
            if href:
                self._open_href = href
                self._anchor = []

    def handle_endtag(self, tag):
        if tag == "a" and self._open_href is not None:
            self.links.append((self._open_href, self._anchor))
            self._open_href = None

    def handle_data(self, data):
        if self._open_href is not None:
            self._anchor.append(data)


def extract_links(html: str, base_url: str = ""
                  ) -> list[tuple[str, str]]:
    """[(canonical_target_url, anchor_text)] for one page; repeat
    targets deduped (first anchor wins), unresolvable/skippable hrefs
    dropped.  Never raises on malformed HTML."""
    c = _LinkCollector()
    try:
        c.feed(html or "")
        c.close()
    except Exception:
        pass  # keep links collected before the parse error
    out: list[tuple[str, str]] = []
    seen = set()
    for href, anchor_parts in c.links:
        h = href.strip()
        if (not h or h.startswith("#")
                or h.lower().startswith(_SKIP_SCHEMES)):
            continue
        try:
            target = urljoin(base_url, h) if base_url else h
        except ValueError:
            continue
        canon = canonicalize_url(target)
        if not canon or "://" not in canon or canon in seen:
            continue
        seen.add(canon)
        out.append((canon, " ".join("".join(anchor_parts).split())))
    return out


def url_id(url: str) -> int:
    """Stable int64 node id of a canonical URL: the high 63 bits of the
    md5 digest's first 8 bytes read big-endian."""
    d = hashlib.md5(url.encode()).digest()
    return int.from_bytes(d[:8], "big") >> 1


def extract_links_batch(batch: pa.Table, url_col: str = "url",
                        html_col: str = "text") -> pa.Table:
    """(url, html) rows -> (src_url, dst_url, anchor) link rows."""
    src_urls, dst_urls, anchors = [], [], []
    for page_url, html in zip(batch[url_col].to_pylist(),
                              batch[html_col].to_pylist()):
        src = canonicalize_url(page_url or "")
        for dst, anchor in extract_links(html or "", src):
            src_urls.append(src)
            dst_urls.append(dst)
            anchors.append(anchor)
    return pa.table({"src_url": pa.array(src_urls, pa.string()),
                     "dst_url": pa.array(dst_urls, pa.string()),
                     "anchor": pa.array(anchors, pa.string())})


def warc_link_edges(warc_path: str):
    """WARC file/folder -> Dataset[src_url, dst_url, anchor, src, dst]
    where src/dst are the int64 ``url_id`` node ids — feed
    ``select_columns(["src", "dst"])`` straight into ``pagerank`` or
    ``connected_components``.  Map-only end to end."""
    from ..sources.warc import read_warc_documents

    docs = read_warc_documents(warc_path)

    def page_rows(batch: pa.Table) -> pa.Table:
        urls, htmls = [], []
        for spans in batch["spans"].to_pylist():
            u = spans[0]["media_ref"] if spans else ""
            if not u:
                # a URI-less page has no graph identity: keeping it
                # would pour every such page's outlinks into ONE
                # phantom url_id("") node and distort ranks/components
                continue
            urls.append(u)
            htmls.append(spans[0]["text"] or "")
        return pa.table({"url": pa.array(urls, pa.string()),
                         "text": pa.array(htmls, pa.string())})

    links = docs.map_batches(page_rows, batch_format="pyarrow") \
        .map_batches(extract_links_batch, batch_format="pyarrow")

    def add_ids(batch: pa.Table) -> pa.Table:
        return (batch
                .append_column("src", pa.array(
                    [url_id(u) for u in batch["src_url"].to_pylist()],
                    pa.int64()))
                .append_column("dst", pa.array(
                    [url_id(u) for u in batch["dst_url"].to_pylist()],
                    pa.int64())))

    return links.map_batches(add_ids, batch_format="pyarrow")


def anchor_text_counts(edges):
    """Per (dst_url, anchor) inbound counts — the anchor-text signal
    search/quality pipelines attach to a target page.  One groupby,
    output-bounded."""
    from ray.data.aggregate import Count

    return (edges.select_columns(["dst_url", "anchor"])
            .groupby(["dst_url", "anchor"])
            .aggregate(Count(alias_name="n_inlinks")))


class _MetaRobots(HTMLParser):
    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.directives: set[str] = set()

    def handle_starttag(self, tag, attrs):
        if tag == "meta":
            d = {k.lower(): (v or "") for k, v in attrs}
            if d.get("name", "").lower() == "robots":
                self.directives.update(
                    t.strip().lower()
                    for t in d.get("content", "").split(","))


def page_robots_flags(html: str) -> tuple[bool, bool]:
    """(noindex, nofollow) from ``<meta name=robots>`` — the standard
    publisher opt-out a crawl corpus must honor.  ``none`` implies
    both; absent/malformed meta -> (False, False)."""
    p = _MetaRobots()
    try:
        p.feed(html or "")
        p.close()
    except Exception:
        pass
    d = p.directives
    return ("noindex" in d or "none" in d,
            "nofollow" in d or "none" in d)


def filter_noindex(ds, html_col: str = "text"):
    """Drop pages whose meta robots says noindex — map-only."""
    def keep(batch: pa.Table) -> pa.Table:
        mask = pa.array([not page_robots_flags(h or "")[0]
                         for h in batch[html_col].to_pylist()])
        return batch.filter(mask)

    return ds.map_batches(keep, batch_format="pyarrow")
