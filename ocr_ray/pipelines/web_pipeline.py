"""End-to-end crawl curation — the web-side flagship composition:

    WARC crawl
      -> meta-robots noindex filter        (weblinks.filter_noindex)
      -> canonical-URL dedup, first wins   (urlnorm.canonicalize_url)
      -> main-content extraction           (kernels.htmlx)
      -> mojibake repair                   (functions.encfix)
      -> minimum-content gate
      -> partitioned parquet + manifest

Every stage is an operator this repo tests in isolation; this module
only sequences them the way a production crawl-curation job would, so
a user can run ONE function from raw .warc files to clean text.

Scale shape: two map stages fused onto the WARC read (page rows +
robots filter + canonicalization), ONE output-bounded groupby for the
URL dedup (min doc_id per canonical URL — high-cardinality key, no
skew) + a hash semi join back, then map-only extract/repair/gate and
the partitioned write.  Nothing driver-side except the manifest
scalars.
"""
from __future__ import annotations

import pyarrow as pa

from ..functions._part import nparts_for as _num_partitions


def curate_crawl(warc_path: str, out_dir: str, *,
                 min_chars: int = 100,
                 fix_encoding: bool = True,
                 honor_noindex: bool = True) -> dict:
    """Raw WARC file/folder -> ``{out_dir}/pages/`` parquet
    (doc_id, url, domain, text, n_chars) + ``manifest.json``.
    Returns the manifest dict."""
    import json
    import os
    import shutil

    from ray.data.aggregate import Min

    from ..functions.encfix import fix_mojibake_batch
    from ..functions.urlnorm import canonicalize_url, registrable_domain
    from ..kernels.htmlx import extract_main_text
    from ..sources.warc import read_warc_documents

    docs = read_warc_documents(warc_path)

    def page_rows(batch: pa.Table) -> pa.Table:
        ids, urls, keys, htmls = [], [], [], []
        for doc_id, spans in zip(batch["doc_id"].to_pylist(),
                                 batch["spans"].to_pylist()):
            if not spans:
                continue
            canon = canonicalize_url(spans[0]["media_ref"] or "")
            ids.append(doc_id)
            urls.append(canon)
            # URI-less pages are NOT duplicates of each other: they
            # dedup by their own doc_id, never by the shared "" url
            keys.append(canon if canon else f"doc:{doc_id}")
            htmls.append(spans[0]["text"] or "")
        return pa.table({"doc_id": pa.array(ids, pa.string()),
                         "url": pa.array(urls, pa.string()),
                         "dedup_key": pa.array(keys, pa.string()),
                         "html": pa.array(htmls, pa.string())})

    pages = docs.map_batches(page_rows, batch_format="pyarrow")

    manifest: dict = {"input": warc_path}

    if honor_noindex:
        from ..functions.weblinks import filter_noindex

        pages = filter_noindex(pages, html_col="html")

    pages = pages.materialize()
    n_pages = pages.count()
    manifest["pages_in"] = int(n_pages)
    # a previous run's pages would contradict this run's manifest —
    # clear them before any return path writes it
    shutil.rmtree(f"{out_dir}/pages", ignore_errors=True)
    if n_pages == 0:
        manifest.update(url_dups_removed=0, kept_pages=0,
                        encoding_repaired=0)
        os.makedirs(out_dir, exist_ok=True)
        with open(f"{out_dir}/manifest.json", "w") as f:
            json.dump(manifest, f, indent=2)
        return manifest

    # canonical-URL dedup: keep the lexicographically-first doc_id per
    # dedup key (deterministic across layouts); output-bounded groupby
    # + one hash semi join, materialized so the count does not re-run
    # the shuffle for the downstream extract chain
    from ..functions._part import compact_parts
    from ..functions.dedup import _with_schema

    nparts = _num_partitions(n_pages)
    win_schema = pa.schema([("doc_id", pa.string())])
    winners = (pages.select_columns(["dedup_key", "doc_id"])
               .groupby("dedup_key").aggregate(Min("doc_id",
                                                   alias_name="doc_id"))
               .select_columns(["doc_id"])
               .map_batches(_with_schema(win_schema),
                            batch_format="pyarrow")
               .materialize())
    # enforce + compact: the sort-groupby's schema-less empty blocks
    # break Acero key resolution on small inputs (repo-standard rule)
    winners = winners.repartition(
        compact_parts(max(1, winners.count()))).materialize()
    deduped = pages.join(winners, "left_semi",
                         num_partitions=nparts,
                         on=("doc_id",)).materialize()
    manifest["url_dups_removed"] = int(n_pages - deduped.count())

    def extract(batch: pa.Table) -> pa.Table:
        texts = [extract_main_text(h)
                 for h in batch["html"].to_pylist()]
        return pa.table({
            "doc_id": batch["doc_id"],
            "url": batch["url"],
            "domain": pa.array([registrable_domain(u) for u in
                                batch["url"].to_pylist()], pa.string()),
            "text": pa.array(texts, pa.string())})

    curated = deduped.map_batches(extract, batch_format="pyarrow")
    if fix_encoding:
        curated = curated.map_batches(fix_mojibake_batch,
                                      batch_format="pyarrow")

    def gate(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        n = pc.utf8_length(batch["text"])
        batch = batch.append_column("n_chars", n.cast(pa.int64()))
        return batch.filter(pc.greater_equal(n, min_chars))

    curated = curated.map_batches(gate, batch_format="pyarrow") \
        .materialize()
    manifest["kept_pages"] = int(curated.count())
    if fix_encoding:
        manifest["encoding_repaired"] = int(
            curated.filter(expr="enc_fix_rounds > 0").count())

    os.makedirs(f"{out_dir}/pages", exist_ok=True)
    if manifest["kept_pages"] > 0:
        curated.write_parquet(f"{out_dir}/pages")
    with open(f"{out_dir}/manifest.json", "w") as f:
        json.dump(manifest, f, indent=2)
    return manifest
