"""Sequence packing: reference-loop equality, invariants, and the
partitioning-independence (determinism) contract."""

import numpy as np
import pyarrow as pa
import pytest


def reference_pack(ntok, budget):
    """The obvious greedy loop (one step per chunk) — the semantics
    pack_shard_table's searchsorted jumps must reproduce."""
    pack, seq, over = [], [], []
    p, acc, s = 0, 0, 0
    for i, t in enumerate(ntok):
        if t > budget:
            if s > 0:           # close the open pack
                p += 1
            pack.append(p)
            seq.append(0)
            over.append(True)
            p, acc, s = p + 1, 0, 0
            continue
        if acc + t > budget and s > 0:
            p, acc, s = p + 1, 0, 0
        pack.append(p)
        seq.append(s)
        over.append(False)
        acc, s = acc + t, s + 1
    return pack, seq, over


def shard_table(ntok, shard=3):
    n = len(ntok)
    return pa.table({
        "doc_id": pa.array(range(n), pa.int64()),
        "chunk_id": pa.array([0] * n, pa.int64()),
        "n_tokens": pa.array(ntok, pa.int64()),
        "shard": pa.array([shard] * n, pa.int64()),
    })


class TestPackShard:
    @pytest.mark.parametrize("seed,budget", [(0, 100), (1, 64), (2, 257),
                                             (3, 17)])
    def test_matches_reference_loop(self, seed, budget):
        from ocr_ray.functions.packing import _SHARD_BITS, pack_shard_table

        rng = np.random.default_rng(seed)
        ntok = rng.integers(1, budget // 2 + 40, size=500).tolist()
        # plant oversize chunks
        ntok[7] = budget + 5
        ntok[200] = budget * 3
        out = pack_shard_table(shard_table(ntok), budget)
        ref_pack, ref_seq, ref_over = reference_pack(ntok, budget)
        shard = 3
        assert out["pack_id"].to_pylist() == [
            (shard << _SHARD_BITS) + p for p in ref_pack]
        assert out["pack_seq"].to_pylist() == ref_seq
        assert out["oversize"].to_pylist() == ref_over

    def test_invariants(self):
        from ocr_ray.functions.packing import pack_shard_table

        rng = np.random.default_rng(42)
        budget = 128
        ntok = rng.integers(1, 90, size=1000).tolist()
        out = pack_shard_table(shard_table(ntok), budget)
        df = out.to_pandas()
        # every non-oversize pack fits the budget
        fills = df[~df["oversize"]].groupby("pack_id")["n_tokens"].sum()
        assert (fills <= budget).all()
        # greedy = adding the NEXT chunk would overflow (packs are tight):
        # consecutive pack fill + first chunk of the next pack > budget
        g = df.sort_values(["pack_id", "pack_seq"])
        firsts = g.groupby("pack_id").first()["n_tokens"]
        for (pid, fill), (nid, nxt) in zip(fills.items(),
                                           list(firsts.items())[1:]):
            if nid == pid + 1:
                assert fill + nxt > budget
        # nothing lost, order kept
        assert len(df) == len(ntok)
        assert df["doc_id"].tolist() == sorted(df["doc_id"].tolist())

    def test_empty_shard(self):
        from ocr_ray.functions.packing import pack_shard_table

        out = pack_shard_table(shard_table([]), 100)
        assert out.num_rows == 0
        assert {"pack_id", "pack_seq", "oversize"} <= set(out.schema.names)


class TestPackChunksDistributed:
    def _chunks_table(self, n_docs=120, seed=7):
        rng = np.random.default_rng(seed)
        rows = []
        for d in range(n_docs):
            for c in range(int(rng.integers(1, 5))):
                rows.append({"doc_id": d, "chunk_id": c,
                             "n_tokens": int(rng.integers(10, 120))})
        return pa.Table.from_pylist(rows)

    def test_partitioning_independence(self, ray_session):
        """The (doc_id, chunk_id) -> (pack_id, pack_seq) mapping must not
        depend on input block layout or row order."""
        import ray.data as rd

        from ocr_ray.functions.packing import pack_chunks

        tbl = self._chunks_table()

        def mapping(ds):
            df = ds.to_pandas()
            return {(r.doc_id, r.chunk_id): (r.pack_id, r.pack_seq)
                    for r in df.itertuples()}

        a = mapping(pack_chunks(
            rd.from_arrow(tbl).repartition(17), budget_tokens=256,
            n_shards=8))
        # reversed row order, different block count
        rev = tbl.take(pa.array(list(reversed(range(tbl.num_rows)))))
        b = mapping(pack_chunks(
            rd.from_arrow(rev).repartition(3), budget_tokens=256,
            n_shards=8))
        assert a == b and len(a) == tbl.num_rows

    def test_materialize_packs(self, ray_session):
        """One row per pack; text joined in pack_seq order; token and
        chunk totals agree with the assignment table."""
        import ray.data as rd

        from ocr_ray.functions.packing import (
            materialize_packs,
            pack_chunks,
        )

        rng = np.random.default_rng(11)
        rows = []
        for d in range(80):
            for c in range(int(rng.integers(1, 4))):
                rows.append({"doc_id": d, "chunk_id": c,
                             "n_tokens": int(rng.integers(10, 120)),
                             "text": f"[doc{d}/chunk{c}]"})
        tbl = pa.Table.from_pylist(rows)
        packed = pack_chunks(rd.from_arrow(tbl), budget_tokens=256,
                             n_shards=4)
        pdf = packed.to_pandas()
        seqs = materialize_packs(packed, sep=" ").to_pandas()
        assert len(seqs) == pdf["pack_id"].nunique()
        assert int(seqs["n_chunks"].sum()) == len(pdf)
        assert int(seqs["n_tokens"].sum()) == int(pdf["n_tokens"].sum())
        # per-pack text is the pack_seq-ordered join
        by_pack = pdf.sort_values(["pack_id", "pack_seq"]) \
            .groupby("pack_id")["text"].apply(lambda s: " ".join(s))
        got = dict(zip(seqs["pack_id"], seqs["text"]))
        assert got == by_pack.to_dict()
        # member chunks never interleave across packs
        assert not seqs["pack_id"].duplicated().any()

    def test_stats_rollup(self, ray_session):
        import ray.data as rd

        from ocr_ray.functions.packing import pack_chunks, packing_stats

        tbl = self._chunks_table(n_docs=60)
        packed = pack_chunks(rd.from_arrow(tbl), budget_tokens=256,
                             n_shards=4)
        stats = packing_stats(packed, budget_tokens=256).to_pandas()
        df = packed.to_pandas()
        # rollup totals agree with the packed rows
        assert int(stats["fill_tokens"].sum()) == int(df["n_tokens"].sum())
        assert int(stats["n_chunks"].sum()) == len(df)
        ok = stats[stats["oversize"] == 0]
        assert (ok["fill_tokens"] <= 256).all()
        assert (ok["fill_ratio"] <= 1.0).all()
        # packing quality: mean fill of closed packs should be high on
        # this chunk-size distribution (greedy near-budget)
        assert ok["fill_ratio"].mean() > 0.7


class TestTokenIdPacks:
    def _real_chunks(self, n_docs=60, seed=13):
        """Chunks shaped like the real chunk table: text is the
        space-joined token window and n_tokens its token count."""
        rng = np.random.default_rng(seed)
        words = ["alpha", "beta", "gamma", "delta", "eps", "zeta",
                 "theta", "iota", "kappa", "mu"]
        rows = []
        for d in range(n_docs):
            for c in range(int(rng.integers(1, 4))):
                toks = [words[int(i)] for i in
                        rng.integers(0, len(words),
                                     size=int(rng.integers(5, 40)))]
                rows.append({"doc_id": d, "chunk_id": c,
                             "n_tokens": len(toks),
                             "text": " ".join(toks)})
        return pa.Table.from_pylist(rows)

    def test_token_ids_round_trip_and_counts(self, ray_session):
        """Round-4 VERDICT What's-missing #4 done-criteria: ids decode
        to the joined text; len(token_ids) matches the pack manifest's
        n_tokens."""
        import ray.data as rd

        from ocr_ray.functions.packing import (
            build_token_vocab,
            materialize_packs,
            pack_chunks,
        )

        tbl = self._real_chunks()
        packed = pack_chunks(rd.from_arrow(tbl), budget_tokens=64,
                             n_shards=4)
        vocab = build_token_vocab(packed)
        inv = {i: t for t, i in vocab.items()}
        id_packs = materialize_packs(packed, emit="token_ids",
                                     vocab=vocab).to_pandas()
        txt_packs = materialize_packs(packed, sep=" ").to_pandas()
        texts = dict(zip(txt_packs["pack_id"], txt_packs["text"]))
        assert len(id_packs) == len(txt_packs)
        for r in id_packs.itertuples():
            ids = list(r.token_ids)
            assert len(ids) == r.n_tokens          # manifest agreement
            assert " ".join(inv[i] for i in ids) == texts[r.pack_id]

    def test_bpe_token_ids_round_trip(self, ray_session):
        """Learned-BPE pack payloads: subword ids decode EXACTLY to the
        joined text (symbols concatenate to word+</w>), the id table is
        globally consistent across shards, and merges= is required."""
        import pytest as _pytest
        import ray.data as rd

        from ocr_ray.functions.bpe import END, build_bpe_vocab, train_bpe
        from ocr_ray.functions.packing import materialize_packs, pack_chunks

        tbl = self._real_chunks()
        packed = pack_chunks(rd.from_arrow(tbl), budget_tokens=64,
                             n_shards=4)
        merges = train_bpe(rd.from_arrow(tbl).map_batches(
            lambda b: b.select(["text"]).append_column(
                "doc_id", b["chunk_id"].cast("string")),
            batch_format="pyarrow"), n_merges=12)
        vocab = build_bpe_vocab(packed, merges)
        inv = {i: s for s, i in vocab.items()}
        id_packs = materialize_packs(packed, emit="bpe_token_ids",
                                     merges=merges,
                                     vocab=vocab).to_pandas()
        txt_packs = materialize_packs(packed, sep=" ").to_pandas()
        texts = dict(zip(txt_packs["pack_id"], txt_packs["text"]))
        assert len(id_packs) == len(txt_packs)
        for r in id_packs.itertuples():
            stream = "".join(inv[i] for i in r.token_ids)
            words = stream.split(END)
            assert words[-1] == ""  # every word closes with the marker
            assert " ".join(words[:-1]) == texts[r.pack_id]
            # whitespace manifest count unchanged by subword emission
            assert r.n_tokens == len(texts[r.pack_id].split(" "))
        with _pytest.raises(ValueError, match="merges"):
            materialize_packs(packed, emit="bpe_token_ids")

    def test_vocab_builds_without_explicit_dict(self, ray_session):
        import ray.data as rd

        from ocr_ray.functions.packing import materialize_packs, pack_chunks

        packed = pack_chunks(rd.from_arrow(self._real_chunks(20)),
                             budget_tokens=64, n_shards=2)
        out = materialize_packs(packed, emit="token_ids").to_pandas()
        assert "token_ids" in out.columns and len(out) > 0

    def test_vocab_guard_raises(self, ray_session):
        import pytest as _pytest
        import ray.data as rd

        from ocr_ray.functions.packing import build_token_vocab

        ds = rd.from_arrow(pa.table({
            "text": pa.array([f"tok{i}" for i in range(50)])}))
        with _pytest.raises(ValueError, match="pretrained vocab"):
            build_token_vocab(ds, max_vocab=10)


class TestShufflePacks:
    def _materialized(self, ray_session_unused=None):
        import ray.data as rd

        from ocr_ray.functions.packing import materialize_packs, pack_chunks

        rng = np.random.default_rng(5)
        rows = []
        for d in range(100):
            for c in range(int(rng.integers(1, 4))):
                rows.append({"doc_id": d, "chunk_id": c,
                             "n_tokens": int(rng.integers(10, 120)),
                             "text": f"[doc{d}/chunk{c}]"})
        tbl = pa.Table.from_pylist(rows)
        return materialize_packs(
            pack_chunks(rd.from_arrow(tbl), budget_tokens=128, n_shards=6),
            sep=" ")

    def test_deterministic_permutation(self, ray_session):
        from ocr_ray.functions.packing import shuffle_packs

        mat = self._materialized().materialize()
        a = shuffle_packs(mat, seed=1).to_pandas()
        # different block layout, same seed -> identical order
        b = shuffle_packs(mat.repartition(13), seed=1).to_pandas()
        assert list(a["pack_id"]) == list(b["pack_id"])
        assert list(a["shard"]) == list(b["shard"])
        # permutation property: same multiset of packs as the input
        base = mat.to_pandas()
        assert (sorted(zip(a["shard"], a["pack_id"]))
                == sorted(zip(base["shard"], base["pack_id"])))
        # a different seed gives a different order
        c = shuffle_packs(mat, seed=2).to_pandas()
        assert list(c["pack_id"]) != list(a["pack_id"])

    def test_breaks_shard_locality(self, ray_session):
        from ocr_ray.functions.packing import shuffle_packs

        mat = self._materialized().materialize()
        out = shuffle_packs(mat, seed=3).to_pandas()
        # the stream must interleave shards: adjacent-same-shard rate far
        # below the sorted-by-shard baseline (which is ~1)
        same = (out["shard"].values[1:] == out["shard"].values[:-1]).mean()
        assert same < 0.6, same


class TestJSONLExport:
    def test_export_roundtrip_and_manifest(self, ray_session, tmp_path):
        import json
        import os

        import pyarrow as pa
        import ray.data as rd

        from ocr_ray.functions.packing import (export_packs_jsonl,
                                               materialize_packs,
                                               pack_chunks)

        chunks = pa.table({
            "doc_id": pa.array(range(40), pa.int64()),
            "chunk_id": pa.array([0] * 40, pa.int64()),
            "n_tokens": pa.array([30] * 40, pa.int64()),
            "chunk_md5": pa.array([f"m{i}" for i in range(40)]),
            "text": pa.array([" ".join(f"t{i}w{j}" for j in range(30))
                              for i in range(40)]),
        })
        packed = pack_chunks(rd.from_arrow(chunks), budget_tokens=64)
        rows = materialize_packs(packed)
        m = export_packs_jsonl(rows, str(tmp_path / "jsonl"))
        files = sorted(os.listdir(tmp_path / "jsonl"))
        shard_files = [f for f in files if f.endswith(".jsonl")]
        assert len(shard_files) == len(m["shards"])
        # every pack row round-trips through the JSONL
        back = []
        for f in shard_files:
            for line in open(tmp_path / "jsonl" / f, encoding="utf-8"):
                back.append(json.loads(line))
        want = rows.to_pandas()
        assert len(back) == m["n_packs"] == len(want)
        assert {r["pack_id"] for r in back} == set(want["pack_id"])
        texts = {r["pack_id"]: r["text"] for r in back}
        for r in want.itertuples():
            assert texts[r.pack_id] == r.text
        disk = json.load(open(tmp_path / "jsonl" / "manifest.json"))
        assert disk["n_packs"] == m["n_packs"]

    def test_atomic_reexport_and_column_subset(self, ray_session,
                                               tmp_path):
        import json
        import os

        import pyarrow as pa
        import ray.data as rd

        from ocr_ray.functions.packing import (export_packs_jsonl,
                                               materialize_packs,
                                               pack_chunks)

        chunks = pa.table({
            "doc_id": pa.array(range(10), pa.int64()),
            "chunk_id": pa.array([0] * 10, pa.int64()),
            "n_tokens": pa.array([5] * 10, pa.int64()),
            "chunk_md5": pa.array([f"m{i}" for i in range(10)]),
            "text": pa.array(["a b c d e"] * 10),
        })
        rows = materialize_packs(
            pack_chunks(rd.from_arrow(chunks), budget_tokens=16))
        d = str(tmp_path / "out")
        export_packs_jsonl(rows, d)
        m2 = export_packs_jsonl(rows, d, columns=["pack_id", "text"])
        f = sorted(x for x in os.listdir(d) if x.endswith(".jsonl"))[0]
        first = json.loads(open(os.path.join(d, f)).readline())
        assert set(first) == {"pack_id", "text"}
        assert m2["columns"] == ["pack_id", "text"]

    def test_reexport_with_fewer_shards_drops_stale_files(self, ray_session,
                                                          tmp_path):
        """Re-exporting fewer shards into the same directory must leave
        exactly the new manifest's shard files for a glob-based loader."""
        import glob
        import os

        import pyarrow as pa
        import ray.data as rd

        from ocr_ray.functions.packing import (export_packs_jsonl,
                                               materialize_packs,
                                               pack_chunks)

        chunks = rd.from_arrow(pa.table({
            "doc_id": pa.array(range(12), pa.int64()),
            "chunk_id": pa.array([0] * 12, pa.int64()),
            "n_tokens": pa.array([5] * 12, pa.int64()),
            "chunk_md5": pa.array([f"m{i}" for i in range(12)]),
            "text": pa.array(["a b c d e"] * 12),
        }))
        d = str(tmp_path / "out")

        def exported(n_shards):
            rows = materialize_packs(
                pack_chunks(chunks, budget_tokens=16, n_shards=n_shards))
            m = export_packs_jsonl(rows, d)
            on_disk = sorted(os.path.basename(f) for f in
                             glob.glob(os.path.join(d, "shard-*.jsonl")))
            return m, on_disk

        m4, files4 = exported(4)
        m1, files1 = exported(1)
        assert len(m4["shards"]) > len(m1["shards"]) == 1
        for m, files in ((m4, files4), (m1, files1)):
            assert files == [f"shard-{k:05d}.jsonl"
                             for k in sorted(m["shards"])]
