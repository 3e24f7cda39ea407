"""End-to-end training-corpus preparation: filter -> dedup ->
decontaminate -> chunk, with an auditable manifest."""

import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import pytest


@pytest.fixture(scope="module")
def prep_corpus_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("prep")

    def prose(seed: str) -> str:
        # distinct fluent text per doc (no cross-doc near-dup shingles)
        words = [f"{seed}{i} word{(i * 7) % 13} item{(i * 11) % 17}"
                 for i in range(40)]
        return " ".join(words)

    bench = ("alpha beta gamma delta epsilon zeta eta theta iota kappa "
             "lambda mu nu xi omicron pi rho sigma tau upsilon phi chi")
    rows = [
        # three probe docs (smallest ids) for decontamination
        {"doc_id": 1, "text": bench + " " + prose("pa")},
        {"doc_id": 2, "text": "probe two " + prose("pb")},
        {"doc_id": 3, "text": "probe three " + prose("pc")},
        # clean survivors
        {"doc_id": 10, "text": prose("sa") + " unique tail ten"},
        {"doc_id": 11, "text": prose("sb") + " unique tail eleven"},
        # exact duplicate pair: only min id survives
        {"doc_id": 20, "text": prose("dup") + " duplicated body"},
        {"doc_id": 21, "text": prose("dup") + " duplicated body"},
        # contaminated: contains a full benchmark 8-gram
        {"doc_id": 30, "text": prose("cx") + " " + bench},
        # quality rejects
        {"doc_id": 40, "text": "too short"},
        {"doc_id": 41, "text": "1234 5678 90!! @@ ## $$ %% ^^ && ** " * 12},
    ]
    pq.write_table(pa.Table.from_pylist(rows),
                   str(d / "documents.parquet"))
    return str(d)


class TestPrepareCorpus:
    def test_full_flow_and_manifest(self, ray_session, prep_corpus_dir,
                                    tmp_path):
        from ocr_ray.pipelines.corpus_pipeline import prepare_corpus

        out = str(tmp_path / "out")
        m = prepare_corpus(prep_corpus_dir, out)
        assert m["input_docs"] == 10
        assert m["quality_filter"]["too_short"] == 1
        assert m["quality_filter"]["low_alpha"] == 1
        # doc 21 lost to dedup (exact dup of 20); doc 30 to contamination
        assert m["dedup_removed"] >= 1
        chunks = pads.dataset(f"{out}/chunks").to_table()
        kept_ids = set(chunks["doc_id"].to_pylist())
        assert 21 not in kept_ids          # dedup loser gone
        assert 30 not in kept_ids          # contaminated gone
        assert 40 not in kept_ids and 41 not in kept_ids
        assert {10, 11, 20} <= kept_ids    # survivors chunked
        assert m["n_chunks"] == chunks.num_rows > 0
        # chunk content integrity: md5 matches text
        import hashlib
        for r in chunks.to_pylist()[:20]:
            assert (hashlib.md5(r["text"].encode()).hexdigest()
                    == r["chunk_md5"])
        # manifest file written
        import json
        disk = json.load(open(f"{out}/manifest.json"))
        assert disk["kept_docs"] == m["kept_docs"]

    def test_pack_stage(self, ray_session, prep_corpus_dir, tmp_path):
        """pack_budget_tokens adds the packs/ table + manifest rollup;
        every chunk appears in exactly one pack and closed packs fit."""
        from ocr_ray.pipelines.corpus_pipeline import prepare_corpus

        out = str(tmp_path / "out_packed")
        m = prepare_corpus(prep_corpus_dir, out, pack_budget_tokens=256)
        assert m["n_packs"] > 0 and m["pack_budget_tokens"] == 256
        assert 0 < m["pack_mean_fill_ratio"] <= 1.0
        packs = pads.dataset(f"{out}/packs", partitioning="hive") \
            .to_table()
        chunks = pads.dataset(f"{out}/chunks").to_table()
        assert packs.num_rows == chunks.num_rows == m["n_chunks"]
        df = packs.to_pandas()
        assert df["pack_id"].nunique() == m["n_packs"]
        fills = df[~df["oversize"]].groupby("pack_id")["n_tokens"].sum()
        assert (fills <= 256).all()
        # every (doc_id, chunk_id) appears exactly once
        assert not df.duplicated(["doc_id", "chunk_id"]).any()

    def test_stages_1_to_3_share_one_text_scan(self, ray_session,
                                               prep_corpus_dir, tmp_path):
        """Round-3 VERDICT What's-wrong #4: quality classify, exact-dup
        hashing, minhash featurize and the contamination scan used to
        each re-read the corpus (~4x input IO at 100 TB).  The fused
        featurize must issue exactly ONE ray.data read of the text
        column; the only other text access is the driver-side pruned
        probe-row read (pq.read_table with a doc_id filter)."""
        import ray.data as rd

        from ocr_ray.pipelines.corpus_pipeline import prepare_corpus

        real = rd.read_parquet
        text_scans = []

        def counting(path, *a, columns=None, **kw):
            if columns and "text" in columns and "documents" in str(path):
                text_scans.append(columns)
            return real(path, *a, columns=columns, **kw)

        import unittest.mock as mock
        with mock.patch.object(rd, "read_parquet", counting):
            m = prepare_corpus(prep_corpus_dir, str(tmp_path / "out1"))
        assert m["kept_docs"] > 0
        assert len(text_scans) == 1, (
            f"stages 1-3 must share one text scan, saw {text_scans}")

    def test_cluster_min_quality_reject_keeps_kept_member(
            self, ray_session, tmp_path):
        """Round-2 ADVICE (medium): a dup cluster whose min-id member
        FAILS the quality filter must not lose every member — the
        survivor is the min doc_id among quality-KEPT members."""
        from ocr_ray.pipelines.corpus_pipeline import prepare_corpus

        body = " ".join(f"w{i} tok{(i * 3) % 7} fine{(i * 5) % 11}"
                        for i in range(60))
        rows = [
            # doc 5: exact-dup text but TOO SHORT variant can't be an
            # exact dup; instead make 5 a quality reject that is a
            # NEAR dup of 6/7 (shares almost all shingles but padded
            # with digits to fail low_alpha)
            {"doc_id": 5, "text": body + " 123456789 " * 40},
            {"doc_id": 6, "text": body},
            {"doc_id": 7, "text": body},
        ]
        d = tmp_path / "corpus"
        d.mkdir()
        pq.write_table(pa.Table.from_pylist(rows),
                       str(d / "documents.parquet"))
        out = str(tmp_path / "out")
        m = prepare_corpus(str(d), out, n_probe_docs=0)
        chunks = pads.dataset(f"{out}/chunks").to_table()
        kept_ids = set(chunks["doc_id"].to_pylist())
        # 6 and 7 are exact dups; 5 is quality-rejected.  Old behavior:
        # if 5 clustered with {6,7} the global min (5) was the survivor
        # but 5 itself was rejected -> the whole cluster vanished.  Now
        # the min KEPT member (6) survives.
        assert 6 in kept_ids
        assert 7 not in kept_ids
        assert 5 not in kept_ids
        assert m["dedup_removed"] == 1


class TestCheckpointedPrep:
    def test_resume_skips_committed_shards(self, ray_session,
                                           prep_corpus_dir, tmp_path):
        """Kill-and-resume: after a simulated crash with some shards
        committed, a re-run only does the missing shards and the final
        chunk set equals the non-resumable pipeline's."""
        import json
        import os

        import pyarrow.dataset as pads

        from ocr_ray.pipelines.corpus_pipeline import (
            prepare_corpus,
            prepare_corpus_checkpointed,
        )

        out = str(tmp_path / "ckpt")
        m = prepare_corpus_checkpointed(prep_corpus_dir, out, n_shards=4)
        chunks = pads.dataset(f"{out}/chunks").to_table() \
            .sort_by([("doc_id", "ascending"), ("chunk_id", "ascending")])

        # reference: the plain pipeline over the same corpus
        ref_out = str(tmp_path / "plain")
        prepare_corpus(prep_corpus_dir, ref_out)
        ref = pads.dataset(f"{ref_out}/chunks").to_table() \
            .sort_by([("doc_id", "ascending"), ("chunk_id", "ascending")])
        assert chunks.select(["doc_id", "chunk_id", "chunk_md5"]).equals(
            ref.select(["doc_id", "chunk_id", "chunk_md5"]))
        assert m["n_chunks"] == ref.num_rows

        # simulate a crash: delete two shard outputs + their markers
        import shutil
        for k in (1, 3):
            shutil.rmtree(f"{out}/chunks/shard={k}")
            os.unlink(f"{out}/_lineage/chunk-shard-{k:05d}.json")
        # stamp the surviving shards to prove they are not rewritten
        survivors = {k: os.path.getmtime(f"{out}/chunks/shard={k}")
                     for k in (0, 2)}
        m2 = prepare_corpus_checkpointed(prep_corpus_dir, out, n_shards=4)
        for k, mt in survivors.items():
            assert os.path.getmtime(f"{out}/chunks/shard={k}") == mt
        again = pads.dataset(f"{out}/chunks").to_table()
        assert again.num_rows == ref.num_rows
        assert m2["n_chunks"] == ref.num_rows

    def test_no_resume_rebuilds_everything(self, ray_session,
                                           prep_corpus_dir, tmp_path):
        import pyarrow.dataset as pads

        from ocr_ray.pipelines.corpus_pipeline import (
            prepare_corpus_checkpointed,
        )

        out = str(tmp_path / "ckpt2")
        m1 = prepare_corpus_checkpointed(prep_corpus_dir, out, n_shards=2)
        m2 = prepare_corpus_checkpointed(prep_corpus_dir, out, n_shards=2,
                                         resume=False)
        assert m1["n_chunks"] == m2["n_chunks"] > 0
        # no duplicated rows after the full rebuild
        t = pads.dataset(f"{out}/chunks").to_table()
        keys = list(zip(t["doc_id"].to_pylist(), t["chunk_id"].to_pylist()))
        assert len(keys) == len(set(keys))


class TestCheckpointedGuards:
    def test_resume_with_different_shards_refused(self, ray_session,
                                                  prep_corpus_dir,
                                                  tmp_path):
        import pytest as _pytest

        from ocr_ray.pipelines.corpus_pipeline import (
            prepare_corpus_checkpointed,
        )

        out = str(tmp_path / "g1")
        prepare_corpus_checkpointed(prep_corpus_dir, out, n_shards=4)
        with _pytest.raises(ValueError, match="different configuration"):
            prepare_corpus_checkpointed(prep_corpus_dir, out, n_shards=8)
        # resume=False rebuilds cleanly under the new config
        m = prepare_corpus_checkpointed(prep_corpus_dir, out, n_shards=8,
                                        resume=False)
        assert m["n_chunks"] > 0

    def test_stale_flat_chunks_removed(self, ray_session,
                                       prep_corpus_dir, tmp_path):
        """A prior plain prepare_corpus run's flat chunk files in the
        same out_dir must not double-count."""
        import pyarrow.dataset as pads

        from ocr_ray.pipelines.corpus_pipeline import (
            prepare_corpus,
            prepare_corpus_checkpointed,
        )

        out = str(tmp_path / "g2")
        ref = prepare_corpus(prep_corpus_dir, out)          # flat layout
        m = prepare_corpus_checkpointed(prep_corpus_dir, out, n_shards=2)
        assert m["n_chunks"] == ref["n_chunks"]
        t = pads.dataset(f"{out}/chunks").to_table()
        keys = list(zip(t["doc_id"].to_pylist(),
                        t["chunk_id"].to_pylist()))
        assert len(keys) == len(set(keys)) == ref["n_chunks"]

    def test_empty_keep_set_survives(self, ray_session, tmp_path):
        """Every doc quality-rejected: stage A commits an EMPTY keep set
        and stage B still completes with zero chunks (and resumes)."""
        import pyarrow as pa
        import pyarrow.parquet as pqt

        from ocr_ray.pipelines.corpus_pipeline import (
            prepare_corpus_checkpointed,
        )

        d = tmp_path / "tiny"
        d.mkdir()
        pqt.write_table(pa.Table.from_pylist(
            [{"doc_id": 1, "text": "too short"},
             {"doc_id": 2, "text": "also short"}]),
            str(d / "documents.parquet"))
        out = str(tmp_path / "g3")
        m = prepare_corpus_checkpointed(str(d), out, n_shards=2)
        assert m["n_chunks"] == 0 and m["kept_docs"] == 0
        m2 = prepare_corpus_checkpointed(str(d), out, n_shards=2)
        assert m2["n_chunks"] == 0


class TestFixEncodingStage:
    @pytest.fixture(scope="class")
    def moji_corpus_dir(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("moji")

        def prose(seed: str) -> str:
            return " ".join(f"{seed}{i} cuvant{(i * 7) % 13}"
                            for i in range(40))

        base = ("hotarare privind organizarea si functionarea consiliului "
                "local al municipiului in sedinta ordinara din luna "
                "februarie cu privire la aprobarea bugetului local ")
        clean = base + "și ță ăî â ș ț diacritice multe " + base
        moji = clean.encode("utf-8").decode("cp1252")
        rows = [
            # probes (3 smallest ids): prose disjoint from the planted
            # docs so decontamination never removes them
            {"doc_id": 1, "text": "probe one " + prose("pa")},
            {"doc_id": 2, "text": "probe two " + prose("pb")},
            {"doc_id": 3, "text": "probe three " + prose("pc")},
            {"doc_id": 50, "text": clean},   # clean original
            {"doc_id": 51, "text": moji},    # mojibake'd copy of 50
            {"doc_id": 60, "text": prose("other") + " unique tail"},
        ]
        pq.write_table(pa.Table.from_pylist(rows),
                       str(d / "documents.parquet"))
        return str(d)

    def test_repair_unifies_dups_and_fixes_chunks(self, ray_session,
                                                  moji_corpus_dir,
                                                  tmp_path):
        """With fix_encoding on, the misdecoded copy repairs to its
        clean twin BEFORE hashing — so exact dedup removes it — and
        every surviving chunk holds repaired text."""
        from ocr_ray.pipelines.corpus_pipeline import prepare_corpus

        out = str(tmp_path / "out_fix")
        m = prepare_corpus(moji_corpus_dir, out, fix_encoding=True,
                           near_dedup=False)
        assert m["encoding_repaired"] == 1
        chunks = pads.dataset(f"{out}/chunks").to_table()
        kept = set(chunks["doc_id"].to_pylist())
        assert 50 in kept and 51 not in kept      # dup removed via repair
        texts = " ".join(chunks["text"].to_pylist())
        assert "Ã" not in texts and "È" not in texts

    def test_default_off_keeps_mojibake(self, ray_session,
                                        moji_corpus_dir, tmp_path):
        from ocr_ray.pipelines.corpus_pipeline import prepare_corpus

        out = str(tmp_path / "out_raw")
        m = prepare_corpus(moji_corpus_dir, out, near_dedup=False)
        assert "encoding_repaired" not in m
        chunks = pads.dataset(f"{out}/chunks").to_table()
        kept = set(chunks["doc_id"].to_pylist())
        assert {50, 51} <= kept                   # different md5s: both stay
        texts = " ".join(chunks["text"].to_pylist())
        assert "Ã" in texts


class TestProbeRepairConsistency:
    def test_mojibake_probe_still_decontaminates(self, ray_session,
                                                 tmp_path_factory,
                                                 tmp_path):
        """Review finding: with fix_encoding on, probe grams were built
        from RAW text while corpus grams used repaired text, so a
        repaired corpus dup of a mojibake'd probe slipped through.
        Both sides must hash the repaired form."""
        import pyarrow.parquet as pq

        from ocr_ray.pipelines.corpus_pipeline import prepare_corpus

        def prose(seed):
            return " ".join(f"{seed}{i} cuvant{(i * 7) % 13}"
                            for i in range(40))

        bench = ("ședința consiliului local privind aprobarea "
                 "bugetului municipal pentru anul următor conform "
                 "hotărârii adoptate în unanimitate de către aleși")
        bench_moji = bench.encode("utf-8").decode("cp1252")
        d = tmp_path_factory.mktemp("probe_moji")
        rows = [
            # probe doc 1 carries the benchmark text MOJIBAKE'D
            {"doc_id": 1, "text": "probe one " + bench_moji + " "
                                  + prose("pa")},
            {"doc_id": 2, "text": "probe two " + prose("pb")},
            {"doc_id": 3, "text": "probe three " + prose("pc")},
            # corpus doc 50 contains the CLEAN benchmark -> must be
            # flagged contaminated once the probe repairs
            {"doc_id": 50, "text": prose("sa") + " " + bench},
            {"doc_id": 60, "text": prose("other") + " unique tail"},
        ]
        pq.write_table(pa.Table.from_pylist(rows),
                       str(d / "documents.parquet"))
        out = str(tmp_path / "out")
        prepare_corpus(str(d), out, fix_encoding=True, near_dedup=False)
        chunks = pads.dataset(f"{out}/chunks").to_table()
        kept = set(chunks["doc_id"].to_pylist())
        assert 50 not in kept          # contaminated via repaired probe
        assert 60 in kept
