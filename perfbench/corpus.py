"""Seeded workload corpora for the benchmark.

Every document comes from ``ocr_ray.fixtures.gen_doc(seed, i)`` and keeps
its real archetype content; a workload only chooses WHICH indices ``i``
it takes.  It walks ``i = 0, 1, ...`` and keeps a doc while the quota
of its archetype (the ``doc_id`` prefix) is not full, so every seed
gives the same archetype composition.  ``mega`` docs are kept only with
450-750 spans (``gen_doc`` draws 300-900): mega docs are most of the
exploded workload's kernel time, and without the band the work per run
swings by a fifth from seed to seed.  The same seed always yields
byte-identical input.

Generating a ``mega`` doc costs ~80 ms, so the walk first predicts each
index's archetype (and a mega's span count) from the same ``DetRand``
draws ``gen_doc`` makes, and generates only the indices it keeps.  Every
kept doc is checked against the prediction, so a change to the fixture
mix fails loudly instead of silently changing a workload.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import pyarrow as pa
import pyarrow.parquet as pq


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    quotas: dict = field(hash=False)   # archetype -> docs kept
    n_files: int
    mode: str                          # "sharded" | "exploded"
    n_shards: int = 0

    @property
    def n_docs(self) -> int:
        return sum(self.quotas.values())


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "web_text",
            "HTML-only docs through the checkpointed runner: htmlx + cleaner "
            "kernels, zero OCR, per-doc/per-shard stage and Ray overhead",
            # gen_doc's 55 : 10 : 4 mix of these three archetypes
            {"textonly": 1594, "kwdnat": 290, "typos": 116}, n_files=4,
            mode="sharded", n_shards=2),
        Workload(
            "mixed_exploded",
            "flagship mix from i = 0 plus extra mega docs, exploded: OCR + "
            "retry, the only rejects, explode/reassembly shuffle",
            # a 200-doc flagship sample (i = 0..8 hold one of each special
            # archetype, the rejects among them) with 8 mega docs, not ~4
            {"textonly": 110, "normal": 34, "kwdnat": 20, "mediaheavy": 16,
             "typos": 8, "lowq": 6, "deepdom": 2, "mega": 8, "kwdall": 1,
             "empty": 1, "malformed": 1, "oversize": 1},
            n_files=2, mode="exploded"),
    )
}

MEGA_SPANS = (450, 750)

# gen_doc's fixed archetypes for i < 9 and hash-weighted mix for i >= 9
# (ocr_ray/fixtures.py); predictions are verified against every doc
_MIX = ((55, "textonly"), (72, "normal"), (82, "kwdnat"),
        (90, "mediaheavy"), (94, "typos"), (97, "lowq"), (99, "mega"),
        (100, "deepdom"))
_FIXED = ("normal", "kwdall", "empty", "malformed", "mega", "deepdom",
          "lowq", "typos", "oversize")


def _predicted_archetype(seed: int, i: int) -> str:
    from ocr_ray.fixtures import DetRand

    if i < len(_FIXED):
        return _FIXED[i]
    r = DetRand("arch", seed, i).randint(0, 99)
    return next(a for bound, a in _MIX if r < bound)


def _predicted_mega_spans(seed: int, i: int) -> int:
    from ocr_ray.fixtures import DetRand

    return DetRand("content", seed, i).randint(300, 900)


def _indices(w: Workload, seed: int) -> list[tuple[int, str]]:
    left = dict(w.quotas)
    picked, i = [], 0
    while any(left.values()):
        a = _predicted_archetype(seed, i)
        lo, hi = MEGA_SPANS
        if left.get(a) and (
                a != "mega" or lo <= _predicted_mega_spans(seed, i) <= hi):
            picked.append((i, a))
            left[a] -= 1
        i += 1
    return picked


def documents(w: Workload, seed: int) -> pa.Table:
    """The workload's documents, in generation order."""
    from ocr_ray.fixtures import docs_to_table, gen_doc

    docs = []
    for i, arch in _indices(w, seed):
        d = gen_doc(seed, i)
        got = d["doc_id"].split("-", 1)[0]
        if got != arch or (arch == "mega" and len(d["spans"])
                           != _predicted_mega_spans(seed, i)):
            raise RuntimeError(
                f"fixture mix changed: doc {i} of seed {seed} is {got!r} "
                f"with {len(d['spans'])} spans, predicted {arch!r}")
        docs.append(d)
    return docs_to_table(docs)


def warmup_docs(table: pa.Table, n: int, max_spans: int = 16) -> pa.Table:
    """The first ``n`` docs of ``table`` with at most ``max_spans`` spans:
    every stage runs, but no mega doc makes the warm-up long."""
    import pyarrow.compute as pc

    small = table.filter(pc.less_equal(pc.list_value_length(table["spans"]),
                                       max_spans))
    return small.slice(0, n)


def write_files(table: pa.Table, path: str, n_files: int) -> list[str]:
    """Split ``table`` into ``n_files`` contiguous parquet fragments."""
    os.makedirs(path, exist_ok=True)
    step = -(-table.num_rows // n_files)
    files = []
    for k in range(n_files):
        f = os.path.join(path, f"part-{k:05d}.parquet")
        pq.write_table(table.slice(k * step, step), f)
        files.append(f)
    return files
