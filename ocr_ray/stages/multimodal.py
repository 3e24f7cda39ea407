"""Multimodal (image/audio/video) columns as opaque binary + typed metadata.

A large-scale training-data pipeline carries media as ``binary`` columns
with typed metadata and runs decode / feature-extract / resize /
frame-sample as map_batches stages.  Each stage is a stateless callable
that stores only its codec and stride, so Ray Data ships the constructed
instance to plain tasks (no actor pool) and fuses it with its neighbours.
The actual codecs (Pillow/ffmpeg/torchaudio) are not installed, so the
decode step is pluggable: ``codec="stub"`` raises NotImplementedError
(the production hook), ``codec="fake"`` is a deterministic pure-function
decoder used to make the Ray-side plumbing — schema, batch sizing for
large binary rows, callable signature, output layout — real and
testable.

Schema:
    media_ref: string, media_type: "image"|"audio", payload: binary,
    meta: struct<width int32, height int32, sample_rate int32,
                 n_frames int32>

Scale notes: binary rows are WIDE — batches stay small (16-32 rows) so
a batch fits a worker heap, and DataContext target_max_block_size
should be raised for very large payloads rather than letting blocks
split absurdly small (ray guide "Memory-aware").
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

MEDIA_SCHEMA = pa.schema([
    ("media_ref", pa.string()),
    ("media_type", pa.string()),
    ("payload", pa.binary()),
    ("meta", pa.struct([
        ("width", pa.int32()),
        ("height", pa.int32()),
        ("sample_rate", pa.int32()),
        ("n_frames", pa.int32()),
    ])),
])

FEATURE_SCHEMA = pa.schema([
    ("media_ref", pa.string()),
    ("media_type", pa.string()),
    ("feature", pa.list_(pa.float32())),
    ("thumb_w", pa.int32()),
    ("thumb_h", pa.int32()),
    ("frames_sampled", pa.int32()),
])


def synth_media_table(n: int, seed: int = 42) -> pa.Table:
    """Deterministic media fixture: payload bytes + metadata per ref."""
    rows = []
    for i in range(n):
        h = hashlib.sha256(f"media:{seed}:{i}".encode()).digest()
        is_image = h[0] % 2 == 0
        size = 2000 + int.from_bytes(h[1:3], "big") % 30000
        payload = (h * (size // len(h) + 1))[:size]
        if is_image:
            meta = {"width": 64 + h[3] % 192 * 8, "height": 64 + h[4] % 192 * 8,
                    "sample_rate": 0, "n_frames": 1}
        else:
            meta = {"width": 0, "height": 0,
                    "sample_rate": 16000, "n_frames": 16000 * (1 + h[5] % 30)}
        rows.append({
            "media_ref": f"mm-{seed}-{i}",
            "media_type": "image" if is_image else "audio",
            "payload": payload,
            "meta": meta,
        })
    return pa.Table.from_pylist(rows, schema=MEDIA_SCHEMA)


def _fake_decode(payload: bytes, media_type: str, meta: dict) -> np.ndarray:
    """Deterministic stand-in decoder: payload bytes -> small float array
    (pure function, any cluster reproduces it)."""
    raw = np.frombuffer(payload[:4096], dtype=np.uint8).astype(np.float32)
    return raw / 255.0


class MediaFeatureExtractor:
    """Task stage: decode -> (resize | frame-sample) -> feature.

    ``codec="stub"`` marks exactly where a real decoder plugs in
    (Pillow / torchaudio on a production image); everything around it —
    batching, zero-copy binary access, output schema — is the real
    pipeline.
    """

    def __init__(self, codec: str = "fake", feature_dim: int = 32,
                 thumb: tuple = (32, 32), frame_stride: int = 4000):
        if codec not in ("fake", "stub"):
            raise ValueError(f"unknown codec {codec!r}")
        self.codec = codec
        self.feature_dim = feature_dim
        self.thumb = thumb
        self.frame_stride = frame_stride

    def _decode(self, payload: bytes, media_type: str, meta: dict) -> np.ndarray:
        if self.codec == "stub":
            raise NotImplementedError(
                "real media decoding requires Pillow/ffmpeg — install them "
                "and register a codec; the 'fake' codec exercises the "
                "pipeline plumbing deterministically")
        return _fake_decode(payload, media_type, meta)

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch["payload"].combine_chunks()
        refs = batch["media_ref"].to_pylist()
        types = batch["media_type"].to_pylist()
        metas = batch["meta"].to_pylist()
        out = []
        for i in range(batch.num_rows):
            data = self._decode(payloads[i].as_py(), types[i], metas[i])
            if types[i] == "image":
                thumb_w, thumb_h = self.thumb
                frames = 1
            else:
                thumb_w = thumb_h = 0
                frames = max(1, metas[i]["n_frames"] // self.frame_stride)
            # feature: fixed-dim energy histogram of the decoded signal
            idx = (np.arange(len(data)) * self.feature_dim // max(1, len(data)))
            feat = np.zeros(self.feature_dim, dtype=np.float32)
            np.add.at(feat, idx, data)
            out.append({
                "media_ref": refs[i],
                "media_type": types[i],
                "feature": feat.tolist(),
                "thumb_w": thumb_w,
                "thumb_h": thumb_h,
                "frames_sampled": frames,
            })
        return pa.Table.from_pylist(out, schema=FEATURE_SCHEMA)


def media_features(media_ds, *, codec: str = "fake"):
    """media table -> feature table (small batches: wide rows)."""
    return media_ds.map_batches(MediaFeatureExtractor(codec),
                                batch_format="pyarrow", batch_size=32)


class FrameSampler:
    """Task flat-map stage: one media row -> one row per sampled
    frame (the video/audio analog of explode_spans).  Slicing happens on
    the raw payload via zero-copy buffer views; a real container parser
    (ffmpeg) plugs in at the same seam as the feature codec.  Output
    rows are narrow (one frame each), so downstream per-frame stages
    batch them freely regardless of source-file size — that is the
    point: a 2-hour video fans out across the cluster instead of
    pinning one worker.
    """

    def __init__(self, codec: str = "fake", frame_stride: int = 4000,
                 frame_bytes: int = 1024, max_frames: int = 64):
        if codec not in ("fake", "stub"):
            raise ValueError(f"unknown codec {codec!r}")
        self.codec = codec
        self.frame_stride = frame_stride
        self.frame_bytes = frame_bytes
        self.max_frames = max_frames

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self.codec == "stub":
            raise NotImplementedError(
                "real frame extraction requires ffmpeg — register a codec; "
                "the 'fake' codec slices deterministic payload windows")
        payloads = batch["payload"].combine_chunks()
        refs = batch["media_ref"].to_pylist()
        types = batch["media_type"].to_pylist()
        metas = batch["meta"].to_pylist()
        out_ref, out_idx, out_ts, out_frame = [], [], [], []
        for i in range(batch.num_rows):
            payload = payloads[i].as_py()
            if types[i] == "image":
                n_frames, ms_per = 1, 0
            else:
                n_frames = min(self.max_frames, max(
                    1, metas[i]["n_frames"] // self.frame_stride))
                sr = max(1, metas[i]["sample_rate"])
                ms_per = self.frame_stride * 1000 // sr
            span = max(1, (len(payload) - self.frame_bytes)
                       // max(1, n_frames))
            for f in range(n_frames):
                lo = min(f * span, max(0, len(payload) - self.frame_bytes))
                out_ref.append(refs[i])
                out_idx.append(f)
                out_ts.append(f * ms_per)
                out_frame.append(payload[lo:lo + self.frame_bytes])
        return pa.table({
            "media_ref": pa.array(out_ref, pa.string()),
            "frame_idx": pa.array(out_idx, pa.int32()),
            "frame_ts_ms": pa.array(out_ts, pa.int32()),
            "frame": pa.array(out_frame, pa.binary()),
        })


def sample_frames(media_ds, *, codec: str = "fake", frame_stride: int = 4000):
    """media table -> frame table (batches stay SMALL because input rows
    are wide — the output is narrow and re-batches freely)."""
    return media_ds.map_batches(FrameSampler(codec, frame_stride),
                                batch_format="pyarrow", batch_size=16)


# ------------------------------------------ perceptual-hash dedup

def phash64(arr: np.ndarray) -> int:
    """Classic DCT perceptual hash of a decoded signal -> 64-bit int.

    1D signals (audio) fold into a 2D frame matrix first; the signal
    block-means down to 32x32, a DCT-II keeps the 8x8 low-frequency
    corner (DC dropped), and the median-threshold bit pattern is the
    hash.  Small perturbations flip few bits (hamming distance is the
    similarity metric); deterministic, pure numpy."""
    a = np.asarray(arr, dtype=np.float64)
    if a.ndim == 1:
        w = 64
        n = max(1, len(a) // w)
        a = np.resize(a, (n, w)) if len(a) else np.zeros((1, w))
    h, w = a.shape
    # block-mean resize to 32x32 (pad by edge wrap via np.resize)
    if h < 32 or w < 32:
        a = np.resize(a, (max(h, 32), max(w, 32)))
        h, w = a.shape
    ys = (np.arange(32 + 1) * h // 32)
    xs = (np.arange(32 + 1) * w // 32)
    small = np.empty((32, 32))
    csum = np.zeros((h + 1, w + 1))
    csum[1:, 1:] = a.cumsum(0).cumsum(1)
    for i in range(32):
        y0, y1 = ys[i], ys[i + 1]
        area_rows = csum[y1, xs[1:]] - csum[y0, xs[1:]] \
            - csum[y1, xs[:-1]] + csum[y0, xs[:-1]]
        small[i] = area_rows / ((y1 - y0) * (xs[1:] - xs[:-1]))
    k = np.arange(32)
    basis = np.cos(np.pi * (2 * k[None, :] + 1) * k[:, None] / 64)
    dct = basis @ small @ basis.T
    low = dct[:8, :8].ravel()[1:]          # drop the DC term
    bits = low > np.median(low)
    out = 0
    for b in bits:
        out = (out << 1) | int(b)
    return out << 1  # pad to 64 bits (63 comparison bits + 1 zero)


def hamming64(a: int, b: int) -> int:
    return bin(a ^ b).count("1")


class MediaPHasher:
    """Task stage: decode -> phash64 per media row.  Same codec seam as
    MediaFeatureExtractor (``stub`` raises at the decode)."""

    def __init__(self, codec: str = "fake"):
        if codec not in ("fake", "stub"):
            raise ValueError(f"unknown codec {codec!r}")
        self.codec = codec

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch["payload"].combine_chunks()
        refs = batch["media_ref"].to_pylist()
        types = batch["media_type"].to_pylist()
        metas = batch["meta"].to_pylist()
        hashes = []
        for i in range(batch.num_rows):
            if self.codec == "stub":
                raise NotImplementedError(
                    "real media decoding requires Pillow/ffmpeg — the "
                    "'fake' codec exercises the plumbing")
            data = _fake_decode(payloads[i].as_py(), types[i], metas[i])
            hashes.append(phash64(data))
        return pa.table({
            "media_ref": pa.array(refs, pa.string()),
            "media_type": pa.array(types, pa.string()),
            "phash": pa.array(np.array(hashes, dtype=np.uint64)
                              .astype(np.int64)),
        })


def media_phashes(media_ds, *, codec: str = "fake"):
    """media table -> (media_ref, media_type, phash:int64)."""
    return media_ds.map_batches(MediaPHasher(codec), batch_format="pyarrow",
                                batch_size=32)


def media_dup_pairs(media_ds, *, max_hamming: int = 6,
                    codec: str = "fake"):
    """Near-duplicate media pairs by perceptual hash — the simhash
    banding trick on the 64-bit phash: 4 x 16-bit bands bucket
    candidates (any pair within hamming 3 of each other shares a band
    by pigeonhole; the default 6 relies on the same partial-recall
    contract simhash documents), exact in-bucket hamming verifies.
    Returns Dataset[ref_a, ref_b, hamming] with ref_a < ref_b."""
    from ray.data.aggregate import Min

    hashes = media_phashes(media_ds, codec=codec).materialize()

    def to_bands(batch: pa.Table) -> pa.Table:
        h = batch["phash"].to_numpy(zero_copy_only=False) \
            .astype(np.uint64)
        refs = batch["media_ref"].to_pylist()
        band_id, band_key, ref_col, ph = [], [], [], []
        for b in range(4):
            chunk = ((h >> np.uint64(16 * b))
                     & np.uint64(0xFFFF)).astype(np.int64)
            band_id.extend([b] * len(refs))
            band_key.extend(chunk.tolist())
            ref_col.extend(refs)
            ph.extend(h.astype(np.int64).tolist())
        return pa.table({"band_id": pa.array(band_id, pa.int64()),
                         "band_key": pa.array(band_key, pa.int64()),
                         "media_ref": pa.array(ref_col, pa.string()),
                         "phash": pa.array(ph, pa.int64())})

    pair_schema = pa.schema([("ref_a", pa.string()),
                             ("ref_b", pa.string()),
                             ("hamming", pa.int64())])

    def bucket_pairs(group: pa.Table, maxh=max_hamming) -> pa.Table:
        refs = group["media_ref"].to_pylist()
        hs = group["phash"].to_numpy(zero_copy_only=False) \
            .astype(np.uint64)
        order = np.argsort(np.asarray(refs))
        out = []
        for ii in range(len(order)):
            for jj in range(ii + 1, len(order)):
                a, b = order[ii], order[jj]
                if refs[a] == refs[b]:
                    continue
                d = bin(int(hs[a]) ^ int(hs[b])).count("1")
                if d <= maxh:
                    out.append({"ref_a": refs[a], "ref_b": refs[b],
                                "hamming": d})
        return pa.Table.from_pylist(out, schema=pair_schema)

    return (hashes.map_batches(to_bands, batch_format="pyarrow")
            .groupby(["band_id", "band_key"])
            .map_groups(bucket_pairs, batch_format="pyarrow")
            .groupby(["ref_a", "ref_b"])
            .aggregate(Min("hamming", alias_name="hamming")))
