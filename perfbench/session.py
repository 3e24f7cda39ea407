"""One Ray session of a benchmark run, as a child process of ``run.py``.

    python3 -m perfbench.session SPEC.json

The spec (written by ``run.py``) names the workload's pipeline mode,
its input, a small warm-up input, an output directory and this
session's share of the measured time.  The session:

1. imports Ray and the program, starts Ray and runs the untimed warm-up;
   ``setup_s`` is the time from the parent's spawn of this process to
   the end of the warm-up;
2. runs timed pipeline iterations, each into its own output directory,
   while at least half of the next one (taken to be as long as the
   last) fits in its share of the measured time; at least one;
3. with ``trace`` set, instead runs one iteration with Ray Data's
   per-operator stats captured, then the identity "floor" pipeline;
4. stops Ray and writes its results to ``SPEC.json.result``.

Outputs are checked by the parent, never here.
"""

from __future__ import annotations

import gc
import json
import os
import sys
import time
from statistics import median

# Ray gets 2 logical CPUs.  At num_cpus=1 the flagship deadlocks: the
# pipeline pre-starts one ExtractDocs actor, which holds the only CPU, so
# ReadParquet is never scheduled (a program defect, see README.md).
RAY_CPUS = 2
RAY_OBJECT_STORE_BYTES = 512 << 20
# Ray's AF_UNIX socket paths (<temp dir>/session_<date>_<pid>/sockets/
# plasma_store) must stay under 108 bytes and the temp dir must be
# absolute, so an absolute path inside a checkout of any depth is not
# usable; every Ray process inherits this cwd, so /proc/self/cwd names
# the checkout for all of them.
RAY_TEMP_DIR = "/proc/self/cwd/.bench_ray"


def run_pipeline(mode: str, n_shards: int, input_path: str, out: str):
    from ocr_ray.config import PipelineConfig
    from ocr_ray.pipelines.extract_pipeline import run_extraction
    from ocr_ray.state.checkpoint import CheckpointedRunner

    if mode == "sharded":
        return CheckpointedRunner(input_path, out,
                                  n_shards=n_shards).run(resume=False)
    return run_extraction(input_path, out,
                          PipelineConfig(pipeline_mode=mode))


def timed_iteration(spec: dict, k: int) -> dict:
    out = os.path.join(spec["out_dir"], f"it-{k}")
    t0 = time.perf_counter()
    try:
        run_pipeline(spec["mode"], spec["n_shards"], spec["input"], out)
    except Exception as e:  # noqa: BLE001 - reported, counted as errors
        return {"out": out, "wall_s": time.perf_counter() - t0,
                "error": f"{type(e).__name__}: {e}"}
    return {"out": out, "wall_s": time.perf_counter() - t0}


def settle(timeout_s: float = 30.0) -> None:
    """Untimed, between calls: let the finished call's actors release
    their CPUs, so the next call starts on an idle cluster.

    A finished call's actor pool is released only when this process's
    cyclic GC frees it.  Without the collect, the NEXT call waits up to
    ~20 s for its actor's CPU, until the raylet asks for a GC (a defect
    recorded in README.md); after it, the actors still take a moment to
    exit."""
    import ray

    gc.collect()
    end = time.monotonic() + timeout_s
    while (ray.available_resources().get("CPU", 0) < RAY_CPUS
           and time.monotonic() < end):
        time.sleep(0.02)


class _Identity:
    """The floor pipeline's UDF: Ray Data cost without extraction."""

    def __call__(self, batch):
        return batch


class _Recorder:
    """Times the calls the traced iteration makes into the program's
    public entry points, and keeps every Dataset it writes."""

    def __init__(self):
        import ray.data as rd
        import ocr_ray.pipelines.extract_pipeline as xp
        from ocr_ray.state.checkpoint import CheckpointedRunner

        self.writes: list[tuple[str, float, object]] = []
        self.shards: list[tuple[float, int, int]] = []
        self.sidecar_s = 0.0
        self._saved = [(rd.Dataset, "write_parquet"),
                       (CheckpointedRunner, "run_shard"),
                       (xp, "derive_failed_sidecar")]
        self._saved = [(o, n, getattr(o, n)) for o, n in self._saved]
        write, run_shard, sidecar = (f for _, _, f in self._saved)
        rec = self

        def write_parquet(ds, path, *args, **kwargs):
            t0 = time.perf_counter()
            write(ds, path, *args, **kwargs)
            rec.writes.append((path, time.perf_counter() - t0, ds))

        def timed_run_shard(runner, k):
            first, t0 = len(rec.writes), time.perf_counter()
            marker = run_shard(runner, k)
            rec.shards.append((time.perf_counter() - t0, first,
                               len(rec.writes)))
            return marker

        def timed_sidecar(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return sidecar(*args, **kwargs)
            finally:
                rec.sidecar_s += time.perf_counter() - t0

        rd.Dataset.write_parquet = write_parquet
        CheckpointedRunner.run_shard = timed_run_shard
        xp.derive_failed_sidecar = timed_sidecar

    def restore(self):
        for obj, name, fn in self._saved:
            setattr(obj, name, fn)

    def layer_metrics(self) -> dict:
        from perfbench.trace import ray_op_metrics

        summaries = [ds._write_ds._get_stats_summary()
                     for _, _, ds in self.writes]
        m = ray_op_metrics(summaries)
        m["pipelines.extract_pipeline.sidecar_s"] = self.sidecar_s + sum(
            s for p, s, _ in self.writes if p.rstrip("/").endswith("failed"))
        walls = sorted(w for w, _, _ in self.shards)
        fixed = [
            w - sum(ray_op_metrics([self.writes[i][2]._write_ds
                                    ._get_stats_summary()])
                    ["ray.op.ExtractDocs.wall_s"]
                    for i in range(a, b))
            for w, a, b in self.shards]
        m["state.checkpoint.shards"] = len(walls)
        m["state.checkpoint.run_shard_s.p50"] = median(walls) if walls else 0.0
        m["state.checkpoint.run_shard_s.max"] = walls[-1] if walls else 0.0
        m["state.checkpoint.fixed_s"] = median(fixed) if fixed else 0.0
        return m


def traced_iteration(spec: dict) -> tuple[dict, dict]:
    """One iteration with Ray Data stats kept, then the floor."""
    import ray.data as rd
    from ocr_ray.config import PipelineConfig
    from ocr_ray.pipelines.extract_pipeline import _pool_and_blocks

    rec = _Recorder()
    try:
        it = timed_iteration(spec, 0)
        layers = rec.layer_metrics() if "error" not in it else {}
    finally:
        rec.restore()
    del rec  # it holds the written Datasets, and with them the actors
    settle()
    # read -> identity map_batches (same batch size and actor pool shape
    # as the nested ExtractDocs stage) -> write
    cfg = PipelineConfig()
    pool, _ = _pool_and_blocks(cfg)
    t0 = time.perf_counter()
    (rd.read_parquet(spec["input"])
     .map_batches(_Identity, batch_format="pyarrow",
                  batch_size=cfg.extract_batch_size, concurrency=pool,
                  num_cpus=1, zero_copy_batch=True)
     .write_parquet(os.path.join(spec["out_dir"], "floor")))
    layers["ray.floor.wall_s"] = time.perf_counter() - t0
    return it, layers


def main(spec_path: str) -> int:
    with open(spec_path) as f:
        spec = json.load(f)
    import ray
    import ray.data

    ray.init(address="local", num_cpus=RAY_CPUS, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             object_store_memory=RAY_OBJECT_STORE_BYTES,
             _temp_dir=RAY_TEMP_DIR)
    result: dict = {"iterations": []}
    try:
        ctx = ray.data.DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.print_on_execution_start = False
        run_pipeline(spec["mode"], spec["n_shards"], spec["warm_input"],
                     os.path.join(spec["out_dir"], "warm"))
        settle()
        result["setup_s"] = time.monotonic() - spec["spawn_monotonic"]
        if spec["trace"]:
            it, result["layers"] = traced_iteration(spec)
            result["iterations"].append(it)
        else:
            spent = last = 0.0
            share = spec["share_s"]
            # another call while at least half of it fits in the share
            while not result["iterations"] or spent + last / 2 <= share:
                it = timed_iteration(spec, len(result["iterations"]))
                result["iterations"].append(it)
                if "error" in it:
                    break
                settle()
                spent += it["wall_s"]
                last = it["wall_s"]
    finally:
        ray.shutdown()
    tmp = spec_path + ".result.tmp"
    with open(tmp, "w") as f:
        json.dump(result, f)
    os.replace(tmp, spec_path + ".result")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
