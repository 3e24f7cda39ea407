"""Benchmark of the ocr_ray extraction engine.

    python3 perfbench/run.py --workload web_text --seconds 24 --trace 0

Run from the root of a checkout.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it report every measured value by name and
unit.  See perfbench/README.md for the workloads, metrics and traps.

This process is the load generator and the oracle: it writes the seeded
corpus, computes ``golden_extract`` over it, spawns the sessions that
drive the pipeline (``perfbench/session.py``), samples the memory of
their process trees, and checks every output they wrote.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict

DEFAULT_SEED = 42
SESSIONS = 3          # fresh processes per timed run; setup_s is their median
WARM_DOCS = 16        # warm-up input: the first docs of the workload
SESSION_TIMEOUT_S = 75.0
RUN_BUDGET_S = 150.0  # every session ends before this, or is killed
SAMPLE_EVERY_S = 0.2



def _fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


# ------------------------------------------------------------ processes

def _children() -> dict[int, list[int]]:
    kids: dict[int, list[int]] = defaultdict(list)
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if fields[0] != "Z":
            kids[int(fields[1])].append(int(name))
    return kids


def _tree(pid: int) -> set[int]:
    kids, out, todo = _children(), {pid}, [pid]
    while todo:
        for c in kids.get(todo.pop(), ()):
            if c not in out:
                out.add(c)
                todo.append(c)
    return out


def _rss_bytes(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/statm") as f:
            return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
    except (OSError, IndexError, ValueError):
        return 0


def _alive(pids) -> set[int]:
    out = set()
    for p in pids:
        try:
            with open(f"/proc/{p}/stat") as f:
                if f.read().rsplit(")", 1)[1].split()[0] != "Z":
                    out.add(p)
        except OSError:
            pass
    return out


def _kill(pids) -> None:
    for p in pids:
        try:
            os.kill(p, signal.SIGKILL)
        except ProcessLookupError:
            pass


def _reap(pids, grace_s: float = 20.0) -> None:
    """Wait for every process in ``pids`` to end; kill what outlives
    ``grace_s`` (Ray's own shutdown normally stops them first)."""
    end = time.monotonic() + grace_s
    while _alive(pids) and time.monotonic() < end:
        time.sleep(0.1)
    left = _alive(pids)
    _kill(left)
    while _alive(left):
        time.sleep(0.05)


def run_session(spec: dict, spec_path: str, deadline: float) -> dict:
    """Spawn one session, sample its tree's memory until it exits, stop
    every process it started.  Returns the session's result with
    ``peak_rss_bytes`` and, on a crash or timeout, ``error``."""
    root = os.getcwd()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [root] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep)
                  if p])
    # Ray's own temp files follow TMPDIR / RAY_TMPDIR; the directory must
    # exist or Python's tempfile falls back to /tmp
    env["TMPDIR"] = env["RAY_TMPDIR"] = os.path.join(root, ".bench_ray")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    env["RAY_USAGE_STATS_ENABLED"] = "0"
    env["RAY_DATA_DISABLE_PROGRESS_BARS"] = "1"
    env.pop("RAY_ADDRESS", None)
    spec["spawn_monotonic"] = time.monotonic()
    with open(spec_path, "w") as f:
        json.dump(spec, f)
    log = open(spec_path + ".log", "w")
    proc = subprocess.Popen(
        [sys.executable, "-m", "perfbench.session", spec_path],
        cwd=root, env=env, stdout=log, stderr=subprocess.STDOUT)
    seen, peak, error = {proc.pid}, 0, None
    try:
        while proc.poll() is None:
            if time.monotonic() > deadline:
                tree = _tree(proc.pid)
                seen |= tree
                _kill(tree)
                error = "timeout"
                break
            tree = _tree(proc.pid)
            seen |= tree
            peak = max([peak] + [_rss_bytes(p) for p in tree])
            time.sleep(SAMPLE_EVERY_S)
        proc.wait()
    finally:
        _reap(seen)
        log.close()
        _drop_ray_session_dirs(proc.pid)
    try:
        with open(spec_path + ".result") as f:
            result = json.load(f)
    except OSError:
        result = {"iterations": []}
        error = error or f"session exited with {proc.returncode}"
    if error:
        result["error"] = error
        with open(spec_path + ".log") as f:
            print(f"# session error ({error}); log tail:\n"
                  + "".join(f.readlines()[-15:]), end="")
    result["peak_rss_bytes"] = peak
    return result


# ------------------------------------------------------------ the run

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "ocr_ray", "__init__.py")):
        return _fail("run from the root of an ocr_ray checkout "
                     "(no ocr_ray/ package in the current directory)")
    sys.path.insert(0, root)
    from perfbench import corpus

    if args.workload not in corpus.WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; choose from "
                     f"{sorted(corpus.WORKLOADS)}")
    w = corpus.WORKLOADS[args.workload]
    started = time.monotonic()
    work = os.path.join(root, ".bench_work",
                        f"{w.name}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    try:
        return _run(args, w, work, started)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not os.listdir(os.path.dirname(work)):
            os.rmdir(os.path.dirname(work))


def _run(args, w, work: str, started: float) -> int:
    from ocr_ray.golden import golden_extract
    from perfbench import check, corpus

    t0 = time.perf_counter()
    table = corpus.documents(w, args.seed)
    corpus.write_files(table, os.path.join(work, "in"), w.n_files)
    corpus.write_files(corpus.warmup_docs(table, WARM_DOCS),
                       os.path.join(work, "warm"), 1)
    gen_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    exp = check.expected_from_golden(table, golden_extract(table))
    golden_s = time.perf_counter() - t0
    digest = exp.digest()
    pinned = _pinned_digest(w.name, args.seed)
    print(f"# workload {w.name} seed {args.seed}: {table.num_rows} docs "
          f"({len(exp.failed)} rejected by golden), generated in "
          f"{gen_s:.2f} s, golden in {golden_s:.2f} s")
    print(f"# output digest {digest} (pinned: {pinned or 'none'})")
    digest_ok = pinned is None or pinned == digest

    n_sessions = 1 if args.trace else SESSIONS
    sessions = []
    for k in range(n_sessions):
        spec = {"mode": w.mode, "n_shards": w.n_shards,
                "input": os.path.join(work, "in"),
                "warm_input": os.path.join(work, "warm"),
                "out_dir": os.path.join(work, f"s{k}"),
                "share_s": args.seconds / n_sessions,
                "trace": bool(args.trace)}
        deadline = min(time.monotonic() + SESSION_TIMEOUT_S,
                       started + RUN_BUDGET_S)
        sessions.append(run_session(spec, os.path.join(work, f"s{k}.json"),
                                    deadline))

    rates, attempted, errors, report = [], 0, 0, []
    for k, s in enumerate(sessions):
        its = s["iterations"] or [{"error": s.get("error", "no run")}]
        if s.get("error") and "error" not in its[-1]:
            its.append({"error": s["error"]})  # killed mid-iteration
        for it in its:
            attempted += exp.n_docs
            if "error" in it:
                errors += exp.n_docs
                report.append(f"# session {k}: ERROR {it['error']}")
                continue
            bad = check.count_errors(it["out"], exp)
            if w.mode == "sharded":
                bad = max(bad, check.sharded_report_errors(
                    it["out"], exp, w.n_shards))
            errors += bad
            rates.append(exp.n_docs / it["wall_s"])
            report.append(f"# session {k}: {it['wall_s']:.3f} s, "
                          f"{rates[-1]:.2f} docs/s, {bad} doc errors")
    print("\n".join(report))
    setups = [s["setup_s"] for s in sessions if "setup_s" in s]
    print("# setup_s per session: " + ", ".join(f"{x:.3f}" for x in setups))

    if args.trace:
        metrics = _trace_metrics(table, w, sessions[0], rates)
    else:
        values = {
            "docs_per_sec": statistics.median(rates) if rates else 0.0,
            "setup_s": statistics.median(setups) if setups else 0.0,
            "doc_ok_frac": 1.0 - errors / attempted,
            "peak_rss_mb": max(s["peak_rss_bytes"] for s in sessions) / 1e6,
        }
        metrics = {k: {"value": values[k], "unit": u}
                   for k, u in metric_units("end_to_end").items()}
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": errors == 0 and digest_ok,
                      "attempted": attempted, "failed": errors,
                      "metrics": metrics}))
    return 0


def _trace_metrics(table, w, session: dict, rates: list[float]) -> dict:
    from perfbench import trace

    m = trace.replay_metrics(table, w.mode == "exploded")
    layers = session.get("layers", {})
    m.update({k: v for k, v in layers.items() if k != "ray.floor.wall_s"})
    floor = layers.get("ray.floor.wall_s")
    m["ray.floor.docs_per_sec"] = table.num_rows / floor if floor else 0.0
    from perfbench.session import RAY_CPUS

    m["pipeline_efficiency"] = (
        rates[0] / (m["kernel.docs_per_sec"] * RAY_CPUS) if rates else 0.0)
    units = metric_units("per_layer")
    return {k: {"value": float(m.get(k, 0.0)), "unit": u}
            for k, u in units.items()}


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics
    declared in the checkout's BENCHMARK.json, in declared order."""
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(os.path.dirname(here), "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def _pinned_digest(workload: str, seed: int) -> str | None:
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "digests.json")) as f:
        return json.load(f).get(workload, {}).get(str(seed))


def _drop_ray_session_dirs(pid: int) -> None:
    """Ray leaves a session's logs under its temp dir, in a directory
    named after the pid that started it; remove them once it stopped."""
    base = os.path.join(os.getcwd(), ".bench_ray")
    if not os.path.isdir(base):
        return
    for name in os.listdir(base):
        if name.startswith("session_") and name.endswith(f"_{pid}"):
            shutil.rmtree(os.path.join(base, name), ignore_errors=True)
    latest = os.path.join(base, "session_latest")
    if os.path.islink(latest) and not os.path.exists(latest):
        os.unlink(latest)
    if not os.listdir(base):
        os.rmdir(base)


if __name__ == "__main__":
    sys.exit(main())
