"""The extraction pipeline and the keyword stage on a one-CPU Ray cluster.

A stage on an actor pool whose actor holds a whole CPU would take the
only one and starve the read tasks feeding it, so the job would hang.
The runs happen in a child process with its own one-CPU cluster and a
hard timeout; the child's whole process tree is killed if it fires."""

import json
import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 120

CHILD = textwrap.dedent("""
    import json, sys
    import ray
    ray.init(address="local", num_cpus=1, include_dashboard=False,
             logging_level="ERROR", object_store_memory=200 * 2**20)
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False
    from ocr_ray.fixtures import write_corpus
    from ocr_ray.pipelines.extract_pipeline import run_extraction
    from ocr_ray.stages.analyze import corpus_keyword_counts, keyword_hits
    corpus = write_corpus(sys.argv[1] + "/corpus", n_docs=40, seed=42)
    res = run_extraction(corpus, sys.argv[1] + "/out")
    extracted = ray.data.read_parquet(sys.argv[1] + "/out/extracted")
    keywords = corpus_keyword_counts(keyword_hits(extracted)).count()
    ray.shutdown()
    print(json.dumps({**{k: res[k] for k in ("extracted", "failed")},
                      "keywords": keywords}))
""")


def test_extraction_finishes_on_one_cpu(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT)}
    proc = subprocess.Popen(
        [sys.executable, "-c", CHILD, str(tmp_path)], cwd=str(tmp_path),
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True)
    try:
        out, err = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise AssertionError(
            f"extraction + keywords on one CPU still running after "
            f"{TIMEOUT_S} s")
    assert proc.returncode == 0, err[-2000:]
    res = json.loads(out.strip().splitlines()[-1])
    # every one of the 365 keywords occurs (the corpus has kwdall docs)
    assert res == {"extracted": 37, "failed": 3, "keywords": 365}
