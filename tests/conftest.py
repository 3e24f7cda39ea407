"""Session-scoped Ray + shared fixtures for the test suite."""

from __future__ import annotations

import pytest


@pytest.fixture(scope="session")
def ray_session():
    import ray

    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def ray_executions():
    """``with ray_executions() as names:`` collects the name of every
    Ray Data execution the driver starts inside the block."""
    from contextlib import contextmanager

    from ray.data._internal.execution.streaming_executor import (
        StreamingExecutor,
    )

    @contextmanager
    def record():
        names = []
        execute = StreamingExecutor.execute

        def recording(self, dag, *args, **kwargs):
            names.append(dag.name)
            return execute(self, dag, *args, **kwargs)

        StreamingExecutor.execute = recording
        try:
            yield names
        finally:
            StreamingExecutor.execute = execute

    return record


@pytest.fixture(scope="session")
def small_corpus():
    """Deterministic 60-doc corpus covering every archetype."""
    from ocr_ray.fixtures import documents_table

    return documents_table(60, seed=42)


@pytest.fixture(scope="session")
def small_corpus_path(small_corpus, tmp_path_factory):
    import pyarrow.parquet as pq

    d = tmp_path_factory.mktemp("corpus")
    # two files so multi-fragment reads are exercised
    pq.write_table(small_corpus.slice(0, 30), str(d / "part-0.parquet"))
    pq.write_table(small_corpus.slice(30), str(d / "part-1.parquet"))
    return str(d)


@pytest.fixture(scope="session")
def golden_result(small_corpus):
    from ocr_ray.golden import golden_extract

    return golden_extract(small_corpus)
