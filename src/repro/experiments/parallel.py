"""Process-parallel sweep execution.

Every sweep point is an independent, fully seeded simulation, so a sweep
is embarrassingly parallel: this module fans :class:`ExperimentConfig`
instances out to a :class:`~concurrent.futures.ProcessPoolExecutor` and
collects :class:`~repro.experiments.runner.RunResult` objects back **in
submission order**, making parallel execution bit-identical to serial
execution (the serial-vs-parallel determinism-digest integration test
enforces this).

Concurrency is controlled by the ``jobs`` argument, the ``REPRO_JOBS``
environment variable, or ``--jobs`` on the CLIs that expose it:

- ``jobs == 1`` (the default) runs serially in-process — no pool, no
  pickling, live ``network``/``engine`` objects on the results;
- ``jobs > 1`` uses that many worker processes; results come back as
  portable copies (``RunResult.portable()``) without the live network;
- ``jobs <= 0`` means "one worker per CPU".

The runtime sanitizer state (``REPRO_SANITIZE`` / ``sanitize.scoped``)
is propagated into workers by a pool initializer, so invariant checking
covers parallel runs exactly as it covers serial ones.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, Iterable, List, Optional

from repro.analysis import sanitize as _sanitize
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import RunResult, run_experiment

#: Per-worker-process state installed by the pool initializer before any
#: task runs (the canonical stdlib pattern for shipping one-time settings
#: to workers).  Never mutated after initialization within a worker.
_worker_state: Dict[str, bool] = {}  # noqa: VR004 - worker-process init state


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Effective worker count: argument, else ``REPRO_JOBS``, else 1.

    Zero or negative values (from either source) select one worker per
    available CPU.
    """
    if jobs is None:
        env = os.environ.get("REPRO_JOBS", "").strip()
        if not env:
            return 1
        try:
            jobs = int(env)
        except ValueError:
            raise ValueError(
                f"REPRO_JOBS must be an integer, got {env!r}") from None
    if jobs <= 0:
        jobs = os.cpu_count() or 1
    return jobs


def _worker_init(sanitize_on: bool) -> None:
    """Install the parent's sanitizer state in a fresh worker process.

    Also exports ``REPRO_SANITIZE`` so any process this worker itself
    spawns (and any module imported later that consults the environment)
    observes the same setting regardless of the pool start method.
    """
    _worker_state["sanitize"] = sanitize_on
    os.environ["REPRO_SANITIZE"] = "1" if sanitize_on else "0"
    _sanitize.set_enabled(sanitize_on)


def _run_portable(config: ExperimentConfig) -> RunResult:
    """Worker task: run one experiment, return a picklable result."""
    if _worker_state.get("sanitize") and not _sanitize.enabled():
        # Defensive: a previous task left the sanitizer toggled off
        # (e.g. via an unbalanced scoped()); restore the pool setting.
        _sanitize.set_enabled(True)
    return run_experiment(config).portable()


def run_many(configs: Iterable[ExperimentConfig],
             jobs: Optional[int] = None) -> List[RunResult]:
    """Run every config, serially or across processes; ordered results.

    The returned list is ordered exactly as ``configs``; each result's
    determinism digest is byte-identical whichever path executed it.
    """
    configs = list(configs)
    jobs = resolve_jobs(jobs)
    if jobs == 1 or len(configs) <= 1:
        return [run_experiment(config) for config in configs]
    workers = min(jobs, len(configs))
    pool = ProcessPoolExecutor(
        max_workers=workers, initializer=_worker_init,
        initargs=(_sanitize.enabled(),))
    try:
        results = list(pool.map(_run_portable, configs))
    except BaseException:
        # KeyboardInterrupt (or any abort) must not orphan the workers:
        # drop the queued tasks and return without blocking on them.  A
        # plain `with` block would call shutdown(wait=True) here and hang
        # until every in-flight run finished.
        pool.shutdown(wait=False, cancel_futures=True)
        raise
    pool.shutdown(wait=True)
    return results
