"""Runner knobs for the benchmark harness, read from the environment.

The figure drivers fan their independent runs out over the
:mod:`repro.runner` process pool and memoize results in the
content-addressed cache, so a warm re-run of an unchanged benchmark
suite is near-instant:

    REPRO_JOBS=4 pytest benchmarks/ --benchmark-only   # 4 workers
    REPRO_JOBS=1 REPRO_CACHE=0 pytest benchmarks/      # serial, no cache

``REPRO_JOBS`` defaults to all cores; ``REPRO_CACHE=0`` disables the
cache (default root ``.repro_cache/``, override with
``REPRO_CACHE_DIR``).  Results are bit-identical at any setting.
"""

import os

from repro.runner import resolve_jobs


def bench_jobs() -> int:
    """``REPRO_JOBS`` by ``--jobs``'s rules (:func:`resolve_jobs`):
    unset or 0 means all cores, below 0 is an error."""
    text = os.environ.get("REPRO_JOBS", "0")
    try:
        jobs = int(text)
    except ValueError:
        raise ValueError(f"REPRO_JOBS must be an integer, got {text!r}") from None
    return resolve_jobs(jobs)


def bench_cache() -> bool:
    return os.environ.get("REPRO_CACHE", "1") != "0"
