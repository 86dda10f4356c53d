"""One ordered process pool for the package's independent jobs."""
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from .errors import WorkerFailed


def usable_cpus() -> int:
    """The CPUs this process may run on."""
    return (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


def ordered_map(fn, items, workers: int, chunksize: int) -> list:
    """[fn(item) for item in items] over a sequence, in at most `workers`
    processes: none past usable_cpus() or the chunks of chunksize items,
    and no pool when that is one.  A worker that dies raises WorkerFailed."""
    procs = min(workers, usable_cpus(), -(-len(items) // chunksize))
    if procs <= 1:
        return [fn(item) for item in items]
    try:
        with ProcessPoolExecutor(max_workers=procs) as pool:
            return list(pool.map(fn, items, chunksize=chunksize))
    except BrokenProcessPool as exc:
        raise WorkerFailed(f"a worker process ended abruptly: {exc}") from None
