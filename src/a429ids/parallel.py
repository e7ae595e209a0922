"""Row-split parallelism for the kernels that release the GIL.

``WORKERS`` is the number of cores this process may run on. A kernel whose
every output row depends on its own input row alone can be cut into
``WORKERS`` contiguous row blocks with ``map_rows``: the calling thread
computes the first block, one shared thread pool the others, and the blocks
are joined in row order, so the result is the same to the bit for any
worker count. The pool is created on first use, never at import, and never
with one worker. Only private kernels run on it; the public functions,
which a traced run wraps in spans, stay on the calling thread.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np


def _available_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


WORKERS = _available_cores()

_POOL: ThreadPoolExecutor | None = None
_POOL_LOCK = threading.Lock()


def _pool() -> ThreadPoolExecutor:
    """The one pool, of ``WORKERS - 1`` threads, made on first use."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            _POOL = ThreadPoolExecutor(WORKERS - 1, thread_name_prefix="a429ids-rows")
        return _POOL


def map_rows(kernel, x: np.ndarray, *args) -> np.ndarray:
    """``kernel(x, *args)``, computed in ``WORKERS`` contiguous row blocks.

    Row i of the result must depend on row i of ``x`` alone. With one
    worker, or fewer rows than workers, this is one plain call on the
    calling thread. A block's exception is raised here.
    """
    workers = WORKERS
    if workers == 1 or len(x) < workers:
        return kernel(x, *args)
    first, *rest = np.array_split(x, workers)
    futures = [_pool().submit(kernel, block, *args) for block in rest]
    try:
        head = kernel(first, *args)
    finally:
        # every block has finished, and its exception is raised, before this returns
        tails = [future.result() for future in futures]
    return np.concatenate([head, *tails])
