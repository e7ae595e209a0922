"""Row-split parallelism for the kernels that release the GIL.

``WORKERS`` is the number of cores this process may run on. A kernel whose
every output depends on its own input rows alone can be cut into
``WORKERS`` contiguous row blocks with ``map_rows``: the calling thread
computes the first block, one shared thread pool the others, and the
blocks' outputs (one array, or a tuple of arrays such as flat neighbour
lists) are joined in row order, so the result is the same to the bit for
any worker count. The pool is created on first use, never at import, and
never with one worker. Only private kernels run on it, and they never
submit to it themselves: a block that waited on the pool from a pool thread
could hold the thread its own work needs. The public functions, which a
traced run wraps in spans, stay on the calling thread.

The kernels split this way, both LOF's:

- ``lof._dense_block``: the dense float32 screen and exact select;
- ``lof._tree_block``: the k-d tree query, exact select and tie redo.
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


def map_rows(kernel, x: np.ndarray, *args):
    """``kernel(x, *args)``, computed in ``WORKERS`` contiguous row blocks.

    The kernel returns an array or a tuple of arrays. Each block's outputs
    must depend on its own rows of ``x`` alone; they are concatenated with
    the other blocks' in row order. With one worker, or fewer rows than
    workers, this is one plain call on the calling thread. A block's
    exception is raised here.
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
    if isinstance(head, tuple):
        return tuple(np.concatenate(parts) for parts in zip(head, *tails))
    return np.concatenate([head, *tails])
