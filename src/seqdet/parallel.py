"""Work split across the CPUs the process may use: a decode hands its pass-1
channel groups to `run`, and this is the one place that picks a worker
count.

`run` calls a function for worker 0 in the calling thread and for the other
workers on a pool of helper threads, which is created on first use and kept
for the life of the process. It starts the helpers only when it takes the
pin of `one_blas_thread`, which holds numpy's OpenBLAS at one thread: after
a GEMM, OpenBLAS's idle threads spin for a while and take a core from the
helpers. One thread at a time holds that pin. A `run` that cannot take it
(another thread holds it, or an enclosing `run` or pin in this thread does)
runs its items one after another in the caller.
"""
from __future__ import annotations

import contextlib
import os
import threading

_lock = threading.Lock()  # held by the thread that holds the pin
_blas = None              # (get, set) thread count of numpy's OpenBLAS, or ()
_pool = None              # (pid, executor): a forked child makes its own


def cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _openblas():
    """numpy's bundled OpenBLAS thread-count functions, () if not found."""
    global _blas
    if _blas is None:
        import ctypes
        import glob
        import numpy as np
        _blas = ()
        for path in sorted(glob.glob(os.path.join(
                os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))):
            lib = ctypes.CDLL(path)
            get = getattr(lib, "scipy_openblas_get_num_threads64_", None)
            put = getattr(lib, "scipy_openblas_set_num_threads64_", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                _blas = (get, put)
                break
    return _blas


@contextlib.contextmanager
def one_blas_thread():
    """numpy's OpenBLAS at one thread in the body, and the previous count
    restored after it, also when the body raises; yields True. If the
    library is not found, or another thread (or an enclosing call) holds
    the pin, the count is left alone and it yields False."""
    blas = _openblas()
    if not blas or not _lock.acquire(blocking=False):
        yield False
        return
    get, put = blas
    before = get()
    try:
        put(1)
        yield True
    finally:
        put(before)
        _lock.release()


def _helpers():
    """The helper pool of this process: a forked child inherits the parent's
    pool object but none of its threads, so it makes its own."""
    global _pool
    if _pool is None or _pool[0] != os.getpid():
        from concurrent.futures import ThreadPoolExecutor
        _pool = (os.getpid(), ThreadPoolExecutor(max(cpus() - 1, 1),
                                                 thread_name_prefix="seqdet"))
    return _pool[1]


def run(fn, count: int) -> None:
    """fn(0) .. fn(count - 1) inside `one_blas_thread`. Worker k of w calls
    fn(k), fn(k + w), ...; w is cpus() when that gives each worker at least
    two items and this call took the pin, and 1 otherwise. Worker 0 is the
    caller and the others are helpers. Returns when every worker has ended,
    then raises the first exception any of them raised."""
    with one_blas_thread() as pinned:
        workers = cpus() if pinned and count >= 2 * cpus() else 1

        def work(k: int) -> None:
            for i in range(k, count, workers):
                fn(i)

        futures = [_helpers().submit(work, k) for k in range(1, workers)]
        try:
            work(0)
        finally:
            errors = [f.exception() for f in futures]  # waits for each helper
        for error in errors:
            if error is not None:
                raise error
