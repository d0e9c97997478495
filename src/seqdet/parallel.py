"""The frontend's channel groups and pass-1 scoring on every CPU the process
may use.

`run` calls a function for worker 0 in the calling thread and for the other
workers on a pool of helper threads, which is created on first use and kept
for the life of the process. It runs them in parallel only inside
`one_blas_thread`, which holds numpy's OpenBLAS at one thread: after a GEMM,
OpenBLAS's idle threads spin for a while and take a core from the helpers.
One thread at a time holds that pin. A `run` outside it, nested in another
`run` or in another thread runs its workers one after another in the caller.
"""
from __future__ import annotations

import contextlib
import os
import threading

_lock = threading.Lock()  # held by the thread that holds the pin
_owner = None             # that thread's ident while no run of it is in flight
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
    restored after it, also when the body raises. If the library is not
    found, or another thread (or an enclosing call) holds the pin, the count
    is left alone."""
    global _owner
    blas = _openblas()
    if not blas or not _lock.acquire(blocking=False):
        yield
        return
    get, put = blas
    before = get()
    try:
        put(1)
        _owner = threading.get_ident()
        yield
    finally:
        _owner = None
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
    """fn(0) in the caller and fn(1) .. fn(count - 1) on the helpers, in
    parallel when the caller holds the pin of `one_blas_thread`; otherwise
    all in the caller, one after another. Returns when every call has
    ended, then raises the first exception any of them raised."""
    global _owner
    me = threading.get_ident()
    if count < 2 or _owner != me:
        for k in range(count):
            fn(k)
        return
    _owner = None  # a run nested in fn(0) stays serial
    futures = []
    try:
        for k in range(1, count):
            futures.append(_helpers().submit(fn, k))
        fn(0)
    finally:
        errors = [f.exception() for f in futures]  # waits for each helper
        _owner = me
    for error in errors:
        if error is not None:
            raise error
