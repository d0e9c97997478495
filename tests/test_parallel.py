import os
import signal
import threading
import time

import pytest

from seqdet import parallel

needs_openblas = pytest.mark.skipif(not parallel._openblas(),
                                    reason="numpy's OpenBLAS not found")


def blas_threads() -> int:
    return parallel._openblas()[0]()


@needs_openblas
def test_one_blas_thread_restores_the_count():
    before = blas_threads()
    with parallel.one_blas_thread():
        assert blas_threads() == 1
    assert blas_threads() == before
    with pytest.raises(KeyError):
        with parallel.one_blas_thread():
            assert blas_threads() == 1
            raise KeyError("body")
    assert blas_threads() == before


@needs_openblas
def test_nested_pin_leaves_the_outer_one():
    before = blas_threads()
    with parallel.one_blas_thread():
        with parallel.one_blas_thread():
            pass
        assert blas_threads() == 1
    assert blas_threads() == before


def test_run_outside_the_pin_is_serial():
    threads = []
    parallel.run(lambda k: threads.append((k, threading.get_ident())), 3)
    assert threads == [(k, threading.get_ident()) for k in range(3)]


@needs_openblas
def test_nested_run_completes_serially():
    calls = []

    def outer(k):
        me = threading.get_ident()
        parallel.run(lambda j: calls.append((k, j, me, threading.get_ident())), 3)

    def main():
        with parallel.one_blas_thread():
            parallel.run(outer, 2)

    thread = threading.Thread(target=main, daemon=True)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    assert sorted(call[:2] for call in calls) == [(k, j) for k in range(2)
                                                  for j in range(3)]
    # each inner run stayed in the thread of its outer call; the two outer
    # calls ran on two threads
    assert all(outer_thread == inner for _, _, outer_thread, inner in calls)
    assert len({call[2] for call in calls}) == 2


@needs_openblas
@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
def test_forked_child_makes_its_own_helpers():
    # the parent's pool object survives a fork but its threads do not: a
    # child that submitted to it would wait for ever
    with parallel.one_blas_thread():
        parallel.run(lambda k: None, 2)
    pid = os.fork()
    if pid == 0:  # the child never returns to pytest
        code = 1
        try:
            seen = []
            with parallel.one_blas_thread():
                parallel.run(lambda k: seen.append(threading.get_ident()), 2)
            code = 0 if len(set(seen)) == 2 else 1
        finally:
            os._exit(code)
    deadline = time.monotonic() + 20
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.05)
    if done[0] == 0:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    assert done[0] == pid and os.waitstatus_to_exitcode(done[1]) == 0
