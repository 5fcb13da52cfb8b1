"""Tests for the deterministic thread map."""

import threading
import time

import pytest

from bellforge._threads import thread_map


@pytest.mark.parametrize("threads", [1, 2, 3, 5])
@pytest.mark.parametrize("size", [0, 1, 2, 7])
def test_results_in_input_order(monkeypatch, threads, size):
    monkeypatch.setenv("BELLFORGE_THREADS", str(threads))
    assert thread_map(lambda x: 10 * x, range(size)) == \
        [10 * x for x in range(size)]


@pytest.mark.parametrize("threads,size", [(2, 7), (3, 7), (5, 7), (3, 2),
                                          (64, 3)])
def test_caller_is_worker_zero(monkeypatch, threads, size):
    monkeypatch.setenv("BELLFORGE_THREADS", str(threads))
    n = min(threads, size)
    seen = thread_map(lambda x: threading.current_thread(), range(size))
    caller = threading.current_thread()
    assert [t is caller for t in seen] == [i % n == 0 for i in range(size)]
    # Worker k runs items k, k+n, ...: one thread per residue, n in all.
    assert all(seen[i] is seen[i % n] for i in range(size))
    assert len(set(seen)) == n
    # An ident may be reused once its thread ends, never shared by two
    # live ones.
    assert len({t.ident for t in seen}) <= n


def test_lowest_failing_index_is_raised(monkeypatch):
    # With 3 workers, items 4 and 2 fall to workers 1 and 2.  Worker 1
    # fails at 4 while worker 2 is held until then, so the higher index
    # fails first; the lower one is still the one raised.
    monkeypatch.setenv("BELLFORGE_THREADS", "3")
    baseline = threading.active_count()
    first = threading.Event()

    def fn(x):
        if x == 4:
            first.set()
            raise KeyError(x)
        if x == 2:
            assert first.wait(10)
            raise ValueError(x)
        return x

    with pytest.raises(ValueError, match="2"):
        thread_map(fn, range(9))
    assert threading.active_count() == baseline


def test_failure_on_caller_joins_workers(monkeypatch):
    monkeypatch.setenv("BELLFORGE_THREADS", "2")
    baseline = threading.active_count()
    ran = []

    def fn(x):
        if x == 0:
            raise RuntimeError("caller")
        time.sleep(0.05)  # still running when the caller raises
        ran.append(x)
        return x

    with pytest.raises(RuntimeError, match="caller"):
        thread_map(fn, range(5))
    # The other worker ran all of its items before the raise.
    assert sorted(ran) == [1, 3]
    assert threading.active_count() == baseline
