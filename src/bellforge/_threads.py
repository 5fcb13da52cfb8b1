"""Deterministic thread map.

Worker count comes from the BELLFORGE_THREADS environment variable
(default 1).  A map over `items` runs on min(BELLFORGE_THREADS, len(items))
workers: the calling thread is worker 0, and the rest are plain threads
started for this one map and joined before it returns.  Results are always
returned in input order, so outputs are byte-identical regardless of the
worker count.
"""

from __future__ import annotations

import os
from typing import Callable, Iterable, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def thread_count() -> int:
    raw = os.environ.get("BELLFORGE_THREADS", "1")
    try:
        n = int(raw)
    except ValueError:
        raise ValueError(f"BELLFORGE_THREADS={raw!r} is not an integer")
    if n < 1:
        raise ValueError(f"BELLFORGE_THREADS must be >= 1, got {n}")
    return n


def thread_map(fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
    """[fn(x) for x in items] on n = min(thread_count(), len(items))
    workers, in input order.

    With n <= 1 the items run serially on the calling thread.  Otherwise
    worker k runs items k, k+n, k+2n, ... in increasing order; worker 0 is
    the calling thread, and the other n - 1 are started here.  A worker
    stops at the first `Exception` its `fn` raises.  Once every started
    thread is joined, the exception of the lowest failing index is raised:
    every item below it ran and returned, so it is the exception a serial
    map would raise.  Anything that is not an `Exception`, such as a
    KeyboardInterrupt in the calling thread, propagates after the join.
    """
    items = list(items)
    n = min(thread_count(), len(items))
    if n <= 1:
        return [fn(x) for x in items]
    import threading
    results: list = [None] * len(items)
    errors: dict[int, Exception] = {}

    def work(k: int) -> None:
        for i in range(k, len(items), n):
            try:
                results[i] = fn(items[i])
            except Exception as e:
                errors[i] = e
                return

    started = []
    try:
        for k in range(1, n):
            t = threading.Thread(target=work, args=(k,))
            t.start()
            started.append(t)
        work(0)
    finally:
        for t in started:
            t.join()
    if errors:
        raise errors[min(errors)]
    return results
