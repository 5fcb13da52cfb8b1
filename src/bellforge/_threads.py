"""Deterministic thread pool helper.

Worker count comes from the BELLFORGE_THREADS environment variable
(default 1).  Results are always returned in input order, so outputs are
byte-identical regardless of the worker count.
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
    """map() across the configured pool, preserving input order."""
    items = list(items)
    n = thread_count()
    if n == 1 or len(items) <= 1:
        return [fn(x) for x in items]
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=n) as pool:
        return list(pool.map(fn, items))
