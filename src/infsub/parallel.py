"""Independent blocks of work run on every CPU this process may use.

The pipeline's blocks of cell fits and the psi blocks of row solves share
nothing, and their sparse products and BLAS calls release the GIL, so
threads run them side by side. Each block's arithmetic stays its own, so
results do not depend on how many threads ran them.
"""

from __future__ import annotations

import os
import threading
from typing import Callable, Sequence, TypeVar

B = TypeVar("B")
R = TypeVar("R")


def _cpu_count() -> int:
    """CPUs this process may run on; tests patch this to force a worker count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def map_blocks(fn: Callable[[B], R], blocks: Sequence[B]) -> list[R]:
    """``[fn(b) for b in blocks]``, run on min(CPU count, len(blocks)) workers.

    The calling thread is one of the workers, so on one CPU no thread is
    started. Workers take blocks in input order. Results come back in input
    order. If any call raises, no block after the first failing one is
    started, and the failure of the lowest-indexed block is re-raised once
    every started block has finished.
    """
    results: list = [None] * len(blocks)
    lock = threading.Lock()
    next_block = 0
    stop = len(blocks)  # the lowest failed index, or len(blocks)
    failure: BaseException | None = None

    def work() -> None:
        nonlocal next_block, stop, failure
        while True:
            with lock:
                i = next_block
                next_block += 1
                if i >= stop:
                    return
            try:
                results[i] = fn(blocks[i])
            except BaseException as exc:
                with lock:
                    if i < stop:
                        stop, failure = i, exc

    threads = [threading.Thread(target=work)
               for _ in range(min(_cpu_count(), len(blocks)) - 1)]
    for t in threads:
        t.start()
    try:
        work()
    finally:
        for t in threads:
            t.join()
    if failure is not None:
        raise failure
    return results
