"""Independent blocks of work run on every CPU this process may use.

Three loops run their blocks here: the pipeline's blocks of cell fits
(``experiment.run_pipeline``), the psi blocks of row solves
(``influence.compute_psi_norms``) and the blocks of lines of a libsvm file
(``data.load_libsvm`` and ``data.parse_libsvm``). Their blocks share
nothing, and their sparse products, BLAS calls and numpy array operations
release the GIL, so threads run them side by side. Each block's arithmetic
stays its own, so results do not depend on how many threads ran them. The
pipeline also sizes its cell blocks from ``cpu_count``; that changes no
digit either, since each column of a cell block computes bit for bit as it
would alone (``model.fit_columns``).
"""

from __future__ import annotations

import operator
import os
import threading
from typing import Callable, Iterable, TypeVar

B = TypeVar("B")
R = TypeVar("R")


def cpu_count() -> int:
    """CPUs this process may run on: ``map_blocks``'s worker count, which
    callers may read to plan their blocks; tests patch this to force it."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def map_blocks(fn: Callable[[B], R], blocks: Iterable[B]) -> list[R]:
    """``[fn(b) for b in blocks]``, run on up to one worker per CPU.

    There are min(CPU count, ``len(blocks)``) workers, or one per CPU if
    ``blocks`` has no length, and the calling thread is one of them, so on
    one CPU no thread is started. Workers draw blocks from the iterable in
    order, one at a time under a lock, so an iterator is never read ahead of
    the workers. Results come back in input order. If any call raises, or
    the iterator raises while drawing a block, no later block is started,
    and the failure of the lowest-indexed block is re-raised once every
    started block has finished.
    """
    it = iter(blocks)
    results: list = []
    lock = threading.Lock()
    drawing = True      # until the iterator ends or anything fails
    failed: tuple[int, BaseException] | None = None

    def fail(i: int, exc: BaseException) -> None:   # the lock is held
        nonlocal drawing, failed
        drawing = False
        if failed is None or i < failed[0]:
            failed = (i, exc)

    def work() -> None:
        nonlocal drawing
        while True:
            with lock:
                if not drawing:
                    return
                i = len(results)
                try:
                    block = next(it)
                except StopIteration:
                    drawing = False
                    return
                except BaseException as exc:
                    fail(i, exc)
                    return
                results.append(None)
            try:
                results[i] = fn(block)
            except BaseException as exc:
                with lock:
                    fail(i, exc)

    cpus = cpu_count()
    threads = [threading.Thread(target=work)
               for _ in range(min(cpus, operator.length_hint(blocks, cpus)) - 1)]
    for t in threads:
        t.start()
    try:
        work()
    finally:
        for t in threads:
            t.join()
    if failed is not None:
        raise failed[1]
    return results
