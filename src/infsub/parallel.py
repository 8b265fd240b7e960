"""Independent blocks of work run on every CPU this process may use.

Three loops run their blocks here: the pipeline's blocks of cell fits
(``experiment.run_pipeline``), the psi blocks of row solves
(``influence.compute_psi_norms``) and the blocks of lines of a libsvm file
(``data.load_libsvm``). Their blocks share nothing, and their sparse products,
BLAS calls and numpy array operations release the GIL, so threads run them side
by side. Each block's arithmetic stays its own, so results do not depend on how
many threads ran them. The first two loops solve independent columns over one
training matrix, and ``column_blocks`` plans both from ``cpu_count`` and the
matrix's size; that changes no digit, since each column of a block computes bit
for bit as it would alone (``model.fit_columns``, ``model.pcg``).
"""

from __future__ import annotations

import operator
import os
import threading
from typing import Callable, Iterable, TypeVar

B = TypeVar("B")
R = TypeVar("R")

# Work-array floor of one block of columns. A block holds up to
# k_max = max(COLUMN_BLOCK_BYTES, bytes of X) // (8 (n + d)) columns (40 at
# n + d = 1842; 42 on a 12000 x 5002 one-hot X of 40 fields, whose bytes
# pass the floor), so an (n, k) and a (d, k) array of a block stay near the
# larger of this size and X's. Each product reads X once plus k dense
# columns, so widening pays while X dominates that read. A cell fit's block
# holds about six such pairs at its peak, and up to one block per CPU runs
# at once (``map_blocks``).
COLUMN_BLOCK_BYTES = 576 * 1024


def cpu_count() -> int:
    """CPUs this process may run on: ``map_blocks``'s worker count, which
    ``column_blocks`` reads to plan its blocks; tests patch this to force it."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def column_blocks(n_columns: int, X) -> list[slice]:
    """Consecutive blocks of ``n_columns`` independent columns solved over
    the sparse (n, d) matrix ``X``, as slices in column order.

    Blocks hold at most k_max = max(COLUMN_BLOCK_BYTES, bytes of X) //
    (8 (n + d)) columns. Their count is the least multiple of ``cpu_count()``
    that keeps them within k_max, capped at ``n_columns``, so each CPU gets
    an equal share. Widths differ by at most one, the wider first.
    """
    if n_columns == 0:
        return []
    x_bytes = X.data.nbytes + X.indices.nbytes + X.indptr.nbytes
    k_max = max(1, max(COLUMN_BLOCK_BYTES, x_bytes) // (8 * sum(X.shape)))
    cpus = cpu_count()
    n_blocks = min(n_columns, cpus * -(-n_columns // (cpus * k_max)))
    width, wider = divmod(n_columns, n_blocks)
    starts = [b * width + min(b, wider) for b in range(n_blocks + 1)]
    return [slice(lo, hi) for lo, hi in zip(starts, starts[1:])]


def map_blocks(fn: Callable[[B], R], blocks: Iterable[B]) -> list[R]:
    """``[fn(b) for b in blocks]``, run on up to one worker per CPU.

    There are min(CPU count, ``len(blocks)``) workers, or one per CPU if
    ``blocks`` has no length, and the calling thread is one of them, so on
    one CPU no thread is started. Workers draw blocks from the iterable in
    order, one at a time under a lock, so an iterator is never read ahead of
    the workers. Results come back in input order. If any call raises, or
    the iterator raises as a block is drawn, no later block is started, and
    the failure of the lowest-indexed block is re-raised once every started
    block has finished.
    """
    it = iter(blocks)
    results: list = []
    failures: list[tuple[int, BaseException]] = []
    lock = threading.Lock()

    def work() -> None:
        while True:
            with lock:
                if failures:
                    return
                i = len(results)
                try:
                    block = next(it)
                except StopIteration:    # an ended iterator stays ended
                    return
                except BaseException as exc:
                    failures.append((i, exc))
                    return
                results.append(None)
            try:
                results[i] = fn(block)
            except BaseException as exc:
                with lock:
                    failures.append((i, exc))

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
    if failures:
        raise min(failures, key=lambda f: f[0])[1]
    return results
