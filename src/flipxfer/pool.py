"""Independent work spread over the usable CPUs: tasks in worker processes,
with the inputs they share sent once, and eval chunks in threads.

``pool_map(fn, shared, tasks, workers)`` returns ``[fn(shared, task) for task
in tasks]``. With more than one worker the calls run in a process pool:
``shared`` reaches each worker once, through the pool initializer (inherited,
not pickled, where workers fork), while each task and its result are pickled.
Tasks start in the order given and their results come back in it, so a
caller that orders its tasks chooses which start first, and the results do
not depend on the worker count.

Each worker lets its allocator keep freed memory from the start (glibc
only; see ``keep_freed_memory``), as any process does once it trains
(``transfer.sgd_epochs``), so a training step's temporaries are reused from
one step to the next.

``thread_map(fn, items, workers)`` returns ``[fn(item) for item in items]``
with the items split into one contiguous group per thread: this thread runs
the first group and helper threads the rest, all joined before it returns.
It pays where ``fn`` spends its time in numpy calls that release the GIL,
such as a conv model's eval chunks.
"""

from __future__ import annotations

import ctypes
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from functools import partial

__all__ = ["usable_cpus", "keep_freed_memory", "pool_map", "thread_map"]

_shared = None  # a worker's shared inputs; set by the pool initializer, in workers only

# glibc's mallopt parameters, each set to the value its dynamic thresholds
# top out at on 64-bit (an mmap threshold of 32 MiB, a trim threshold twice that)
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_KEEP_FREED = ((_M_TRIM_THRESHOLD, 64 << 20), (_M_MMAP_THRESHOLD, 32 << 20))


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the OS keeps one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def keep_freed_memory() -> None:
    """Let this process keep up to 64 MiB of freed heap, and take blocks of up
    to 32 MiB from the heap rather than from fresh mappings. A fresh process,
    or a worker forked from one that never trained a CNN, starts from low
    thresholds; with them, a CNN training step (about 8 MB of temporaries at
    batch 64) returns its buffers to the kernel and faults them back in at
    every step. Both are set, because setting either stops glibc from
    adjusting the other. Where there is no ``mallopt`` (not glibc) this does
    nothing."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    for param, value in _KEEP_FREED:
        mallopt(param, value)


def _init(shared) -> None:
    global _shared
    _shared = shared
    keep_freed_memory()


def _call(fn, task):
    return fn(_shared, task)


def pool_map(fn, shared, tasks: list, workers: int) -> list:
    """``fn(shared, task)`` for each task, in ``workers`` processes when more
    than one, else in this process. ``fn`` is sent by its import path. An
    exception a call raises is raised here, and the tasks not yet started
    are cancelled. A worker that ends before returning its task (killed by a
    signal or by the kernel when memory runs out) raises ``ChildProcessError``."""
    if workers <= 1:
        return [fn(shared, task) for task in tasks]
    try:
        with ProcessPoolExecutor(workers, initializer=_init, initargs=(shared,)) as ex:
            return list(ex.map(partial(_call, fn), tasks))
    except BrokenProcessPool as e:
        raise ChildProcessError("a worker process ended before returning its task") from e


def thread_map(fn, items: list, workers: int) -> list:
    """``[fn(item) for item in items]``, the items split into
    ``min(workers, len(items))`` contiguous groups of near-equal size. This
    thread runs the first group and one helper thread each of the others;
    the helpers are joined before this returns or raises, so none outlives
    the call. An exception a helper raises is raised here."""
    n = min(workers, len(items))
    if n <= 1:
        return [fn(item) for item in items]
    size, extra = divmod(len(items), n)
    bounds = [i * size + min(i, extra) for i in range(n + 1)]
    groups = [items[bounds[i] : bounds[i + 1]] for i in range(n)]
    results: list = [None] * n

    def run(i):
        try:
            results[i] = [fn(item) for item in groups[i]]
        except BaseException as e:  # raised in the caller, after the join
            results[i] = e

    helpers = [threading.Thread(target=run, args=(i,)) for i in range(1, n)]
    for t in helpers:
        t.start()
    try:
        results[0] = [fn(item) for item in groups[0]]
    finally:
        for t in helpers:
            t.join()
    for r in results[1:]:
        if isinstance(r, BaseException):
            raise r
    return [out for r in results for out in r]
