"""Independent work spread over the usable CPUs: tasks in worker processes,
with the inputs they share sent once, and eval chunks in threads.

``pool_map(fn, shared, tasks, workers)`` returns ``[fn(shared, task) for task
in tasks]``. With more than one worker the calls run in a process pool, at
most one worker per task: ``shared`` reaches each worker once, through the
pool initializer (inherited, not pickled, where workers fork), while each
task and its result are pickled. Tasks start in the order given and their
results come back in it, so a caller that orders its tasks chooses which
start first, and the results do not depend on the worker count.

Each worker lets its allocator keep freed memory from the start (glibc
only; see ``keep_freed_memory``), as any process does once it trains
(``transfer.sgd_epochs``), so a training step's temporaries are reused from
one step to the next.

``thread_map(fn, items)`` returns ``[fn(item) for item in items]`` with the
items split into one contiguous group per thread: this thread runs the first
group and helper threads the rest, all joined before it returns. It pays
where ``fn`` spends its time in numpy calls that release the GIL, such as a
conv model's eval chunks, or a transfer's SGD beside its val forwards (the
before-transfer baseline, then each finished epoch: ``transfer.distill``).
Calls may nest: the helper threads running anywhere in the process count
against the usable CPUs, so a call made inside a helper while the others are
busy runs in its own thread, and the process never runs more of these
threads than it has usable CPUs.
"""

from __future__ import annotations

import ctypes
import multiprocessing
import os
import signal
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

__all__ = ["usable_cpus", "keep_freed_memory", "pool_map", "thread_map"]

_shared = None  # a worker's shared inputs; set by the pool initializer, in workers only

# thread_map's helper threads running in this process; one count for the
# process, because the CPUs every call shares are the process's
_helpers = 0
_helpers_lock = threading.Lock()

# glibc's mallopt parameters, each set to the value its dynamic thresholds
# top out at on 64-bit (an mmap threshold of 32 MiB, a trim threshold twice that)
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_KEEP_FREED = ((_M_TRIM_THRESHOLD, 64 << 20), (_M_MMAP_THRESHOLD, 32 << 20))
_PR_SET_PDEATHSIG = 1  # Linux's prctl option


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
    for sig in (signal.SIGINT, signal.SIGTERM):  # the parent takes both, and ends its workers
        signal.signal(sig, signal.SIG_IGN)
    # so the worker dies with the thread that forked it, or now if its parent
    # has already ended: a parent that SIGTERM ends outside cli.main does not
    # end its workers itself (Linux only: elsewhere there is no prctl)
    try:
        prctl = ctypes.CDLL(None).prctl
    except (AttributeError, OSError, TypeError):
        return
    prctl.argtypes, prctl.restype = (ctypes.c_int, ctypes.c_ulong), ctypes.c_int
    prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
    # a forkserver's workers have the forkserver, not the pool's process, as parent
    if multiprocessing.get_start_method() != "forkserver" and os.getppid() != multiprocessing.parent_process().pid:
        os._exit(1)


def _call(fn, task):
    return fn(_shared, task)


def pool_map(fn, shared, tasks: list, workers: int) -> list:
    """``fn(shared, task)`` for each task, in ``min(workers, len(tasks))``
    processes when more than one (a pool starts all its workers at once),
    else in this process. ``fn`` is sent by its import path. An
    exception a call raises is raised here, and the tasks not yet started
    are cancelled. A worker that ends before returning its task (killed by a
    signal or by the kernel when memory runs out) raises ``ChildProcessError``.
    Workers ignore SIGINT and SIGTERM: a ``KeyboardInterrupt`` here (the CLI
    raises one on SIGTERM too) kills them all before it is raised, and on
    Linux a worker this process forked is killed when the thread that called
    this ends, as it does when a signal ends the process."""
    workers = min(workers, len(tasks))
    if workers <= 1:
        return [fn(shared, task) for task in tasks]
    with ProcessPoolExecutor(workers, initializer=_init, initargs=(shared,)) as ex:
        futures = []
        try:
            futures += (ex.submit(_call, fn, task) for task in tasks)
            return [f.result() for f in futures]
        except KeyboardInterrupt:  # else shutdown would wait for the tasks the workers hold
            for p in multiprocessing.active_children():  # the workers: the program starts no other
                p.kill()
            raise  # the pool fails the futures; cancelling them too races with that in Python 3.11
        except BrokenProcessPool as e:
            raise ChildProcessError("a worker process ended before returning its task") from e
        except BaseException:
            for f in futures:  # a task raised: cancel the ones not yet started
                f.cancel()
            raise


def thread_map(fn, items: list) -> list:
    """``[fn(item) for item in items]``, the items split into contiguous
    groups of near-equal size, one per thread: this thread and
    ``min(usable_cpus(), len(items)) - 1`` helper threads, fewer while other
    calls have helpers running, so the process's helpers stay below its
    usable CPUs. This thread runs the first group. The helpers are joined
    before this returns or raises, so none outlives the call. An exception
    this thread's group raises is raised here; else the first a helper did."""
    global _helpers
    with _helpers_lock:
        n = max(1, min(usable_cpus() - _helpers, len(items)))
        _helpers += n - 1
    if n <= 1:
        return [fn(item) for item in items]
    try:
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
    finally:
        with _helpers_lock:
            _helpers -= n - 1
    for r in results[1:]:
        if isinstance(r, BaseException):
            raise r
    return [out for r in results for out in r]
