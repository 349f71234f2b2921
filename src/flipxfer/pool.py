"""Independent tasks in worker processes, with the inputs they share sent once.

``pool_map(fn, shared, tasks, workers)`` returns ``[fn(shared, task) for task
in tasks]``. With more than one worker the calls run in a process pool:
``shared`` reaches each worker once, through the pool initializer (inherited,
not pickled, where workers fork), while each task and its result are pickled.
Tasks start in the order given and their results come back in it, so a
caller that orders its tasks chooses which start first, and the results do
not depend on the worker count.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from functools import partial

__all__ = ["usable_cpus", "pool_map"]

_shared = None  # a worker's shared inputs; set by the pool initializer, in workers only


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the OS keeps one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _init(shared) -> None:
    global _shared
    _shared = shared


def _call(fn, task):
    return fn(_shared, task)


def pool_map(fn, shared, tasks: list, workers: int) -> list:
    """``fn(shared, task)`` for each task, in ``workers`` processes when more
    than one, else in this process. ``fn`` is sent by its import path. An
    exception a call raises is raised here, and the tasks not yet started
    are cancelled."""
    if workers <= 1:
        return [fn(shared, task) for task in tasks]
    with ProcessPoolExecutor(workers, initializer=_init, initargs=(shared,)) as ex:
        return list(ex.map(partial(_call, fn), tasks))
