"""Process-pool sharding for the simulation engine.

Independent units of work — fused build-and-simulate layer tasks and
architecture rows (one layer's uncached architectures, synthesised once) —
are mapped over a ``concurrent.futures`` process pool.  Three rules keep the
parallel path bitwise-identical to the serial one:

* every worker function is a pure function of its (picklable) task tuple;
* results are returned in task order, whatever order the tasks ran in;
* workloads cross the process boundary as :class:`~repro.engine.workloads.WorkloadHandle`
  recipes (or are synthesised inside the task) from the same per-layer seed
  stream the serial path uses.

Tasks are submitted one per chunk, largest ``cost`` first when the caller
gives one, so the longest layer never starts last and leaves the other
workers idle.  ``parallel_map`` degrades to the plain serial loop for
``workers in (None, 0, 1)`` or when there is a single task, so callers never
need two code paths.

The pool is a process pool, not a thread pool.  numpy releases the GIL in
most per-layer kernels, so two threads ran the trio about as fast as two
forked workers on a 2-CPU host; but threads share one interpreter, and an
in-process tracer with a single span stack (the benchmark's traced fig8
run) breaks when layers interleave on it.  Forked workers each get a copy.

A pool child never outlives the process that forked it.  The ``with``
block joins the pool on every exit it sees; for a parent killed outright
(SIGKILL, SIGTERM, the OOM killer), each forked child asks the kernel for
``SIGKILL`` when its parent dies (Linux's ``PR_SET_PDEATHSIG``).
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import sys
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, List, Optional, Sequence, TypeVar

Task = TypeVar("Task")
Result = TypeVar("Result")


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def pool_forks() -> bool:
    """Whether the pool starts its workers with ``fork``.

    macOS lists ``fork`` as available but forking after the Objective-C /
    Accelerate runtimes initialise is unsafe (the reason CPython switched
    the macOS default to ``spawn``), so only Linux opts in.
    """
    return sys.platform == "linux" and "fork" in multiprocessing.get_all_start_methods()


def resolve_workers(workers: Optional[int], num_tasks: int) -> int:
    """Number of pool processes to use for ``num_tasks`` tasks.

    ``None``, ``0`` and ``1`` mean serial; ``-1`` means one worker per
    usable CPU.  The result is never larger than the task count.
    """
    if not num_tasks:
        return 0
    if workers is None or workers == 0 or workers == 1:
        return 0
    if workers < 0:
        workers = usable_cpus()
    return max(0, min(workers, num_tasks))


# <linux/prctl.h>: deliver a signal to this process when its parent dies.
_PR_SET_PDEATHSIG = 1


def _die_with_parent(prctl, parent_pid: int) -> None:
    """Pool initializer: SIGKILL this child when ``parent_pid`` dies.

    ``prctl`` is libc's, looked up in the parent before the fork.  The
    parent may have died between the fork and the ``prctl`` call; the child
    then has another parent already and exits.
    """
    prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
    if os.getppid() != parent_pid:
        os._exit(1)


def parallel_map(
    function: Callable[[Task], Result],
    tasks: Sequence[Task],
    workers: Optional[int] = None,
    *,
    cost: Optional[Callable[[Task], float]] = None,
) -> List[Result]:
    """``[function(task) for task in tasks]``, optionally across processes.

    ``cost`` (evaluated in the calling process) orders submission, largest
    first.  The output order always matches the input order, so serial and
    parallel runs are interchangeable.
    """
    tasks = list(tasks)
    pool_size = resolve_workers(workers, len(tasks))
    if pool_size <= 1:
        return [function(task) for task in tasks]
    order = list(range(len(tasks)))
    if cost is not None:
        order.sort(key=lambda index: cost(tasks[index]), reverse=True)
    results: List[Result] = [None] * len(tasks)  # type: ignore[list-item]
    # fork where safe (fast, inherits sys.path), else the platform default.
    initializer, initargs = None, ()
    if pool_forks():
        import ctypes

        context = multiprocessing.get_context("fork")
        # The forked children inherit this handle; it is never pickled.
        prctl = ctypes.CDLL(None).prctl
        prctl.argtypes = (ctypes.c_int, ctypes.c_ulong)
        prctl.restype = ctypes.c_int
        initializer, initargs = _die_with_parent, (prctl, os.getpid())
    else:
        context = multiprocessing.get_context()
    with ProcessPoolExecutor(
        max_workers=pool_size,
        mp_context=context,
        initializer=initializer,
        initargs=initargs,
    ) as pool:
        submitted = pool.map(function, [tasks[index] for index in order])
        for index, result in zip(order, submitted):
            results[index] = result
    return results
