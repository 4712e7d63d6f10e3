"""Forked helper processes, for work split across every CPU.

A caller that splits its work (``consensus.mine``'s nonce search,
``experiments.run_localization_eval``'s trials) runs share 0 itself and
reads every other share's records from a helper's pipe. When to fork, what a
helper may touch and how it ends all live in :func:`helpers`.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from typing import Callable, Iterator

from . import identity


@contextmanager
def helpers(body: Callable[[int, int, int], None]) -> Iterator[list[int]]:
    """Run ``body(p, procs, report)`` in a forked helper for each ``p`` in
    ``1 .. procs - 1`` and yield the read ends of their pipes, in ``p``
    order; the caller runs share 0 and counts ``len(reads) + 1`` processes.

    ``procs`` is ``identity._CORES``, the CPUs in ``sched_getaffinity``, so
    ``taskset`` limits it. Without ``os.fork``, or while another thread runs
    (a fork copies only the calling thread, so a lock another thread holds
    would stay held in the helper), ``procs`` is 1 and nothing is forked.

    A helper writes its records to the pipe ``report`` and exits when
    ``body`` returns. If ``body`` raises, the helper exits without a further
    record; so does the first write after the caller has died, which closes
    the read end. A helper never runs the caller's cleanup code. On leaving
    the block every helper is killed and reaped and every read end closed,
    whether the block returned or raised.
    """
    forkable = hasattr(os, "fork") and threading.active_count() == 1
    procs = identity._CORES if forkable else 1
    pids: list[int] = []
    reads: list[int] = []
    try:
        for p in range(1, procs):
            read_fd, write_fd = os.pipe()
            reads.append(read_fd)
            try:
                pid = os.fork()
                if pid == 0:
                    try:
                        for fd in reads:
                            os.close(fd)
                        body(p, procs, write_fd)
                    finally:
                        os._exit(0)
                pids.append(pid)
            finally:
                os.close(write_fd)
        yield reads
    finally:
        if pids:
            import signal  # only a split run needs it; module load stays lean

            for pid in pids:
                os.kill(pid, signal.SIGKILL)
            for pid in pids:
                os.waitpid(pid, 0)
        for fd in reads:
            os.close(fd)
