"""Forked helper processes, for work split across every CPU.

A caller that splits its work (``consensus.mine``'s nonce search,
``experiments.run_localization_eval``'s trials) runs share 0 itself and
reads every other share's records from a helper's pipe. A caller that
hands work off (``simulation.run_epoch``'s block process) gets one helper
and feeds it records through a second pipe; that helper writes its output
to a file it inherits (``chain.jsonl``) and reports only its verdict. A
helper may itself split its work: the block process splits a long nonce
search. When to fork, what a helper may touch and how it ends all live in
:func:`helpers`.

Every pipe carries records, pickles that :func:`send` writes and
:func:`records` reads: both ends run one program image, and a record
crosses only between a process and its own fork, never from outside input.
"""

from __future__ import annotations

import os
import pickle
import threading
from contextlib import contextmanager
from typing import Any, Callable, Iterator

from . import identity

# The pipe ends this process holds for its live helpers, and in a helper
# also the ends its caller gave it. A helper closes every end it inherits
# from here, so that an end is held only by the process it belongs to and a
# process sees end-of-file when its peer closes its end: a nonce search
# forked by ct-run's block process holds no end between that process and
# the simulation process.
_held: list[int] = []


def _leave_caller_cpu() -> None:
    """Let this process run on every CPU the program started with
    (``identity._AFFINITY``) but the one its parent last ran on, if that
    leaves one.

    A fork and a pipe write wake the new process onto the waker's CPU, and
    there a helper shared one CPU with its caller while the other idled: on
    a 2-vCPU Xeon a default ``ct-run --seed 5`` took 19.5-21.8 s with its
    second process on the simulation's vCPU, and 16.7-16.9 s with that
    process moved off it. In two of four fresh processes the first
    150-trial localization evals kept 0.95-1.31 CPUs busy (227-372 ms a
    call); with their helpers moved off, the first call of each of four kept
    1.80-1.90 busy (150-174 ms).

    The set is the program's and not the inherited affinity because of a
    helper's helper: ct-run's block process is pinned to the CPUs its
    caller left it (one, on two CPUs), and a nonce search it splits would
    otherwise run both of its processes there."""
    try:
        with open(f"/proc/{os.getppid()}/stat") as fh:
            # Field 39, "processor", counted from field 3 after the name.
            caller_cpu = int(fh.read().rsplit(")", 1)[1].split()[36])
        others = identity._AFFINITY - {caller_cpu}
        if others:
            os.sched_setaffinity(0, others)
    except (OSError, AttributeError, TypeError, ValueError, IndexError):
        pass  # no /proc or no affinity calls here: the scheduler decides


def send(fd: int, record: Any) -> None:
    """Write ``record`` to the pipe ``fd`` as one pickle, every byte of it
    (``os.write`` may take part)."""
    view = memoryview(pickle.dumps(record, pickle.HIGHEST_PROTOCOL))
    while view:
        view = view[os.write(fd, view):]


def records(fd: int) -> Iterator[Any]:
    """Yield the records :func:`send` wrote to the pipe ``fd``, in order,
    until the writer closes its end or cuts a record short (a writer that
    died mid-record); a cut record is not yielded. ``fd`` stays open.

    An iterator buffers what it reads past the record it yields, so each
    pipe is read through one iterator only."""
    with open(fd, "rb", closefd=False) as fh:
        while True:
            try:
                yield pickle.load(fh)
            except (EOFError, pickle.UnpicklingError):
                return


@contextmanager
def helpers(body: Callable[..., None], inbound: bool = False) -> Iterator[list]:
    """Run ``body(p, procs, report)`` in a forked helper for each ``p`` in
    ``1 .. procs - 1`` and yield the read ends of their pipes, in ``p``
    order; the caller runs share 0 and counts ``len(reads) + 1`` processes.

    ``procs`` is ``identity._CORES``, the CPUs in ``sched_getaffinity``, so
    ``taskset`` limits it. Without ``os.fork``, or while another thread runs
    (a fork copies only the calling thread, so a lock another thread holds
    would stay held in the helper), ``procs`` is 1 and nothing is forked.

    With ``inbound`` the caller hands work off to one helper (``procs`` is
    at most 2), which also gets a pipe from the caller: it runs
    ``body(p, procs, report, feed)`` and reads records from ``feed``, and
    the block yields ``[(read end of report, write end of feed)]``. Every
    end the block yields stays the block's to close.

    Every helper first leaves the CPU the caller last ran on, as far as
    its affinity allows (:func:`_leave_caller_cpu`), so that the caller
    keeps a CPU to itself. A helper writes its records to the pipe
    ``report`` (:func:`send`; the caller reads them with :func:`records`)
    and exits when ``body`` returns, without flushing any Python file it
    inherited: a buffer it copied at the fork is written by the caller, and
    one it filled, only if ``body`` flushes it. If ``body`` raises, the
    helper exits without a further record; so does the first write after
    the caller has died, which closes the read end. A helper
    never runs the caller's cleanup code, and holds no pipe end of the
    caller's other helpers; a helper it forks in turn holds none of its
    ends either. On leaving the block every helper is killed and reaped and
    every end closed, whether the block returned or raised.
    """
    forkable = hasattr(os, "fork") and threading.active_count() == 1
    procs = identity._CORES if forkable else 1
    if inbound:
        procs = min(procs, 2)
    pids: list[int] = []
    kept: list[int] = []  # the caller's ends, in helper order

    def pipe(caller_reads: bool) -> int:
        """Open a pipe, keep the caller's end and return the helper's."""
        read_fd, write_fd = os.pipe()
        mine, theirs = (read_fd, write_fd) if caller_reads else (write_fd, read_fd)
        kept.append(mine)
        _held.append(mine)
        return theirs

    try:
        for p in range(1, procs):
            given = [pipe(caller_reads=True)]
            try:
                if inbound:
                    given.append(pipe(caller_reads=False))
                pid = os.fork()
                if pid == 0:
                    try:
                        for fd in _held:
                            os.close(fd)
                        _held[:] = given
                        _leave_caller_cpu()
                        body(p, procs, *given)
                    finally:
                        os._exit(0)
                pids.append(pid)
            finally:
                for fd in given:
                    os.close(fd)
        yield list(zip(kept[::2], kept[1::2])) if inbound else kept
    finally:
        if pids:
            import signal  # only a split run needs it; module load stays lean

            for pid in pids:
                os.kill(pid, signal.SIGKILL)
            for pid in pids:
                os.waitpid(pid, 0)
        for fd in kept:
            os.close(fd)
            _held.remove(fd)
