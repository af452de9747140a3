"""One fork work queue for the CPUs of the affinity mask.

fork_map runs fn(job) for a sequence of jobs in forked workers, built on
os.fork, os.pipe, pickle and select alone: importing multiprocessing or
concurrent.futures would add about 2 MiB of resident memory to every run,
forked or not.  The workers inherit fn and the jobs through the fork, so only
a job's index goes to a worker and only its pickled result comes back.
pickle, select and signal are imported on the first fork, so a run that
never forks does not load them.  This module alone decides whether and how
wide to fork, and runs in-process every job no worker finished: a caller
names a cap and gets the one-process result whatever the workers did.
"""

from __future__ import annotations

import os
import struct
import sys
import threading
import time
from collections.abc import Callable, Sequence
from typing import BinaryIO

_INDEX = struct.Struct("!I")


def usable_cpus() -> int:
    """The CPUs a fork_map may use: those of the affinity mask, or one where
    the platform has no fork or another thread is running."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    # a fork copies no other thread, but it does copy the locks they hold
    if threading.active_count() > 1:
        return 1
    return len(os.sched_getaffinity(0))


def fork_map(fn: Callable, jobs: Sequence, most: int) -> list:
    """[fn(job) for job in jobs], in job order, whatever forked.

    min(most, usable_cpus(), len(jobs)) workers start, and none below two.
    Jobs go out in the given order, each to whichever worker is free.  A job
    that raises ends its worker, as a job whose worker dies does.  Once all
    workers have exited, each job no worker finished runs in-process, in job
    order, so a failing job raises here as it does when nothing forks.  Each
    worker ignores SIGINT, which the parent handles, and exits soon after the
    parent dies.  On any exception in the parent the workers are killed.
    """
    count = min(most, usable_cpus(), len(jobs))
    done: dict[int, object] = {}
    if count > 1:
        import signal

        # no worker may replay output still buffered in the parent
        sys.stdout.flush()
        sys.stderr.flush()
        parent = os.getpid()
        started: list[tuple[int, int, BinaryIO]] = []  # (pid, task write end, replies)
        try:
            for _ in range(count):
                # a SIGINT waits until the worker ignores it and is on the list to kill
                mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
                try:
                    started.append(_start_worker(fn, jobs, parent, started))
                except OSError:
                    break  # fewer workers, or none
                finally:
                    signal.pthread_sigmask(signal.SIG_SETMASK, mask)
            done = _dispatch(jobs, started)
        except BaseException:
            # stop the workers now rather than wait for their current jobs
            for pid, _, _ in started:
                os.kill(pid, signal.SIGKILL)
            raise
        finally:
            for pid, tasks, replies in started:
                os.close(tasks)  # an idle worker reads end of file and exits
                replies.close()
                os.waitpid(pid, 0)
    return [done[i] if i in done else fn(job) for i, job in enumerate(jobs)]


def _dispatch(jobs: Sequence, started: list[tuple[int, int, BinaryIO]]) -> dict[int, object]:
    """Hand out job indices to free workers and collect their replies."""
    import pickle
    import select

    free = list(started)
    busy: dict[BinaryIO, tuple[tuple[int, int, BinaryIO], int]] = {}  # replies -> (worker, job)
    results: dict[int, object] = {}
    following = 0
    while True:
        while free and following < len(jobs):
            worker = free.pop()
            _, tasks, replies = worker
            try:
                os.write(tasks, _INDEX.pack(following))
            except OSError:
                continue  # the worker died while idle
            busy[replies] = worker, following
            following += 1
        if not busy:
            return results
        for replies in select.select(list(busy), [], [])[0]:
            worker, index = busy.pop(replies)
            try:
                results[index] = pickle.load(replies)
            except (EOFError, pickle.UnpicklingError):
                continue  # the worker died, and its job is left to fork_map
            free.append(worker)


def _start_worker(fn: Callable, jobs: Sequence, parent: int,
                  others: list[tuple[int, int, BinaryIO]]) -> tuple[int, int, BinaryIO]:
    """Fork one worker; the child never returns from here."""
    import pickle
    import signal

    task_read, task_write = os.pipe()
    reply_read, reply_write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        for fd in (task_read, task_write, reply_read, reply_write):
            os.close(fd)
        raise
    if pid:
        os.close(task_read)
        os.close(reply_write)
        return pid, task_write, os.fdopen(reply_read, "rb")
    code = 1
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})
        # another worker holding this one's task pipe would keep it from end of file
        for fd in (task_write, reply_read, *(fd for _, fd, _ in others)):
            os.close(fd)
        for _, _, replies in others:
            replies.close()
        threading.Thread(target=_watch, args=(parent,), daemon=True).start()
        tasks, replies = os.fdopen(task_read, "rb"), os.fdopen(reply_write, "wb")
        while len(task := tasks.read(_INDEX.size)) == _INDEX.size:
            pickle.dump(fn(jobs[_INDEX.unpack(task)[0]]), replies)
            replies.flush()
        code = 0
    finally:
        # a job that raised ends here too, and the parent sees a dead worker
        os._exit(code)


def _watch(parent: int) -> None:
    """Exit the worker within 0.1 s of the parent's death."""
    while os.getppid() == parent:
        time.sleep(0.1)
    os._exit(1)

