"""One pool of forked worker processes, shared by every caller in a process.

`run(fn, tasks)` computes fn(*task) for each task and returns the results
in task order.  It deals the tasks round-robin among width(len(tasks))
processes: process i of W takes tasks i, i + W, i + 2W, ...  Process 0 is
this one; each other is a worker, which gets its whole share as one
message, runs it at the same time as the others and sends back the list
of its results.  `width(most)` says how many processes `most` tasks are
dealt among: one per usable CPU, at most `most`, and 1 where the work must
stay in this process.  fn must be registered (`register`) when its module
is imported, so that every worker, forked later, holds it.

Workers are made by `os.fork` on the first call that needs them and serve
shares until their task pipe reads EOF: at the process's exit, when the
process is killed, or when `_stop_workers` closes it.  A share and its
results travel over pipes as marshal's bytes, so tasks and results must be
built from ints, floats, strings, tuples, lists, dicts and None.

The rules, in one place:
- usable CPUs are `os.sched_getaffinity(0)`, so `taskset` restricts them;
- the work stays in this process on one usable CPU, when the process has
  another OS thread (which could share the pipes, or hold a lock the
  forked child needs), and on a platform that cannot fork;
- a share no worker can take (its fork failed, or its worker died before
  or while running it) runs here, after this process's own share;
- a task that raises, or returns what marshal cannot carry, ends its
  worker, so its share runs here again and any error it raises is raised
  here;
- dead workers are reaped at the next call and replaced;
- any exception in this process while workers run (an interrupt, say)
  kills every worker, so no later call reads a stale result;
- at exit each worker reads EOF, leaves and is reaped.
"""

from __future__ import annotations

import atexit
import marshal
import os
import sys
import threading

# name -> function, for every function a task may run
_TASKS = {}
# The worker processes: [pid, task fd, result fd] each, in start order.
_workers = []
_hooked = False     # the at-fork and at-exit hooks are registered


def register(fn):
    """Let tasks run fn (a decorator, applied at import)."""
    _TASKS[_name(fn)] = fn
    return fn


def _name(fn) -> str:
    return f"{fn.__module__}.{fn.__qualname__}"


def width(most: int) -> int:
    """How many processes `run` deals `most` tasks among: one per usable
    CPU, at most `most`, and 1 where they must run here."""
    size = min(_usable_cpus(), most)
    if size < 2 or _threads() > 1:
        return 1
    return size


def run(fn, tasks) -> list:
    """[fn(*task) for task in tasks], dealt round-robin among
    width(len(tasks)) processes (see the module docstring for the rules)."""
    name = _name(fn)
    if _TASKS.get(name) is not fn:
        raise ValueError(f"{name} is not registered with the pool")
    size = width(len(tasks))
    if size < 2:
        return [fn(*task) for task in tasks]
    shares = [tasks[i::size] for i in range(size)]
    done = [None] * size
    try:
        workers = _pool(size - 1)
        local, sent = [0], []
        for index, worker in enumerate(workers, start=1):
            try:
                _send(worker[1], (name, shares[index]))
                sent.append((worker, index))
            except OSError:             # it died since _pool looked
                _drop(worker)
                local.append(index)
        local += range(len(workers) + 1, size)      # forks failed
        for index in local:
            done[index] = [fn(*task) for task in shares[index]]
        for worker, index in sent:
            results = _receive(worker[2])
            if results is None:         # it died mid-share: run it here
                _drop(worker)
                results = [fn(*task) for task in shares[index]]
            done[index] = results
    except BaseException:
        _stop_workers(kill=True)
        raise
    # task i is the (i // size)-th of share i % size
    return [done[i % size][i // size] for i in range(len(tasks))]


def _usable_cpus() -> int:
    """The CPUs this process may run on (taskset restricts them), or 1 on a
    platform that cannot fork or tell."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _threads() -> int:
    """This process's OS threads.  Python's own threads are not all of
    them: numpy's OpenBLAS starts its pool at import."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return threading.active_count()


def _send(fd: int, message) -> None:
    """Write one message: its length in 8 bytes, then marshal's bytes."""
    data = marshal.dumps(message)
    view = memoryview(len(data).to_bytes(8, "little") + data)
    while view:
        view = view[os.write(fd, view):]


def _receive(fd: int):
    """The next message on fd, or None at EOF (its writer is gone)."""
    head = _read(fd, 8)
    body = head and _read(fd, int.from_bytes(head, "little"))
    return None if body is None else marshal.loads(body)


def _read(fd: int, size: int):
    parts = []
    while size:
        part = os.read(fd, size)
        if not part:
            return None
        parts.append(part)
        size -= len(part)
    return b"".join(parts)


def _serve(tasks: int, results: int) -> None:
    while (message := _receive(tasks)) is not None:
        name, share = message
        fn = _TASKS[name]
        _send(results, [fn(*task) for task in share])


def _start_worker():
    """Fork one worker and return its entry, or None if that fails."""
    global _hooked
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            stream.flush()
    fds = []
    try:
        fds += os.pipe()
        fds += os.pipe()
        pid = os.fork()
    except OSError:
        for fd in fds:
            os.close(fd)
        return None
    task_r, task_w, result_r, result_w = fds
    if pid == 0:
        # The at-fork hook has closed the earlier workers' pipe ends; the
        # parent's ends of this worker's pipes go too, so that the parent's
        # exit, however it comes, ends the task stream.
        status = 1
        try:
            os.close(task_w)
            os.close(result_r)
            _serve(task_r, result_w)
            status = 0
        finally:
            os._exit(status)
    os.close(task_r)
    os.close(result_w)
    if not _hooked:
        _hooked = True
        os.register_at_fork(after_in_child=_forget_workers)
        atexit.register(_stop_workers)
    return [pid, task_w, result_r]


def _forget_workers() -> None:
    """In a forked child: close the parent's pipe ends, so that each worker
    still reads EOF once the parent is gone, and own no workers."""
    for worker in list(_workers):
        _close(worker)


def _close(worker) -> None:
    _workers.remove(worker)
    os.close(worker[1])
    os.close(worker[2])


def _drop(worker, kill: bool = False) -> None:
    """Close a worker's pipes and reap it, killing it first if asked."""
    _close(worker)
    try:
        if kill:
            import signal   # here, not at the top: its import costs 1.5 ms
            os.kill(worker[0], signal.SIGKILL)
        os.waitpid(worker[0], 0)
    except (ProcessLookupError, ChildProcessError):
        pass


def _stop_workers(kill: bool = False) -> None:
    """End every worker: at exit each reads EOF and leaves; after an
    exception it is killed, so no later call reads a stale result."""
    for worker in list(_workers):
        _drop(worker, kill)


def _pool(size: int) -> list:
    """Up to `size` live workers: dead ones are reaped and new ones forked,
    unless a fork fails."""
    for worker in list(_workers):
        try:
            dead = os.waitpid(worker[0], os.WNOHANG)[0]
        except ChildProcessError:       # reaped elsewhere
            dead = True
        if dead:
            _close(worker)
    while len(_workers) < size:
        worker = _start_worker()
        if worker is None:
            break
        _workers.append(worker)
    return _workers[:size]
