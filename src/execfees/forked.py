"""Tasks shared through one queue by this process and a forked worker, for
reproduce-all: raw os.fork, pipes and pickle in a module of their own, as in
cli.py they raised the memory held after `import execfees.cli` by 0.19 MB,
here by 0.06 MB (Python 3.11, sources compiled at import)."""
import os
import pickle
import sys
import warnings

from .errors import ExecFeesError


class WorkerTraceback(Exception):
    """The worker's formatted traceback, raised as the cause of its exception."""


def run_beside(tasks, here):
    """(here(), [task() for task in tasks]), the tasks claimed one at a time
    (_claim) from a pipe of one byte per index, with no writer left, by a
    forked worker and, once here() is done, by this process; on one CPU, or
    when os.fork fails, by this process alone.  The worker pickles its claims
    through a pipe and leaves by os._exit, so none of this process's finally
    blocks, exit handlers or buffered output runs twice.  Then here() and
    each task in order warn again what they recorded (_warn_again), and the
    first that failed raises its exception, a worker's from its
    WorkerTraceback, as one process would.  The worker is always reaped:
    killed when here() fails or this process is interrupted, an ExecFeesError
    naming its exit status when it ended without sending a task it claimed.
    """
    assert len(tasks) <= 256, f"{len(tasks)} tasks: the queue holds each index as one byte"
    queue, claims = os.pipe()
    os.write(claims, bytes(range(len(tasks))))
    os.close(claims)
    pid = None
    if hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) > 1:
        read, write = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(read)
        if pid == 0:   # the worker
            try:
                os.close(read)
                with open(write, "wb") as pipe:
                    pickle.dump(_claim(queue, tasks, worker=True), pipe)
                os._exit(0)
            finally:   # reached only when the worker failed
                os._exit(1)
        os.close(write)
    pipe, sent = pid and open(read, "rb"), None
    try:
        # recorded too: each catch_warnings resets the registries of shown warnings
        done = {-1: _recorded(here)}
        if not done[-1][1]:
            done.update(_claim(queue, tasks))
            sent = pipe and pipe.read()
    finally:
        os.close(queue)
        if pid:
            pipe.close()
            if sent is None:   # here() failed, or this process was interrupted
                import signal   # only a failed run needs it
                os.kill(pid, signal.SIGKILL)
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            if sent and status == 0:
                done.update(pickle.loads(sent))
    for index in range(-1, len(tasks)):
        if index not in done:   # claimed by a worker that ended without sending it
            raise ExecFeesError(f"the forked worker exited with status {status} "
                                "before sending its result")
        result, failed, caught = done[index]
        _warn_again(caught)
        if failed is True:
            raise result
        if failed:
            raise result from WorkerTraceback(failed)
    return done[-1][0], [done[index][0] for index in range(len(tasks))]


def _claim(queue, tasks, worker=False):
    """{i: _recorded(tasks[i])} of each index i read from queue; a failure empties it."""
    done = {}
    while claim := os.read(queue, 1):
        done[claim[0]] = _recorded(tasks[claim[0]], worker)
        if done[claim[0]][1]:
            os.read(queue, 256)
    return done


def _recorded(job, worker=False):
    """(job() or its exception, False or True or a worker's traceback, its warnings)."""
    with warnings.catch_warnings(record=True) as caught:
        try:
            return job(), False, caught
        except Exception as exc:
            import traceback   # only a failed job needs it
            return exc, not worker or "".join(traceback.format_exception(exc)), caught


def _warn_again(caught) -> None:
    """Each recorded warning warned again as warnings.warn warns it: under the
    filters and through the registry of its file's module, so one that module
    has shown is not shown again (a file of no module gets a registry of its own)."""
    for w in caught:
        module = next((vars(m) for m in list(sys.modules.values())
                       if getattr(m, "__file__", None) == w.filename), None)
        warnings.warn_explicit(
            w.message, w.category, w.filename, w.lineno,
            module=module and module["__name__"],
            registry=module and module.setdefault("__warningregistry__", {}))
