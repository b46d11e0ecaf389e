"""One job in a forked worker process while the caller runs another.

`reproduce-all` uses it to run the tables that do not read the statarb Monte
Carlo beside it.  It is raw os.fork, a pipe and pickle, each already loaded
by the package, in a module of its own: compiled as part of cli.py it raised
the memory a process holds after `import execfees.cli` by about 0.19 MB, and
as a module of its own by about 0.06 MB (Python 3.11, sources compiled at
import).
"""
import os
import pickle
import sys
import warnings

from .errors import ExecFeesError


class WorkerTraceback(Exception):
    """The worker's formatted traceback, raised as the cause of its exception."""


def run_beside(job, here):
    """(here(), job()), job running in a forked worker while here() runs in
    this process, or after here() when this process may run on one CPU only
    or cannot fork.

    The worker pickles job()'s result, or the exception it raised and its
    traceback, and the warnings it recorded through a pipe, and leaves by
    os._exit, so none of this process's finally blocks, exit handlers or
    buffered output runs twice.  Once here() is done its warnings are warned
    again here, in order (_warn_again), and its exception is raised from its
    WorkerTraceback.  The worker is always reaped: killed first when here()
    fails, and an ExecFeesError naming its exit status when it ended without
    sending everything.
    """
    if not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2:
        return here(), job()
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        return here(), job()
    if pid == 0:   # the worker
        status = 1
        try:
            os.close(read)
            with warnings.catch_warnings(record=True) as caught:
                try:
                    result, trace = job(), None
                except Exception as exc:   # sent, and raised by the parent
                    import traceback   # only a failed job needs it
                    result, trace = exc, "".join(traceback.format_exception(exc))
            with open(write, "wb") as pipe:
                pickle.dump((result, trace,
                             [(w.message, w.filename, w.lineno) for w in caught]), pipe)
            status = 0
        finally:
            os._exit(status)
    os.close(write)
    with open(read, "rb") as pipe:
        try:
            mine = here()
            sent = pipe.read()
        except BaseException:
            import signal   # only a failed run needs it
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
    status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if status != 0:
        raise ExecFeesError(f"the forked worker exited with status {status} "
                            "before sending its result")
    result, trace, records = pickle.loads(sent)
    _warn_again(records)
    if trace is not None:
        raise result from WorkerTraceback(trace)
    return mine, result


def _warn_again(records) -> None:
    """Each (message, filename, lineno) warned again, as warnings.warn warns
    it from that line: under the filters of the module of filename and
    through its registry, so a warning that module has shown is not shown
    again (a file of no loaded module gets a registry of its own)."""
    for message, filename, lineno in records:
        module = next((vars(m) for m in list(sys.modules.values())
                       if getattr(m, "__file__", None) == filename), None)
        warnings.warn_explicit(
            message, type(message), filename, lineno,
            module=module and module["__name__"],
            registry=module and module.setdefault("__warningregistry__", {}))
