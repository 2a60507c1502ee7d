"""Two worker processes, each with a pipe of its own, for independent jobs.

``reproduce`` runs its products on them, and a crossover search its scan
points and, in each bisection round, one job per curve, each through
``Workers``.  A worker runs ``call(job)`` for each job that arrives on its
pipe and sends back the job's outcome: ``(True, result, warnings)`` or
``(False, exception, warnings)``, each warning a (message, category,
filename, lineno) record.  ``replay`` turns an outcome into its result in
this process: it emits the warnings again and raises the exception, so a
job's outcome is used, or thrown away, as a whole.  Where no worker can be
forked, the jobs run in this process.

Each worker shares no lock with its parent or the other worker, so a worker
stopped at any point leaves nothing held, and it ends as soon as the process
that started it ends.  Importing this module loads no ``multiprocessing``.
"""

from __future__ import annotations

import os
import sys
import warnings

from .errors import NumericalError


def _outcome(call, job) -> tuple:
    """``(ok, call(job) or the exception it raised, the warnings it emitted)``."""
    with warnings.catch_warnings(record=True) as caught:
        try:
            ok, value = True, call(job)
        except Exception as exc:  # sent to the parent, which decides whether it is raised
            ok, value = False, exc
    return ok, value, [(w.message, w.category, w.filename, w.lineno) for w in caught]


def replay(outcome: tuple):
    """The result of an outcome, after emitting its warnings here; a failed one raises.

    Each warning is emitted under the module and warning registry of its
    file, as ``warnings.warn`` does, so this process's filters (and their
    once-per-location memory) apply.
    """
    ok, value, caught = outcome
    if caught:
        modules = {getattr(mod, "__file__", None): mod for mod in list(sys.modules.values())}
        for message, category, filename, lineno in caught:
            mod = modules.get(filename)
            registry = vars(mod).setdefault("__warningregistry__", {}) if mod else None
            warnings.warn_explicit(message, category, filename, lineno,
                                   getattr(mod, "__name__", None), registry)
    if not ok:
        raise value
    return value


def _worker(conn, call) -> None:
    """Send back the outcome of ``call(job)`` for each job that arrives on ``conn``.

    The worker ends as soon as the process that started it ends, rather than
    finishing its job as an orphan whose result has nowhere to go.
    """
    import multiprocessing.connection
    import threading

    sentinel = multiprocessing.parent_process().sentinel

    def watch():
        multiprocessing.connection.wait([sentinel])
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()
    while True:
        try:
            job = conn.recv()
        except EOFError:  # the parent has closed its end or ended
            return
        conn.send(_outcome(call, job))


class Workers:
    """Two daemonic worker processes running ``call`` on the jobs of ``imap``, or none.

    The workers are forked, so they inherit ``call`` (a closure, say) and the
    rest of this process's state.  Where the platform has no ``fork``, or in
    a daemonic process (one of reproduce's workers), which may start no
    process, none is started: ``imap`` then runs each job here when its
    outcome is taken, so its exceptions and warnings arise exactly where a
    plain loop meets them.  A context manager: leaving it stops both
    workers, also one still running a job after a failure.
    """

    def __init__(self, call):
        import multiprocessing

        self._call = call
        self._workers = {}  # this process's end of each worker's pipe -> that worker
        self._forked = ("fork" in multiprocessing.get_all_start_methods()
                        and not multiprocessing.current_process().daemon)
        if not self._forked:
            return
        context = multiprocessing.get_context("fork")
        try:
            for _ in range(2):
                conn, child_conn = context.Pipe()
                process = context.Process(target=_worker, args=(child_conn, call), daemon=True)
                process.start()
                self._workers[conn] = process
                child_conn.close()
        except BaseException:
            self.close()
            raise

    def __enter__(self) -> Workers:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        for process in self._workers.values():
            process.terminate()
        for conn, process in self._workers.items():
            process.join()
            conn.close()
        self._workers = {}

    def imap(self, jobs: list):
        """The outcomes of ``jobs``, in order, each as soon as it and those before it are in.

        Jobs go to whichever worker is free.  A worker that ends before
        returning its result (killed, out of memory) raises ``NumericalError``
        instead of leaving this process waiting for it.  Without workers,
        each job runs here when its outcome is taken.
        """
        if not self._forked:
            for job in jobs:
                yield True, self._call(job), []
            return
        import multiprocessing.connection

        pending, running, finished = list(enumerate(jobs))[::-1], {}, {}

        def hand_out(conn):
            if pending:
                running[conn], job = pending.pop()
                conn.send(job)

        for conn in self._workers:
            hand_out(conn)
        for index in range(len(jobs)):
            while index not in finished:
                for conn in multiprocessing.connection.wait(list(running)):
                    try:
                        finished[running.pop(conn)] = conn.recv()
                        hand_out(conn)
                    except (EOFError, OSError):  # the worker ended without a result
                        process = self._workers[conn]
                        process.join()
                        raise NumericalError(
                            f"a worker process ended (exit code {process.exitcode}) "
                            f"before returning its result") from None
            yield finished.pop(index)

