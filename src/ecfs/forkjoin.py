"""Fork-join over a short list of work items, with no process pool.

The first item runs in the calling process; each other item runs in a child
forked for it, which inherits the function and its data and sends back only
its result, pickled down a pipe of its own. The caller then reads the pipes in
item order and reaps each child. No child outlives the call, on any path.

This module is apart from ecfs.evaluation so that the command line can name
WorkerError without importing evaluation.
"""

from __future__ import annotations

import os
import pickle
from contextlib import suppress


class WorkerError(RuntimeError):
    """A forked worker ended without sending its result whole: it was killed, it
    exited early, or it raised an exception that does not pickle."""


def fork_join(fn, items: list) -> list:
    """[fn(item) for item in items], the first item in this process and each
    other one in a forked child, when os.fork exists; serially otherwise.

    The first item that raises, in item order, raises here: the exception a
    child raised when it pickles, else WorkerError naming its type and message.
    A child that ends without sending a whole result raises WorkerError. When
    anything raises here, KeyboardInterrupt included, every child still running
    is killed and reaped first.
    """
    if len(items) < 2 or not hasattr(os, "fork"):
        return [fn(item) for item in items]
    children = []  # (pid, read end) of each child not yet joined, in item order
    try:
        for item in items[1:]:
            r, w = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                _child(fn, item, w, [r, *(fd for _, fd in children)])
            children.append((pid, r))
            os.close(w)
        results = [fn(items[0])]
        while children:
            # taken off the list first: from here on only this block may close r
            # or signal pid, whose numbers are free for reuse once it has
            pid, r = children.pop(0)
            status = None
            try:
                with open(r, "rb") as pipe:  # closes r
                    message = pipe.read()
                status = os.waitpid(pid, 0)[1]
            finally:
                if status is None:  # not reaped
                    _kill(pid)
            results.append(_unpack(message, pid, status))
        return results
    except BaseException:
        for pid, r in children:
            _kill(pid)
            with suppress(OSError):
                os.close(r)
        raise


def _kill(pid: int) -> None:
    """SIGKILL child pid and reap it."""
    import signal  # only a failing call pays for the import

    with suppress(OSError):
        os.kill(pid, signal.SIGKILL)
    with suppress(OSError):
        os.waitpid(pid, 0)


def _child(fn, item, w: int, inherited: list[int]):
    """In a forked child: close the read ends it inherited, send fn(item) or its
    exception down w, and exit without returning to the caller's stack."""
    status = 1
    try:
        for fd in inherited:
            os.close(fd)
        try:
            message = pickle.dumps((True, fn(item)), pickle.HIGHEST_PROTOCOL)
        except BaseException as e:
            message = _failure(e)
        with open(w, "wb") as pipe:
            pipe.write(message)
        status = 0
    finally:
        os._exit(status)


def _failure(e: BaseException) -> bytes:
    """The message that carries exception e: e itself when it survives a pickle
    round trip, else a WorkerError naming its type and message."""
    try:
        message = pickle.dumps((False, e), pickle.HIGHEST_PROTOCOL)
        pickle.loads(message)
        return message
    except Exception:
        error = WorkerError(f"worker raised {type(e).__name__}: {e}")
        return pickle.dumps((False, error), pickle.HIGHEST_PROTOCOL)


def _unpack(message: bytes, pid: int, status: int):
    """The result a child sent, or raise the exception it sent."""
    try:
        ok, value = pickle.loads(message)
    except Exception:
        code = os.waitstatus_to_exitcode(status)
        how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
        raise WorkerError(f"worker {pid} {how} before sending its result") from None
    if not ok:
        raise value
    return value
