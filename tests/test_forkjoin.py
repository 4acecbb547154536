"""fork_join: the first item runs here and each other one in a forked child;
the results come back in item order, the first failure in item order raises,
and no child outlives the call on any path."""

import os
import time
from pathlib import Path

import pytest

from ecfs.forkjoin import WorkerError, fork_join

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="fork_join is serial there")


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_results_come_back_in_item_order_from_one_process_each():
    out = fork_join(lambda i: (i * i, os.getpid()), list(range(4)))
    assert [square for square, _ in out] == [0, 1, 4, 9]
    pids = [pid for _, pid in out]
    assert pids[0] == os.getpid() and len(set(pids)) == 4


def test_the_first_failure_in_item_order_raises():
    def fn(i):
        if i == 3:
            raise ValueError("item 3")
        if i == 2:
            time.sleep(0.2)  # fails after item 3 has failed
            raise ValueError("item 2")
        return i

    with pytest.raises(ValueError, match="^item 2$"):
        fork_join(fn, [0, 1, 2, 3])


def test_a_dead_child_is_a_worker_error():
    with pytest.raises(WorkerError, match=r"^worker \d+ exited with status 9 before sending"):
        fork_join(lambda i: os._exit(9) if i == 1 else i, [0, 1, 2])


def test_a_killed_child_is_a_worker_error():
    with pytest.raises(WorkerError, match=r"was killed by signal 9 before sending"):
        fork_join(lambda i: os.kill(os.getpid(), 9) if i == 1 else i, [0, 1])


def test_an_exception_that_does_not_pickle_names_its_type_and_message():
    class Local(Exception):
        pass  # pickle cannot find a local class by name

    def fn(i):
        if i:
            raise Local("no way back")
        return i

    with pytest.raises(WorkerError, match="^worker raised Local: no way back$"):
        fork_join(fn, [0, 1])


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_a_failure_here_kills_the_running_children(error):
    def fn(i):
        if i == 0:
            raise error("here")
        time.sleep(60)

    t0 = time.monotonic()
    with pytest.raises(error, match="here"):
        fork_join(fn, [0, 1, 2])
    assert time.monotonic() - t0 < 30


def test_an_interrupt_after_a_join_leaves_that_childs_numbers_alone(monkeypatch):
    """Once a child's pipe is closed and it is reaped, its fd and pid numbers are
    free for reuse; an interrupt then must not close or signal them again."""
    read_ends, reused = [], []
    real_pipe, real_waitpid = os.pipe, os.waitpid

    def pipe():
        fds = real_pipe()
        read_ends.append(fds[0])
        return fds

    def waitpid(pid, options):
        out = real_waitpid(pid, options)
        if not reused:  # the first child is joined: reuse its read end's number
            reused.append(os.open(os.devnull, os.O_RDONLY))
            raise KeyboardInterrupt
        return out

    monkeypatch.setattr(os, "pipe", pipe)
    monkeypatch.setattr(os, "waitpid", waitpid)
    t0 = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        fork_join(lambda i: time.sleep(60) if i == 2 else i, [0, 1, 2])
    assert time.monotonic() - t0 < 30  # the second child was killed
    assert reused[0] == read_ends[0]
    os.fstat(reused[0])  # still open
    os.close(reused[0])


FDS = Path("/proc/self/fd")


@pytest.mark.skipif(not FDS.is_dir(), reason="needs /proc/self/fd")
def test_each_child_holds_only_its_own_write_end():
    def open_fds(_):
        return {int(fd) for fd in os.listdir(FDS)}

    before = open_fds(None)
    here, *children = fork_join(open_fds, [0, 1, 2])
    # this process still holds the children's read ends while it runs its item
    assert before < here and len(here) == len(before) + 2
    for fds in children:
        assert before < fds and len(fds) == len(before) + 1
    assert open_fds(None) == before  # every pipe is closed again


def test_without_fork_items_run_here(monkeypatch):
    monkeypatch.delattr(os, "fork")
    assert fork_join(lambda i: (i, os.getpid()), [0, 1]) == [(0, os.getpid()), (1, os.getpid())]
