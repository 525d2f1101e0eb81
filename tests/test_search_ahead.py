"""The coupled threshold search on two processes (analysis._SearchAhead): the
results of the search run alone, and no process left behind."""

import os
import signal
import threading

import numpy as np
import pytest

from csaloha import BlockDeConfig, ThresholdBracketError, analysis, build_topology, coupled_threshold
from csaloha.analysis import _BLOCK, _CoupledKernel, _run, _SearchAhead, threshold

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="the child is forked")

_CFG = BlockDeConfig(max_iters=5_000)


def _alone(d, l, cfg, tol, iterations=None):
    """The warm-start search as one predicate for threshold(), probe after
    probe in this process: each probe starts from the stop iterate of the
    last one that missed the target. iterations, a dict, takes each probe's
    run length by load."""
    kernel = _CoupledKernel(build_topology(l, d))
    p0 = np.ones(kernel.p.shape[1])

    def converges(g):
        res = _run(kernel.start(g, p0).advance, cfg, False)
        if iterations is not None:
            iterations[g] = res.iterations
        if not res.converged:
            np.copyto(p0, kernel.p[(res.iterations - 1) % _BLOCK + 1])
        return res.converged

    return threshold(d, converges, tol)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children forked, with two CPUs reported and allowed
    whatever the host has; a test that blocks for 60 s fails (SIGALRM, not
    inherited by a child)."""
    pids, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    def expired(signum, frame):
        raise TimeoutError("the search blocked")

    monkeypatch.setattr(os, "fork", counted)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(60)
    yield pids
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("d", range(3, 7))
def test_two_processes_give_the_search_run_alone(forks, d):
    alone = _alone(d, 20, _CFG, 1e-4)
    assert coupled_threshold(d, 20, _CFG, 1e-4, workers=1) == alone and not forks
    assert coupled_threshold(d, 20, _CFG, 1e-4, workers=2) == alone and forks
    _no_child_left()


def test_the_default_forks_a_helper_only_where_it_may(monkeypatch, forks):
    alone = _alone(3, 20, _CFG, 1e-4)
    assert coupled_threshold(3, 20, _CFG, 1e-4) == alone and forks
    forks.clear()
    # one CPU in the affinity mask, whatever os.cpu_count says
    with monkeypatch.context() as m:
        m.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert coupled_threshold(3, 20, _CFG, 1e-4) == alone and not forks
    # another thread running, which a fork would not copy
    done = threading.Event()
    thread = threading.Thread(target=done.wait)
    thread.start()
    try:
        assert coupled_threshold(3, 20, _CFG, 1e-4, workers=2) == alone and not forks
    finally:
        done.set()
        thread.join()
    _no_child_left()


@pytest.mark.parametrize("workers", [1, 2])
def test_a_bracket_without_a_threshold_raises_with_no_helper(forks, workers):
    # a 2-type chain still converges at G = 1.2, the upper end, which has no branch
    with pytest.raises(ThresholdBracketError):
        _alone(3, 2, _CFG, 1e-4)
    with pytest.raises(ThresholdBracketError, match="upper bracket 1.2"):
        coupled_threshold(3, 2, _CFG, 1e-4, workers=workers)
    assert not forks
    _no_child_left()


def _live_child(forks):
    """The pid of the child forked and not yet reaped, or None (signal 0
    reaps nothing)."""
    for pid in forks:
        try:
            os.kill(pid, 0)
            return pid
        except ProcessLookupError:
            pass
    return None


@pytest.mark.parametrize("at", [2, 3, 6])
def test_an_error_in_the_parent_mid_probe_leaves_no_process(monkeypatch, forks, at):
    # the error comes one block into the caller's at-th probe beside a
    # child, its branch (the upper end and the short probes fork nothing)
    parent, calls, run = os.getpid(), [], analysis._run

    def failing(advance, cfg, record_trace):
        if os.getpid() == parent and _live_child(forks):
            calls.append(len(forks))
            if len(calls) >= at:
                advance(_BLOCK)  # one block in, after the child's record is read
                if _live_child(forks):
                    raise KeyError("mid-probe")
        return run(advance, cfg, record_trace)

    monkeypatch.setattr(analysis, "_run", failing)
    with pytest.raises(KeyError, match="mid-probe"):
        coupled_threshold(4, 20, _CFG, 1e-4)
    assert len(calls) >= at
    _no_child_left()


def test_a_child_never_unwinds_into_the_caller(monkeypatch, forks, tmp_path):
    # a child's run raises once it is done: the child ends in os._exit with
    # no record, and the caller goes on alone
    parent, run, escaped = os.getpid(), analysis._run, tmp_path / "escaped"

    def failing(advance, cfg, record_trace):
        res = run(advance, cfg, record_trace)
        if os.getpid() != parent:
            raise KeyError("in a child")
        return res

    monkeypatch.setattr(analysis, "_run", failing)
    try:
        got = coupled_threshold(3, 20, _CFG, 1e-4, workers=2)
    finally:
        if os.getpid() != parent:  # the child's error reached the test's frames
            escaped.touch()
            os._exit(1)
    assert got == _alone(3, 20, _CFG, 1e-4) and len(forks) == 1 and not escaped.exists()
    _no_child_left()


@pytest.mark.parametrize("d", range(3, 7))
def test_only_a_probe_past_its_first_block_forks(monkeypatch, forks, d):
    iterations, loads, handed, fork, start = {}, [], [], os.fork, _CoupledKernel.start
    alone = _alone(d, 20, _CFG, 1e-4, iterations)

    def starting(self, g, p0=1.0):
        loads.append(g)
        return start(self, g, p0)

    def handing():
        pid = fork()
        if pid:
            handed.append(loads[-1])
        return pid

    monkeypatch.setattr(_CoupledKernel, "start", starting)
    monkeypatch.setattr(os, "fork", handing)
    assert coupled_threshold(d, 20, _CFG, 1e-4, workers=2) == alone
    # every child took one of the search's probes, past its first block
    assert handed and all(iterations[g] > _BLOCK for g in handed)
    assert len(forks) == len(set(handed)) <= alone.evaluations - 1
    _no_child_left()


def test_a_killed_helper_leaves_the_search_alone(monkeypatch, forks):
    # SIGKILL the live child as the caller starts its at-th probe beside
    # one, a child forked just after a "yes" (a hand-over) or just after a
    # "no". Every read of the pipe waits for the record, so which child that
    # is does not depend on timing. The caller reads an end of file and runs
    # the child's probe itself
    alone, advance, receive, fork = _alone(3, 20, _CFG, 1e-4), _SearchAhead._advance, _SearchAhead._receive, os.fork
    roles = []
    for at in (2, 3, 6):
        calls, after, read = [], {}, [None]  # after: the verdict read before each fork, by pid

        def killing(self, n):
            if self.child and not self.blocks:  # the first block of a probe beside a child
                calls.append(n)
                if len(calls) == at:
                    roles.append(after[self.child[0]])
                    os.kill(self.child[0], signal.SIGKILL)
            return advance(self, n)

        def reading(self, block):
            was = self.search
            receive(self, True)
            read[0] = "yes" if self.search is not was else "no"
            return True

        def forking():
            pid = fork()
            if pid:
                after[pid] = read[0]
            return pid

        monkeypatch.setattr(_SearchAhead, "_advance", killing)
        monkeypatch.setattr(_SearchAhead, "_receive", reading)
        monkeypatch.setattr(os, "fork", forking)
        assert coupled_threshold(3, 20, _CFG, 1e-4) == alone, at
        _no_child_left()
    assert roles == ["yes", "no", "yes"]
