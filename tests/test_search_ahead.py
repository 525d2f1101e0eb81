"""The coupled threshold search on two processes (analysis._SearchAhead): the
results of the search run alone, and no process left behind."""

import os
import signal
import threading

import numpy as np
import pytest

from csaloha import BlockDeConfig, ThresholdBracketError, analysis, build_topology, coupled_threshold
from csaloha.analysis import _BLOCK, _CoupledKernel, _run, threshold

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="the helper is forked")

_CFG = BlockDeConfig(max_iters=5_000)


def _alone(d, l, cfg, tol):
    """The warm-start search as one predicate for threshold(), probe after
    probe in this process: each probe starts from the stop iterate of the
    last one that missed the target."""
    kernel = _CoupledKernel(build_topology(l, d))
    p0 = np.ones(kernel.p.shape[1])

    def converges(g):
        res = _run(kernel.start(g, p0).advance, cfg, False)
        if not res.converged:
            np.copyto(p0, kernel.p[(res.iterations - 1) % _BLOCK + 1])
        return res.converged

    return threshold(d, converges, tol)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """The pids of the helpers forked, with two CPUs reported and allowed
    whatever the host has; a test that blocks for 60 s fails (SIGALRM, not
    inherited by a helper)."""
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
    # a 2-type chain still converges at G = 1.2, the upper end, which runs alone
    with pytest.raises(ThresholdBracketError):
        _alone(3, 2, _CFG, 1e-4)
    with pytest.raises(ThresholdBracketError, match="upper bracket 1.2"):
        coupled_threshold(3, 2, _CFG, 1e-4, workers=workers)
    assert not forks
    _no_child_left()


@pytest.mark.parametrize("at", [2, 3, 6])
def test_an_error_in_the_parent_mid_probe_leaves_no_process(monkeypatch, forks, at):
    parent, calls, run = os.getpid(), [], analysis._run

    def failing(advance, cfg, record_trace):
        if os.getpid() == parent:
            calls.append(len(forks))
            if len(calls) >= at:
                advance(_BLOCK)  # one block in, after the helper's verdicts are read
                raise KeyError("mid-probe")
        return run(advance, cfg, record_trace)

    monkeypatch.setattr(analysis, "_run", failing)
    with pytest.raises(KeyError, match="mid-probe"):
        coupled_threshold(4, 20, _CFG, 1e-4)
    assert calls[-1] > 0  # a helper was running
    _no_child_left()


def test_a_killed_helper_leaves_the_search_alone(monkeypatch, forks):
    # SIGKILL the live helper as the parent starts its at-th probe: when the
    # helper runs ahead, its branch is lost; when it runs the search's next
    # probe, the parent reads the end of the pipe and runs that probe itself
    alone, probe, parent = _alone(4, 20, _CFG, 1e-4), analysis._SearchAhead._probe, os.getpid()
    roles = set()
    for at in (2, 3, 6):
        calls = []

        def killing(self, search, advance):
            if os.getpid() == parent:
                calls.append(search.load)
                if len(calls) == at and self.helper:
                    roles.add(self.helper.branch.load == self.search.load)
                    os.kill(self.helper.pid, signal.SIGKILL)
            return probe(self, search, advance)

        monkeypatch.setattr(analysis._SearchAhead, "_probe", killing)
        assert coupled_threshold(4, 20, _CFG, 1e-4) == alone, at
        _no_child_left()
    assert roles == {False, True}
