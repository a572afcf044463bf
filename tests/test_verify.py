"""The verify-all runner: the same checks whether or not a forked child runs
some criteria, and no child outlives `run_all`."""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from spinroot import mckay, verify

SRC = Path(__file__).resolve().parent.parent / "src"


def _fake_criteria(**special):
    """verify.CRITERIA with its titles, each criterion one cheap passing check
    unless special names a replacement, as c<num>=fn."""
    def check(num):
        return lambda n_max, seed: [verify._res(num, f"check {num}", True, n_max, seed)]

    return {num: (title, special.get(f"c{num}", check(num)))
            for num, (title, _) in verify.CRITERIA.items()}


def _cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def _counting_fork(monkeypatch):
    forks = []
    real_fork = os.fork

    def fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    return forks


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_run_all_is_each_criterion_in_order(acceptance_results):
    results, _ = acceptance_results
    alone = [r for _, fn in verify.CRITERIA.values()
             for r in fn(n_max=12, seed=mckay.DEFAULT_SEED)]
    assert results == alone


def test_crash_in_child_is_the_in_process_record(monkeypatch):
    def boom(n_max, seed):
        raise ValueError("boom")

    monkeypatch.setattr(verify, "CRITERIA", _fake_criteria(c9=boom))
    forks = _counting_fork(monkeypatch)
    _cpus(monkeypatch, 2)
    forked = verify.run_all(5, 3)
    assert forks == [1]
    _cpus(monkeypatch, 1)
    assert verify.run_all(5, 3) == forked
    assert forks == [1]
    crashed = [r for r in forked if r.criterion == 9]
    assert crashed == [verify.CheckResult(9, "McKay suite (crashed)", False,
                                          "ValueError('boom')", "no exception")]
    assert [r.criterion for r in forked] == list(verify.CRITERIA)
    _no_child_left()


def test_child_death_crashes_only_its_criteria(monkeypatch):
    monkeypatch.setattr(verify, "CRITERIA", _fake_criteria(c9=lambda n_max, seed: os._exit(3)))
    _cpus(monkeypatch, 2)
    results = verify.run_all(5, 3)
    assert [r.criterion for r in results] == list(verify.CRITERIA)
    for r in results:
        if r.criterion in verify.CHILD_CRITERIA:
            assert not r.passed and r.name.endswith("(crashed)")
            assert r.measured == "child process ended with status 3"
        else:
            assert r.passed and r.name == f"check {r.criterion}"
    _no_child_left()


def test_interrupt_kills_and_reaps_the_child(monkeypatch):
    def interrupt(n_max, seed):
        raise KeyboardInterrupt

    def hang(n_max, seed):
        time.sleep(60)
        return []

    monkeypatch.setattr(verify, "CRITERIA", _fake_criteria(c1=interrupt, c9=hang))
    _cpus(monkeypatch, 2)
    t0 = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        verify.run_all(5, 3)
    assert time.monotonic() - t0 < 30
    _no_child_left()


def test_one_cpu_runs_everything_in_process(monkeypatch):
    monkeypatch.setattr(verify, "CRITERIA", _fake_criteria())
    _cpus(monkeypatch, 2)
    forked = verify.run_all(5, 3)

    def no_fork():
        raise AssertionError("forked with one usable CPU")

    monkeypatch.setattr(os, "fork", no_fork)
    _cpus(monkeypatch, 1)
    assert verify.run_all(5, 3) == forked
    monkeypatch.delattr(os, "sched_getaffinity")
    assert verify.run_all(5, 3) == forked


def test_failed_fork_runs_everything_in_process(monkeypatch):
    monkeypatch.setattr(verify, "CRITERIA", _fake_criteria())
    _cpus(monkeypatch, 2)
    forked = verify.run_all(5, 3)

    def no_fork():
        raise BlockingIOError("no process left")

    monkeypatch.setattr(os, "fork", no_fork)
    assert verify.run_all(5, 3) == forked


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs two usable CPUs")
def test_cli_output_is_the_same_on_one_cpu():
    cpu = min(os.sched_getaffinity(0))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    argv = [sys.executable, "-m", "spinroot.cli", "verify-all", "--n-max", "5",
            "--format", "json"]
    unpinned = subprocess.run(argv, env=env, capture_output=True)
    pinned = subprocess.run(argv, env=env, capture_output=True,
                            preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    assert unpinned.returncode == pinned.returncode == 0
    assert unpinned.stdout == pinned.stdout
