"""The verify-all runner: the same checks whether or not a forked child runs
some criteria, and no child outlives `run_all`."""

import inspect
import os
import random
import re
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from spinroot import coxplane, induction, mckay, rootsys, scalars, verify
from spinroot.rootsys import catalog

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


def _oracle_reference(n_max: int, seed: int) -> list:
    """Criterion 4 word by word through the one-word coxplane functions, every
    word in word order: the reference for its stacks of the distinct words."""
    rng = random.Random(seed)
    systems = [(name, None) for name in ("A1^4", "A4", "B4", "D4", "F4", "H4")]
    systems += [("I2xI2", n) for n in range(2, n_max + 1)]
    out = []
    for name, n in systems:
        simple = catalog(name, n)
        base = coxplane.coxeter_data(name, n)
        expected = coxplane.exponents_via_matrix(base.matrix, base.h)
        words = [None] + [tuple(x + 1 for x in rng.sample(range(simple.rank), simple.rank))
                          for _ in range(verify.ORACLE_WORDS)]
        bad = []
        for word in words:
            cd = coxplane.coxeter_versor(simple, word)
            plane = coxplane.plane_from_matrix(cd.versor, cd.matrix, cd.h)
            m_exps = coxplane.exponents_via_matrix(cd.matrix, cd.h)
            f_exps = coxplane.factorize(cd.versor, plane, cd.h).exponents
            if not (m_exps == f_exps == expected):
                bad.append((word, m_exps, f_exps))
        out.append(verify._res(4, f"{simple.name} exponent oracles ({len(words)} words)",
                               not bad, bad[:2] or f"all agree: {expected}",
                               f"matrix == factorization == {expected}"))
    return out


@pytest.mark.parametrize("n_max", [5, 12])
def test_exponent_oracles_equal_the_per_word_reference(n_max):
    for seed in range(4):
        assert verify.check_exponent_oracles(n_max, seed) == _oracle_reference(n_max, seed)


def test_exponent_oracles_report_bad_words_in_word_order(monkeypatch):
    # the matrix exponents of a word whose Coxeter matrix has a positive corner
    # come out rotated, so some words of a system fail and others pass
    stacked = coxplane.exponents_via_matrices

    def skewed(Ms, hs):
        return [e[1:] + e[:1] if round(float(M[0, 0]), 6) > 0 else e
                for M, e in zip(Ms, stacked(Ms, hs))]

    monkeypatch.setattr(coxplane, "exponents_via_matrices", skewed)
    for seed in range(4):
        got = verify.check_exponent_oracles(5, seed)
        assert got == _oracle_reference(5, seed)
        assert not all(r.passed for r in got)


def test_exponent_oracles_reject_negative_seeds():
    # random.Random(-s) would draw as s
    with pytest.raises(ValueError, match="nonnegative"):
        verify.check_exponent_oracles(5, -1)


def test_h4_appendix_checks_are_pinned():
    # criterion 7 runs on rows of Z[sqrt5][R]: its five records, the printed
    # ring elements and float residuals included, are pinned byte for byte
    got = [(r.passed, r.measured, r.expected) for r in verify.check_h4_appendix()]
    assert got == [
        (True, "max coordinate error 0.00e+00",
         "2tau*e4, -tau*e1+e2+(3tau+1)*e4, ... within 1e-9"),
        (True, "exact zero: True, relative 0.0e+00", "0 (|coef| < 1e-6 rel)"),
        (True, "exact equal: True, rel err 0.0e+00",
         "(-1044480*r5-2334720)*R - 6893568*r5 - 15421440"),
        (True, "(-190-85*r5)*R + (-1255-561*r5)", "(-85*r5-190)*R - 561*r5 - 1255"),
        (True, "('(64+32*r5)*R + (544+224*r5)', '(-224-96*r5)*R + (-1408-640*r5)')",
         "(32r5+64)R+224r5+544 and (-96r5-224)R-640r5-1408"),
    ]


#: the printed criteria that restate a ledger row: the check, a name its
#: records start with, the number in their expected text, the row, and the
#: function whose comparison reads the row
PRINTED_ROWS = [
    (verify.check_factorizations, "", r"res<(\S+) ", "FIXTURE_RESIDUAL_TOL",
     verify.check_factorizations),
    (lambda: verify.check_planes(2), "plane invariance", r"within (\S+) ", "PLANE_TOL",
     coxplane._stabilizes),
    (verify.check_h4_appendix, "H4 weight basis", r"within (\S+)$", "FIXTURE_TOL",
     verify.check_h4_appendix),
    (verify.check_h4_appendix, "wedge e1e4", r"< (\S+) rel", "FIXTURE_CANCEL_RTOL",
     verify.check_h4_appendix),
    (verify.check_projection_and_exports, "A4 projection", r"within (\S+)$", "FIXTURE_TOL",
     verify.check_projection_and_exports),
]


@pytest.mark.parametrize("check, name, printed, row, reader", PRINTED_ROWS,
                         ids=[f"{row}:{reader.__name__}" for *_, row, reader in PRINTED_ROWS])
def test_printed_criteria_read_the_ledger(check, name, printed, row, reader):
    # the expected texts stay literal output, so a row that moves must fail here
    # until its printed criterion moves with it
    assert re.search(rf"\b{row}\b", inspect.getsource(reader))
    numbers = [float(re.search(printed, r.expected).group(1))
               for r in check() if r.name.startswith(name)]
    assert numbers and all(number == getattr(scalars, row) for number in numbers)


def test_run_all_forms_each_result_once(monkeypatch):
    # every name of a system reads the one result its catalog set holds: in
    # one process each system's roots are closed once, each induced set formed once
    closed, induced = Counter(), Counter()
    generate, to_4d = rootsys.generate_roots, induction.spinors_to_4d

    def counting_roots(simple):
        closed[simple.name, simple.backend] += 1
        return generate(simple)

    def counting_induced(G):
        induced[G.name] += 1
        return to_4d(G)

    monkeypatch.setattr(rootsys, "generate_roots", counting_roots)
    monkeypatch.setattr(induction, "spinors_to_4d", counting_induced)
    _cpus(monkeypatch, 1)
    rootsys._catalog_set.cache_clear()
    induction._reference_fingerprints.cache_clear()
    assert all(r.passed for r in verify.run_all(12))
    assert {("A4", "exact"), ("B3", "exact"), ("H3", "exact")} <= set(closed)
    assert {"Spin(B3)", "Spin(H3)"} <= set(induced)
    assert [key for key, count in (closed + induced).items() if count > 1] == []
