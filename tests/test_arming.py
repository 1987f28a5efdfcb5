"""The arming contract of the two disarmed-by-default hooks.

``trace.armed()`` and ``sanitize.enabled()`` read the environment on
every call: tests arm them with ``monkeypatch.setenv`` partway through,
perfbench sets ``REPRO_TRACE`` after import, and the service arms after
importing its entry point.  The read is one dict probe of the
environment's encoded mapping, so these tests pin that it still sees
every way the environment is edited, at the very next call, and that a
forked worker inherits the flag.
"""

import multiprocessing
import os

import pytest

from repro.check import sanitize
from repro.obs import metrics, trace

HOOKS = [(trace.ENV_VAR, trace.armed), (sanitize.ENV_VAR, sanitize.enabled)]


@pytest.mark.parametrize("var, hook", HOOKS)
def test_setenv_and_delenv_take_effect_at_the_next_call(var, hook,
                                                        monkeypatch):
    monkeypatch.delenv(var, raising=False)
    assert not hook()
    for value, want in (("1", True), ("0", False), ("", False),
                        ("yes", True), ("0", False)):
        monkeypatch.setenv(var, value)
        assert hook() is want, value
    monkeypatch.setenv(var, "1")
    assert hook()
    monkeypatch.delenv(var)
    assert not hook()


@pytest.mark.parametrize("var, hook", HOOKS)
def test_plain_environ_edits_take_effect(var, hook, monkeypatch):
    # perfbench and the CLI write os.environ directly, not via setenv.
    monkeypatch.delenv(var, raising=False)
    try:
        os.environ[var] = "1"
        assert hook()
        os.environ.pop(var)
        assert not hook()
        os.environ.update({var: "1"})
        assert hook()
    finally:
        os.environ.pop(var, None)
    assert not hook()


def test_disarmed_incr_records_nothing(monkeypatch):
    monkeypatch.delenv(trace.ENV_VAR, raising=False)
    metrics.reset()
    try:
        metrics.incr("kernel.profiles")
        assert metrics.counters() == {}
        monkeypatch.setenv(trace.ENV_VAR, "1")
        metrics.incr("kernel.profiles", 2)
        assert metrics.counters() == {"kernel.profiles": 2}
    finally:
        metrics.reset()


def _report(conn):
    conn.send((trace.armed(), sanitize.enabled()))
    conn.close()


def _in_forked_child():
    ctx = multiprocessing.get_context("fork")
    parent, child = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=_report, args=(child,))
    proc.start()
    try:
        assert parent.poll(30), "forked child did not report"
        return parent.recv()
    finally:
        proc.join(30)


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="needs the fork start method")
def test_forked_worker_inherits_the_flags(monkeypatch):
    # Armed after import, as perfbench and the service arm: the child
    # forked afterwards must see the same state as the parent.
    monkeypatch.setenv(trace.ENV_VAR, "1")
    monkeypatch.setenv(sanitize.ENV_VAR, "1")
    assert _in_forked_child() == (True, True)
    monkeypatch.delenv(trace.ENV_VAR)
    monkeypatch.setenv(sanitize.ENV_VAR, "0")
    assert _in_forked_child() == (False, False)
