"""`forking.side` runs a sink the same way in this process's reused helper and in this process."""

import contextlib
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
import warnings

import numpy as np
import pytest

import nlslab
from nlslab import SimulationAbort, SystemState, initial_state, make_grid, gaussian_profile
from nlslab import forking
from conftest import assert_helpers_end, pin_writer


class _ToySink:
    """Warns on each state it is sent, aborts at `abort_t`, and keeps the states before it."""

    def __init__(self, abort_t=None):
        self.abort_t, self.kept = abort_t, []

    def add(self, state):
        warnings.warn(f"sent t = {state.t}", UserWarning)
        if state.t == self.abort_t:
            raise SimulationAbort(f"toy abort at t = {state.t}")
        self.kept.append(state)

    def result(self):
        # read when the stream has ended, so a buffer reused between states would show
        pairs = [(s.t, s.u1.values.tobytes(), s.u2.values.tobytes(), s.u1.values.flags.writeable) for s in self.kept]
        return pairs, (f"block at t = {s.t}\n" for s in self.kept)


class _OverflowSink:
    """Overflows a float64 product on each state it is sent; its result is None."""

    def add(self, state):
        np.float64(1e308) * np.float64(10.0)

    def result(self):
        return None, ()


def _states():
    grid = make_grid(16, 8.0)
    psi = gaussian_profile(grid, 1.0, 1.0, 0.5, 1.0)
    scaled = [initial_state(grid, psi, psi, 0.1 * (k + 1)) for k in range(5)]
    return grid, [SystemState(float(k), s.u1, s.u2) for k, s in enumerate(scaled)]


def _run(abort_t=None, keep=False):
    """Every state through `side`, then the result and blocks, or the abort; with the warnings emitted.

    Unless `keep` is set, the helper is then checked and stopped.
    """
    grid, states = _states()
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        try:
            with forking.side(grid, _ToySink(abort_t)) as runner:
                kind = type(runner).__name__
                for state in states:
                    runner.send(state)
                result = runner.finish()
                outcome = result, [runner.next_block() for _ in result]
        except SimulationAbort as err:
            outcome = str(err)
    if not keep:
        assert_helpers_end()
    return kind, outcome, [(w.category, str(w.message)) for w in seen]


def _in_process(monkeypatch, abort_t=None):
    """`_run` in this process."""
    with monkeypatch.context() as pinned:
        pin_writer(pinned, "in-process")
        return _run(abort_t)


def _helper_pid():
    return forking._helper.proc.pid


@pytest.mark.parametrize("abort_t", [None, 2.0], ids=["result", "abort"])
def test_both_sides_give_the_same_result_abort_and_warnings(monkeypatch, abort_t):
    runs = {}
    for path in ("forked", "in-process"):
        with monkeypatch.context() as pinned:
            pin_writer(pinned, path)
            runs[path] = _run(abort_t)
    (forked_kind, *forked), (here_kind, *here) = runs["forked"], runs["in-process"]
    assert (forked_kind, here_kind) == ("_Helper", "_InProcess")
    assert forked == here
    outcome, caught = here
    _, states = _states()
    if abort_t is None:
        pairs, blocks = outcome
        assert pairs == [(s.t, s.u1.values.tobytes(), s.u2.values.tobytes(), False) for s in states]
        assert blocks == [f"block at t = {s.t}\n" for s in states]
    else:
        assert outcome == "toy abort at t = 2.0"
    # each state is sent once; after the abort the states are dropped
    sent = [s.t for s in states if abort_t is None or s.t <= abort_t]
    assert caught == [(UserWarning, f"sent t = {t}") for t in sent]


def test_no_side_work_forks_nothing(monkeypatch):
    pin_writer(monkeypatch, "forked")
    grid, _ = _states()
    assert type(forking.side(grid, _ToySink(), fork=False)).__name__ == "_InProcess"


def test_a_write_cut_short_is_finished(monkeypatch):
    # `os.writev` may write only a prefix of a state, as when a signal cuts
    # it short; the rest must follow, or the helper reads the stream out of step
    pin_writer(monkeypatch, "forked")
    calls = []

    def short_writev(fd, buffers):
        data = b"".join(buffers)
        calls.append(len(data))
        return os.write(fd, data[: len(data) // 3])

    monkeypatch.setattr(os, "writev", short_writev)
    kind, (pairs, _), _ = _run(None)
    _, states = _states()
    assert kind == "_Helper" and len(calls) == len(states)
    assert pairs == [(s.t, s.u1.values.tobytes(), s.u2.values.tobytes(), False) for s in states]


def test_three_runs_in_a_row_use_one_helper(monkeypatch):
    here = _in_process(monkeypatch)
    pin_writer(monkeypatch, "forked")
    forking._stop()
    pids = []
    for _ in range(3):
        # warnings included: each run's are its own
        assert _run(keep=True) == ("_Helper", *here[1:])
        pids.append(_helper_pid())
    assert len(set(pids)) == 1 and pids[0] != os.getpid()
    assert_helpers_end()


def test_a_sink_abort_keeps_the_helper(monkeypatch):
    here, aborted = _in_process(monkeypatch), _in_process(monkeypatch, 2.0)
    pin_writer(monkeypatch, "forked")
    _run(keep=True)
    pid = _helper_pid()
    assert _run(2.0, keep=True) == ("_Helper", *aborted[1:])
    assert _run(keep=True) == ("_Helper", *here[1:])
    assert _helper_pid() == pid
    assert_helpers_end()


@pytest.mark.parametrize("failure", ["caller-abort", "killed-mid-run", "killed-idle"])
def test_the_run_after_a_failed_one_is_right(monkeypatch, failure):
    # an abort the caller raises mid-stream, as `evolve` does, kills the
    # helper; so may anything else; the next run forks a new one
    here = _in_process(monkeypatch)
    pin_writer(monkeypatch, "forked")
    _run(keep=True)
    old = forking._helper.proc
    grid, states = _states()
    if failure == "killed-idle":
        old.kill()
        old.join()
    else:
        with pytest.raises((SimulationAbort, ChildProcessError)) as err:
            with forking.side(grid, _ToySink()) as runner:
                runner.send(states[0])
                if failure == "caller-abort":
                    raise SimulationAbort("evolve abort")
                old.kill()
                old.join()
                for state in states[1:]:
                    runner.send(state)
                runner.finish()
        message = "evolve abort" if failure == "caller-abort" else "helper process exited with code -9"
        assert str(err.value) == message
        assert forking._helper is None and old.exitcode is not None
    assert _run(keep=True) == ("_Helper", *here[1:])
    assert forking._helper.proc is not old
    assert_helpers_end()


def test_an_interrupt_leaves_the_idle_helper_to_its_caller(monkeypatch):
    # a terminal's Ctrl-C reaches the whole process group; the caller decides
    here = _in_process(monkeypatch)
    pin_writer(monkeypatch, "forked")
    _run(keep=True)
    pid = _helper_pid()
    os.kill(pid, signal.SIGINT)
    assert _run(keep=True) == ("_Helper", *here[1:]) and _helper_pid() == pid
    assert_helpers_end()


def test_a_second_thread_runs_in_process_while_the_helper_is_busy(monkeypatch):
    here = _in_process(monkeypatch)
    pin_writer(monkeypatch, "forked")
    grid, states = _states()
    other = {}
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        with forking.side(grid, _ToySink()) as runner:
            runner.send(states[0])
            thread = threading.Thread(target=lambda: other.update(run=_run(keep=True)))
            thread.start()
            thread.join(timeout=60)
            assert not thread.is_alive()
            for state in states[1:]:
                runner.send(state)
            result = runner.finish()
            blocks = [runner.next_block() for _ in result]
    assert type(runner).__name__ == "_Helper"
    assert ((result, blocks), [(w.category, str(w.message)) for w in seen]) == tuple(here[1:])
    assert other["run"] == ("_InProcess", *here[1:])
    pid = _helper_pid()
    assert _run(keep=True) == ("_Helper", *here[1:]) and _helper_pid() == pid
    assert_helpers_end()


@pytest.mark.filterwarnings("ignore:sent t")
def test_threads_racing_for_the_helper_each_get_their_own_result(monkeypatch):
    # more threads than cores, switching often: whichever holds the helper
    # streams alone, and the others run in-process
    (_, (pairs, blocks), _) = _in_process(monkeypatch)
    pin_writer(monkeypatch, "forked")
    grid, states = _states()
    outcomes = []

    def runs():
        for _ in range(5):
            with forking.side(grid, _ToySink()) as runner:
                for state in states:
                    runner.send(state)
                result = runner.finish()
                outcomes.append((type(runner).__name__, result, [runner.next_block() for _ in result]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=runs, daemon=True) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(outcomes) == 20 and all(outcome[1:] == (pairs, blocks) for outcome in outcomes)
    kinds = {kind for kind, *_ in outcomes}
    assert "_Helper" in kinds and kinds <= {"_Helper", "_InProcess"}
    assert_helpers_end()


def test_each_run_has_the_numpy_error_settings_of_its_side_call(monkeypatch):
    # the helper's own settings are those of its fork; each run's are sent with its sink
    pin_writer(monkeypatch, "forked")
    forking._stop()
    grid, states = _states()

    def caught(over):
        with warnings.catch_warnings(record=True) as seen, np.errstate(over=over):
            warnings.simplefilter("always")
            with forking.side(grid, _OverflowSink()) as runner:
                for state in states:
                    runner.send(state)
                runner.finish()
        return [(w.category, str(w.message)) for w in seen]

    assert caught("ignore") == []
    pid = _helper_pid()
    assert caught("warn") == [(RuntimeWarning, "overflow encountered in scalar multiply")] * len(states)
    assert caught("ignore") == []
    assert _helper_pid() == pid
    assert_helpers_end()


def test_a_forked_child_forks_its_own_helper(monkeypatch):
    # a child made with os.fork() never writes into its parent's helper
    here = _in_process(monkeypatch)
    pin_writer(monkeypatch, "forked")
    _run(keep=True)
    parent = _helper_pid()
    child = os.fork()
    if child == 0:  # the child never returns into the test
        code = 1
        try:
            fresh = forking._helper is None
            same = _run(keep=True) == ("_Helper", *here[1:])
            own = _helper_pid() not in (parent, os.getpid())
            forking._stop()
            code = 0 if fresh and same and own else 2
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60
    while (status := os.waitpid(child, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.01)
    if status[0] == 0:
        os.kill(child, signal.SIGKILL)
        os.waitpid(child, 0)
    assert status[0] == child and os.waitstatus_to_exitcode(status[1]) == 0
    assert _run(keep=True) == ("_Helper", *here[1:]) and _helper_pid() == parent
    assert_helpers_end()


# run_case twice with the forked path, whatever the cores, then the
# helper's pid; the caller then exits, is killed, or forks a child that
# exits through its exit handlers and runs once more
_CALLER = textwrap.dedent(
    """
    import os, signal, sys, warnings
    from dataclasses import replace
    import nlslab
    os.sched_getaffinity = lambda pid: {0, 1}
    warnings.simplefilter("ignore")
    cfg = replace(nlslab.SCENARIO_B, grid_n=256, grid_length=64.0, t_final=20.0)
    nlslab.run_case(cfg)
    nlslab.run_case(cfg)
    print(nlslab.forking._helper.proc.pid, flush=True)
    if sys.argv[1] == "killed":
        os.kill(os.getpid(), signal.SIGKILL)
    if sys.argv[1] == "child-exits":
        child = os.fork()
        if child == 0:
            sys.exit(0)
        os.waitpid(child, 0)
        nlslab.run_case(cfg)
        print(nlslab.forking._helper.proc.pid, flush=True)
    """
)


def _gone(pid: int) -> bool:
    """Whether `pid` has exited: it is no process, or one its new parent has not reaped yet."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    with contextlib.suppress(OSError), open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        return fh.read().rsplit(")", 1)[1].split()[0] == "Z"
    return False


@pytest.mark.parametrize("end", ["exits", "killed", "child-exits"])
def test_no_helper_outlives_its_caller(end):
    src = os.path.dirname(os.path.dirname(os.path.abspath(nlslab.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    caller = subprocess.Popen([sys.executable, "-c", _CALLER, end], env=env, stdout=subprocess.PIPE, text=True)
    try:
        # the helper holds a copy of the caller's stdout: the pipe reaches
        # EOF only when both are gone
        out, _ = caller.communicate(timeout=60)
    finally:
        caller.kill()
        caller.wait()
    assert caller.returncode == (-9 if end == "killed" else 0)
    helper, *rest = map(int, out.split())
    # a child's exit leaves its parent's helper running and in use
    assert rest == ([helper] if end == "child-exits" else [])
    deadline = time.monotonic() + 10  # the helper's exit may still be under way
    while not _gone(helper) and time.monotonic() < deadline:
        time.sleep(0.01)
    assert _gone(helper)
