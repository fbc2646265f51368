"""`forking.side` runs a sink the same way in a forked helper and in this process."""

import multiprocessing
import os
import warnings

import numpy as np
import pytest

from nlslab import SimulationAbort, SystemState, initial_state, make_grid, gaussian_profile
from nlslab import forking
from conftest import pin_writer


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


def _states():
    grid = make_grid(16, 8.0)
    psi = gaussian_profile(grid, 1.0, 1.0, 0.5, 1.0)
    scaled = [initial_state(grid, psi, psi, 0.1 * (k + 1)) for k in range(5)]
    return grid, [SystemState(float(k), s.u1, s.u2) for k, s in enumerate(scaled)]


def _run(abort_t):
    """Every state through `side`, then the result and blocks, or the abort; with the warnings emitted."""
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
    assert multiprocessing.active_children() == []
    return kind, outcome, [(w.category, str(w.message)) for w in seen]


@pytest.mark.parametrize("abort_t", [None, 2.0], ids=["result", "abort"])
def test_both_sides_give_the_same_result_abort_and_warnings(monkeypatch, abort_t):
    runs = {}
    for path in ("forked", "in-process"):
        with monkeypatch.context() as pinned:
            pin_writer(pinned, path)
            runs[path] = _run(abort_t)
    (forked_kind, *forked), (here_kind, *here) = runs["forked"], runs["in-process"]
    assert (forked_kind, here_kind) == ("_StreamHelper", "_InProcess")
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
    assert kind == "_StreamHelper" and len(calls) == len(states)
    assert pairs == [(s.t, s.u1.values.tobytes(), s.u2.values.tobytes(), False) for s in states]
