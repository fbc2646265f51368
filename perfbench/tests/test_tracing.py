import pytest

import nlslab
import nlslab.cli
import nlslab.dynamics
import numpy as np

from tracing import ROOT_NAME, Tracer, layer_totals, self_times

# (id, name, parent, start, end): a root with two children, one of which has
# a child of its own, plus a gap the root alone covers.
TREE = [
    (0, ROOT_NAME, -1, 0.0, 10.0),
    (1, "a", 0, 1.0, 4.0),
    (2, "b", 1, 2.0, 3.0),
    (3, "a", 0, 5.0, 9.0),
]


def test_self_time_subtracts_child_coverage():
    own = self_times(TREE)
    assert own == {0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0}


def test_self_times_sum_to_root_duration():
    own = self_times(TREE)
    assert sum(own.values()) == pytest.approx(10.0)


def test_overlapping_children_are_not_counted_twice():
    spans = [(0, "p", -1, 0.0, 10.0), (1, "c", 0, 1.0, 6.0), (2, "c", 0, 4.0, 8.0), (3, "c", 0, 9.0, 12.0)]
    assert self_times(spans)[0] == pytest.approx(10.0 - 7.0 - 1.0)


def test_layer_totals_group_by_name():
    totals = layer_totals(TREE)
    assert totals["a"] == {"calls": 2, "self_s": 6.0, "wall_s": 7.0}
    assert totals["b"]["calls"] == 1


def test_tracer_rebinds_every_import_and_restores():
    original = nlslab.dynamics.nonlinear_substep
    fft = np.fft.fft
    cfg = nlslab.parse_config("grid.n = 64\ngrid.length = 32\ntime.t_final = 3\nepsilon = 0.1\n")
    tracer = Tracer()
    with tracer:
        assert nlslab.cli.nonlinear_substep is not original
        assert nlslab.nonlinear_substep is nlslab.dynamics.nonlinear_substep
        case = tracer.traced(lambda: nlslab.run_case(cfg))
    assert nlslab.dynamics.nonlinear_substep is original
    assert nlslab.cli.nonlinear_substep is original
    assert np.fft.fft is fft

    totals = layer_totals(tracer.spans)
    steps = tracer.counters["dynamics.steps"]
    assert steps == nlslab.count_steps(case.schedule) > 0
    assert totals["dynamics.nonlinear_substep"]["calls"] == steps
    assert "dynamics.strang_step" not in totals
    assert totals["spectral.fft"]["calls"] >= 4 * steps
    own = sum(t["self_s"] for t in totals.values())
    assert own == pytest.approx(totals[ROOT_NAME]["wall_s"], rel=1e-9)
