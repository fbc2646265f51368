"""`tools/output_digest.py` on its small manifest: relative facts only.

Digests depend on the numpy build and the CPU, so none is pinned here; the
runs are compared with each other.
"""

import importlib.util
import multiprocessing
from pathlib import Path

import pytest

from conftest import pin_writer

TOOL = Path(__file__).resolve().parents[1] / "tools" / "output_digest.py"


@pytest.fixture(scope="module")
def runs():
    """The small manifest's digests: forked twice, then in this process."""
    spec = importlib.util.spec_from_file_location("output_digest", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    digests = {}
    for run in ("forked", "forked again", "in-process"):
        with pytest.MonkeyPatch.context() as pinned:
            pin_writer(pinned, run.split()[0])
            digests[run] = tool.digests(small=True)
        assert multiprocessing.active_children() == []
    return digests


def test_a_rerun_is_equal(runs):
    assert runs["forked again"] == runs["forked"]


def test_forked_equals_in_process(runs):
    assert runs["in-process"] == runs["forked"]


def test_swap_maps_outputs_onto_each_other(runs):
    digests = runs["forked"]
    swapped = {name.removeprefix("swap:"): sha for name, sha in digests.items() if name.startswith("swap:")}
    # every output of the unswapped run but alpha2's norm, whose swapped image is not kept
    unswapped = {name for name in digests if name.startswith("scenario-B/")}
    assert set(swapped) == unswapped - {"scenario-B/alpha2_norm_seq"}
    assert {name: digests[name] for name in swapped} == swapped
