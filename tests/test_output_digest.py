"""`tools/output_digest.py` on its small manifest: relative facts only.

Digests depend on the numpy build and the CPU, so none is pinned here; the
runs are compared with each other.
"""

import importlib.util
import multiprocessing
import sys
from pathlib import Path

import pytest

from conftest import assert_helpers_end, pin_writer

TOOL = Path(__file__).resolve().parents[1] / "tools" / "output_digest.py"


def _tool():
    spec = importlib.util.spec_from_file_location("output_digest", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


@pytest.fixture(scope="module")
def runs():
    """The small manifest's digests: forked twice, through one helper each time, then in this process.

    Every run succeeds.
    """
    tool = _tool()
    digests = {}
    for run in ("forked", "forked again", "in-process"):
        with pytest.MonkeyPatch.context() as pinned:
            pin_writer(pinned, run.split()[0])
            digests[run], failed = tool.digests(small=True)
        assert failed == {}
        assert_helpers_end()
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


def test_a_failed_run_fails_the_tool_after_every_line(monkeypatch, capsys):
    # equal lists on both paths prove nothing when a run fails on both
    tool = _tool()
    entries = [("no-config", tool._cli(["evolve", "absent.cfg"])), ("fine", lambda workdir: {"value": "x"})]
    monkeypatch.setattr(tool, "manifest", lambda small, tree: entries)
    monkeypatch.setattr(sys, "path", list(sys.path))  # main puts the tree's src/ first
    assert tool.main(["--small"]) == 1
    out, err = capsys.readouterr()
    assert [line.split("  ")[0] for line in out.splitlines()] == [
        "no-config/exit",
        "no-config/stdout",
        "no-config/stderr",
        "no-config/warnings",
        "fine/value",
        "fine/warnings",
    ]
    assert err == "failed run: no-config exited 1\n"


def test_more_than_one_helper_alive_fails_the_tool(monkeypatch, capsys):
    # the manifest runs through one helper; any other child left alive is a leak
    tool = _tool()
    monkeypatch.setattr(tool, "manifest", lambda small, tree: [("fine", lambda workdir: {"value": "x"})])
    monkeypatch.setattr(sys, "path", list(sys.path))  # main puts the tree's src/ first
    for alive, code in ((["helper"], 0), (["helper", "stray"], 1)):
        monkeypatch.setattr(multiprocessing, "active_children", lambda: alive)
        assert tool.main(["--small"]) == code
        out, err = capsys.readouterr()
        assert [line.split("  ")[0] for line in out.splitlines()] == ["fine/value", "fine/warnings"]
        assert err == ("" if code == 0 else "2 child processes alive after the manifest; the helper is one\n")
