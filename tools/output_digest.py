"""Digest every output of a fixed manifest of runs, or list what differs between two trees.

    python tools/output_digest.py [--small] [--tree TREE]
    python tools/output_digest.py [--small] --against TREE

The first form runs the manifest in this process on the package under
`<tree>/src` (this checkout by default) and prints one `name  sha256` line
per output: each table a CLI command writes, its exit code, stdout and
stderr, each array of a `CaseResult` and the warnings a run emits.  The
helper path is this process's: with two usable cores `run_case` and
`nlslab evolve` run their side work in this process's one helper, forked
at the first run and reused by every later one, so the forked list runs
the whole manifest through one helper; under `taskset -c 0` they run it
in-process.  The lists of the two runs must be equal, which covers the
helper's reuse too.  After the last line it names on stderr each CLI run
that exited non-zero and exits 1, as equal lists prove nothing when a run
fails on both paths; a run that raises stops it.  It also exits 1, naming
the count, if more than that one helper is alive after the manifest.

The manifest:
  * the three benchmark workload configs at seed 0, run as the benchmark
    runs them (`run_case`, `nlslab evolve`, `nlslab mprofile`);
  * Scenarios A, B and symmetric at small size (n = 256, L = 64, T = 20);
  * the component-swapped Scenario B, mapped back onto the unswapped
    run's names (`swap:scenario-B/...`), so equal digests show the swap
    symmetry;
  * every CLI command: `evolve` with each table set, `mprofile`, `sweep`,
    `scenario` for each name and `verify`;
  * runs with an explicit `time.dt` or `Schedule`: the tests' tiny configs
    and criterion 04's fixed-step schedules.
`--small` keeps Scenario B, its swap, Scenario B on a box that `evolve`
grows (n = 1024, L = 256, T = 20: a 512-point crop, then the whole grid)
and the small CLI runs: `evolve` on
the tiny config, `evolve` on the small `t = 5` config with both table sets
and with each alone, and `mprofile`, `sweep` and `scenario B` on the small
`t = 20` config (n = 256, L = 64, the default dt).  Two more `evolve` runs
of the tiny config print the ends of the float range: at epsilon = 1e100
its observer columns overflow to inf and warn, and at epsilon = 1e-150 its
tables hold three-digit negative exponents and masses below 1e-270, so the
table formatter's per-value fallback and its 3-digit layout are covered.
CI runs `--small` as its check that forked and in-process runs write the
same bytes.

The second form runs the manifest in child processes on this tree and on
TREE, each with this process's cores and under `taskset -c 0`, and lists
every output whose digest differs between the trees, or between the two
paths of one tree.  It exits 0 when nothing differs and 1 otherwise; a
failed run in either tree stops it with that child's error.  It
lists what moved; it never says whether a move is right.  Digests depend
on the numpy build and the CPU, so compare lists made on one machine.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import multiprocessing
import os
import shutil
import subprocess
import sys
import tempfile
import warnings
from dataclasses import astuple, replace

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SMALL = "grid.n = 256\ngrid.length = 64\ntime.t_final = {t}\n"  # CI's small configs: the default dt
TINY = "grid.n = 64\ngrid.length = 32\ntime.dt = 0.01\ntime.t_final = 5\nepsilon = 0.1\n"


def digest(*parts) -> str:
    """SHA-256 of text, bytes or arrays; an array's dtype and shape are hashed with its bytes."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(f"{part.dtype.str}{part.shape}".encode())
            part = np.ascontiguousarray(part).tobytes()
        h.update(part.encode() if isinstance(part, str) else part)
    return h.hexdigest()


def case_outputs(case) -> dict:
    """Every array of a `CaseResult`, by name; a list is digested as its arrays in turn."""
    return {
        "psi1_hat": case.psi1_hat.values,
        "psi2_hat": case.psi2_hat.values,
        "band": case.band,
        "times": case.schedule.times,
        "states.u1": [s.u1.values for s in case.states],
        "states.u2": [s.u2.values for s in case.states],
        "anchor.alpha1": case.anchor_amplitudes.alpha1.values,
        "anchor.alpha2": case.anchor_amplitudes.alpha2.values,
        "final.alpha1": case.final_amplitudes.alpha1.values,
        "final.alpha2": case.final_amplitudes.alpha2.values,
        "mass1_seq": case.mass1_seq,
        "mass2_seq": case.mass2_seq,
        "alpha2_norm_seq": case.alpha2_norm_seq,
        "orth_defect_seq": case.orth_defect_seq,
        "m_end": case.m_end.m_values,
        "m_int": case.m_int.m_values,
        "tail_estimate": case.m_int.tail_estimate,
        "tags": case.tags(),
        "record": np.array(astuple(case.record), dtype=np.float64),
    }


def swapped_back(case) -> dict:
    """A component-swapped run's outputs under the names of the unswapped run's they should equal."""
    out = case_outputs(case)
    for a, b in (("psi1_hat", "psi2_hat"), ("states.u1", "states.u2"), ("mass1_seq", "mass2_seq")):
        out[a], out[b] = out[b], out[a]
    for when in ("anchor", "final"):
        out[f"{when}.alpha1"], out[f"{when}.alpha2"] = out[f"{when}.alpha2"], out[f"{when}.alpha1"]
    for name in ("m_end", "m_int", "tags"):
        out[name] = -out[name]
    r = case.record
    r = replace(r, lemma_defect1=r.lemma_defect2, lemma_defect2=r.lemma_defect1, mass1_final=r.mass2_final, mass2_final=r.mass1_final)
    out["record"] = np.array(astuple(r), dtype=np.float64)
    del out["alpha2_norm_seq"]  # the swapped run's alpha2 is the unswapped run's alpha1, whose norm is not kept
    return out


def _run_case(cfg, outputs=case_outputs):
    import nlslab

    return lambda workdir: outputs(nlslab.run_case(cfg))


def _cli(args, text=None):
    """A CLI run on a config `text` with `outputs.directory` set: exit code, stdout, stderr and every table."""
    import nlslab.cli

    def run(workdir):
        out = os.path.join(workdir, "out")
        argv = list(args)
        if text is not None:
            argv.append(os.path.join(workdir, "run.cfg"))
            with open(argv[-1], "w", encoding="utf-8") as fh:
                fh.write(text + f"outputs.directory = {out}\n")
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = nlslab.cli.main(argv)
        outputs = {"exit": str(code), "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}
        for name in ("stdout", "stderr"):
            outputs[name] = outputs[name].replace(workdir, "<workdir>")
        for name in sorted(os.listdir(out)) if os.path.isdir(out) else ():
            with open(os.path.join(out, name), "rb") as fh:
                outputs[name] = fh.read()
        return outputs

    return run


def _fixed_schedule(dt):
    """Criterion 04's run at one fixed step: the final state."""
    import nlslab as nl

    def run(workdir):
        grid = nl.make_grid(1024, 64.0)
        psi1 = nl.gaussian_profile(grid, 1.0, 1.0, 0.0, 0.0)
        psi2 = nl.gaussian_profile(grid, 0.5, 1.0, 0.0, 0.0)
        final = nl.evolve(nl.initial_state(grid, psi1, psi2, 0.3), nl.make_schedule(dt=dt, t_final=5.0, grow_after=np.inf))[-1]
        return {"u1": final.u1.values, "u2": final.u2.values}

    return run


def _workloads(tree):
    """`perfbench/workloads.py` of `tree`, loaded by path."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", os.path.join(tree, "perfbench", "workloads.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # registered while it runs: dataclasses look their module up by name
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def manifest(small: bool = False, tree: str = ROOT) -> list:
    """(name, run) pairs; run(workdir) returns the entry's outputs by name."""
    from nlslab import SCENARIO_A, SCENARIO_B, SCENARIO_SYMMETRIC, RunConfig, parse_config

    scenario = {"A": SCENARIO_A, "B": SCENARIO_B, "symmetric": SCENARIO_SYMMETRIC}
    small_case = {name: replace(cfg, grid_n=256, grid_length=64.0, t_final=20.0) for name, cfg in scenario.items()}
    b = small_case["B"]
    small_evolve = SMALL.format(t=5) + "epsilon = 0.1\n"
    entries = [
        ("scenario-B", _run_case(b)),
        ("swap:scenario-B", _run_case(replace(b, psi1=b.psi2, psi2=b.psi1), swapped_back)),
        ("scenario-B-growing-box", _run_case(replace(SCENARIO_B, grid_n=1024, grid_length=256.0, t_final=20.0))),
        ("evolve-tiny", _cli(["evolve"], TINY)),
        ("evolve-small", _cli(["evolve"], small_evolve)),
    ]
    for eps in ("1e100", "1e-150"):  # the float range's ends: overflow to inf, three-digit exponents
        entries.append((f"evolve-tiny-eps-{eps}", _cli(["evolve"], TINY.replace("epsilon = 0.1", f"epsilon = {eps}"))))
    for tables in ("observers", "snapshots"):  # evolve-small writes both
        entries.append((f"evolve-small-{tables}", _cli(["evolve"], small_evolve + f"outputs.tables = {tables}\n")))
    entries += [(f"{name}-small", _cli([name], SMALL.format(t=20))) for name in ("mprofile", "sweep")]
    entries.append(("scenario-B-cli", _cli(["scenario", "B"], SMALL.format(t=20))))
    if small:
        return entries
    module = _workloads(tree)
    for name, w in module.WORKLOADS.items():
        text = module.config_text(w, 0, "{out}")
        if w.kind == "case":
            entries.append((f"workload-{name}", _run_case(parse_config(text))))
        else:
            entries.append((f"workload-{name}", _cli([w.kind], text.replace("outputs.directory = {out}\n", ""))))
    entries += [(f"scenario-{name}", _run_case(small_case[name])) for name in ("A", "symmetric")]
    entries.append(("tiny", _run_case(RunConfig(grid_n=256, grid_length=32.0, dt=0.01, t_final=20.0))))
    for tables in ("observers", "snapshots"):  # evolve-tiny writes both
        entries.append((f"evolve-tiny-{tables}", _cli(["evolve"], TINY + f"outputs.tables = {tables}\n")))
    entries += [(f"scenario-{name}-cli", _cli(["scenario", name], SMALL.format(t=20))) for name in ("A", "symmetric")]
    entries.append(("verify", _cli(["verify"])))
    entries += [(f"criterion-04-dt-{dt:g}", _fixed_schedule(dt)) for dt in (0.02, 0.01, 0.00125)]
    return entries


def digests(small: bool = False, tree: str = ROOT) -> tuple[dict, dict]:
    """Every output's digest by `entry/output` name, in manifest order, and each failed CLI run's exit code by entry."""
    lines, failed = {}, {}
    for entry, run in manifest(small, tree):
        workdir = tempfile.mkdtemp(prefix="output-digest-")
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                outputs = run(workdir)
        finally:
            shutil.rmtree(workdir)
        outputs["warnings"] = "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)
        if outputs.get("exit", "0") != "0":
            failed[entry] = outputs["exit"]
        for name, value in outputs.items():
            lines[f"{entry}/{name}"] = digest(*value) if isinstance(value, list) else digest(value)
    return lines, failed


def _child_digests(tree: str, small: bool, one_core: bool) -> dict:
    """`digests` of `tree` in a fresh interpreter, with this process's cores or under `taskset -c 0`."""
    command = [sys.executable, os.path.abspath(__file__), "--tree", tree] + (["--small"] if small else [])
    if one_core:
        command = ["taskset", "-c", "0"] + command
    text = subprocess.run(command, check=True, stdout=subprocess.PIPE, text=True).stdout
    return dict(line.split("  ") for line in text.splitlines())


def against(other: str, small: bool) -> int:
    """List the outputs that differ between this tree and `other`, or between the paths of one tree."""
    both_paths = shutil.which("taskset") is not None and len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) >= 2
    if not both_paths:
        print("# one path only: no taskset or fewer than two usable cores")
    trees = {"this tree": ROOT, "other tree": os.path.abspath(other)}
    paths = (False, True) if both_paths else (False,)
    runs = {label: [_child_digests(tree, small, one_core) for one_core in paths] for label, tree in trees.items()}
    moved = 0
    for label, (first, *rest) in runs.items():
        print(f"# {label}: {trees[label]}, {len(first)} outputs")
        for name in sorted(set(first).union(*rest)):
            if any(r.get(name) != first.get(name) for r in rest):
                print(f"paths differ in {label}  {name}")
                moved += 1
    mine, theirs = runs["this tree"][0], runs["other tree"][0]
    for name in [*mine, *(n for n in theirs if n not in mine)]:
        if name not in theirs or name not in mine:
            print(f"only in {'this' if name in mine else 'other'} tree  {name}")
        elif mine[name] != theirs[name]:
            print(f"differs  {name}")
        else:
            continue
        moved += 1
    print(f"# {moved} difference(s)")
    return 1 if moved else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--small", action="store_true", help="the small manifest only")
    parser.add_argument("--tree", default=ROOT, help="checkout whose src/ and perfbench/ to run (default: this one)")
    parser.add_argument("--against", metavar="TREE", help="list what differs between this checkout and TREE")
    args = parser.parse_args(argv)
    if args.against is not None:
        return against(args.against, args.small)
    src = os.path.join(os.path.abspath(args.tree), "src")
    sys.path.insert(0, src)
    import nlslab

    if not os.path.abspath(nlslab.__file__).startswith(src + os.sep):
        raise SystemExit(f"nlslab was imported from {nlslab.__file__}, not from {src}")
    lines, failed = digests(args.small, os.path.abspath(args.tree))
    for name, sha in lines.items():
        print(f"{name}  {sha}")
    for entry, code in failed.items():
        print(f"failed run: {entry} exited {code}", file=sys.stderr)
    alive = len(multiprocessing.active_children())
    if alive > 1:
        print(f"{alive} child processes alive after the manifest; the helper is one", file=sys.stderr)
    return 1 if failed or alive > 1 else 0


if __name__ == "__main__":
    sys.exit(main())
