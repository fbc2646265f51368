"""Command-line surface: evolve / mprofile / sweep / scenario / verify.

Exit codes: 0 success, 1 validation error (bad usage, unreadable or invalid
configuration, a table that cannot be written), 2 runtime abort (non-finite
samples, mass growth, or a failed self-check in `verify`).

`mprofile`, `sweep` and `scenario` analyse each case through `run_case`,
whose pass over the snapshots is a `forking` sink.  `evolve` opens
`snapshots.tsv` before the run and writes its blocks after it.  Its side
work is one sink too, `_EvolveSink`, which `forking.side` runs in the
process's one helper, forked at its first run and reused, where it can,
and in this process otherwise; the sink is sent to the helper pickled.
When `observers.tsv` is wanted, the sink is sent every observer state
while the run goes on and runs the trajectory recorder on each; its rows
come back after the run and this process writes the table.  When `snapshots.tsv` is wanted, the sink
is then sent every other snapshot and formats their blocks, while this
process formats the rest and writes them all in order.  A run with neither
forks nothing.  Every table is opened through `tables.open_table`, so an
abort or a failed write removes it.
"""

from __future__ import annotations

import contextlib
import os
import sys
from dataclasses import astuple, fields

import numpy as np

from .config import ConfigError, RunConfig, parse_config
from .spectral import SimulationAbort
from .dynamics import TrajectoryRecorder, count_steps, evolve, mass, nonlinear_substep  # last: read by perfbench tests
from .experiments import OrderFit, SweepRecord, _run_inputs, corollary_scenarios, run_case, run_sweep
from .forking import side
from .tables import block_formatter, open_table, write_table

USAGE = """\
usage: nlslab <command> [arguments]

commands:
  evolve <config>                  integrate one run, write observer and snapshot tables
  mprofile <config>                sign profile by both routes, write profile tables
  sweep <config>                   amplitude sweep with order fits, write sweep tables
  scenario <A|B|symmetric> [config]  run a built-in decay/non-decay scenario
  verify                           run the built-in self-checks (writes nothing)
"""


def _load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        raise ConfigError(f"cannot read config {path!r}: {err}") from err
    return parse_config(text)


def _outdir(cfg: RunConfig) -> str:
    os.makedirs(cfg.output_dir, exist_ok=True)
    return cfg.output_dir


def _snapshot_block(format_block, state) -> str:
    """The `snapshots.tsv` block of one snapshot: (t, x, re u1, im u1, re u2, im u2) per point."""
    pairs = np.stack([state.u1.values, state.u2.values], axis=1)
    return format_block(state.t, pairs.view(np.float64).ravel())


class _EvolveSink:
    """`nlslab evolve`'s side work: the recorder on each observer state, then the snapshots after them to format.

    With a recorder, state k < `count_steps(schedule) + 1` is evolve's k-th
    observer state.  A recorder abort is worded as evolve words an
    observer's.  The result is the recorder's rows, and the kept snapshots'
    blocks follow it.  It pickles, its block formatter as the grid's points.
    """

    def __init__(self, recorder, schedule, format_block):
        self.recorder, self.format_block = recorder, format_block
        self.count = count_steps(schedule) + 1 if recorder is not None else 0
        self.sent, self.kept = 0, []

    def add(self, state) -> None:
        k, self.sent = self.sent, self.sent + 1
        if k >= self.count:
            self.kept.append(state)
            return
        try:
            self.recorder(state)
        except SimulationAbort as err:
            if k:
                raise SimulationAbort(f"{err} at step {k}, t = {state.t}") from err
            raise

    def result(self):
        return getattr(self.recorder, "rows", None), (_snapshot_block(self.format_block, s) for s in self.kept)


def _cmd_evolve(args: list[str]) -> int:
    if len(args) != 1:
        raise ConfigError("evolve takes exactly one argument: the config path")
    cfg = _load_config(args[0])
    _, schedule, _, _, state0 = _run_inputs(cfg, cfg.epsilon_single())
    # the per-step recorder costs transforms; it runs only for observers.tsv
    recorder = TrajectoryRecorder(with_j_norm=True) if "observers" in cfg.tables else None
    format_block = block_formatter(state0.grid.points) if "snapshots" in cfg.tables else None
    out = _outdir(cfg)
    observers = os.path.join(out, "observers.tsv")
    with contextlib.ExitStack() as stack:
        if format_block is not None:
            # opened before the run, so an unwritable path fails at once
            fh = stack.enter_context(
                open_table(os.path.join(out, "snapshots.tsv"), ["t", "x", "re_u1", "im_u1", "re_u2", "im_u2"])
            )
        # a helper process pays only for a recorder or an odd block to format
        helped = recorder is not None or (format_block is not None and len(schedule.snapshot_steps) >= 2)
        sink = _EvolveSink(recorder, schedule, format_block)
        # a helper forked here is forked after the header is flushed and
        # before any block is written, and one forked at an earlier run
        # never had the table open, so no helper holds a buffered part of it
        helper = stack.enter_context(side(state0.grid, sink, helped, None if format_block else observers))
        snapshots = evolve(state0, schedule, helper.send if recorder is not None else None)
        for state in snapshots[1::2] if format_block is not None else ():
            helper.send(state)
        rows = helper.finish()
        if format_block is not None:  # the sink formats the odd blocks
            for i, state in enumerate(snapshots):
                fh.write(helper.next_block() if i % 2 else _snapshot_block(format_block, state))
    if recorder is not None:
        write_table(observers, recorder.header, rows)
    final = snapshots[-1]
    print(
        f"evolved to t = {final.t:g} in {count_steps(schedule)} steps; "
        f"masses {mass(final.u1):.6e} / {mass(final.u2):.6e}; tables in {out}/"
    )
    return 0


def _cmd_mprofile(args: list[str]) -> int:
    if len(args) != 1:
        raise ConfigError("mprofile takes exactly one argument: the config path")
    cfg = _load_config(args[0])
    case = run_case(cfg)
    out = _outdir(cfg)
    xi = case.grid.frequencies
    if "mprofile" in cfg.tables:
        _write_mprofile(os.path.join(out, "mprofile.tsv"), case)
    if "classification" in cfg.tables:
        write_table(
            os.path.join(out, "classification.tsv"),
            ["xi", "m_endpoint", "tag"],
            np.column_stack((xi, case.m_end.m_values, case.tags())),
        )
    r = case.record
    print(
        f"m profile at T = {cfg.t_final:g} (eps = {case.epsilon:g}): "
        f"cross-route gap {r.c_quad:.3e}, tail estimate {r.tail_estimate:.3e}, "
        f"threshold {r.threshold:.3e}; tables in {out}/"
    )
    return 0


def _cmd_sweep(args: list[str]) -> int:
    if len(args) != 1:
        raise ConfigError("sweep takes exactly one argument: the config path")
    cfg = _load_config(args[0])
    result = run_sweep(cfg)
    out = _outdir(cfg)
    if "sweep" in cfg.tables:
        write_table(
            os.path.join(out, "sweep.tsv"),
            [f.name for f in fields(SweepRecord)],
            (astuple(r) for r in result.records),
        )
    if "orderfit" in cfg.tables:
        fits = (result.lemma_fit1, result.lemma_fit2, result.theorem_fit)
        write_table(
            os.path.join(out, "orderfit.tsv"),
            ["quantity", *(f.name for f in fields(OrderFit))],
            ((i, *astuple(fit)) for i, fit in enumerate(fits, start=1)),
        )
    print(
        f"sweep over {len(result.records)} amplitudes: "
        f"lemma orders {result.lemma_fit1.slope:.3f} / {result.lemma_fit2.slope:.3f}, "
        f"theorem order {result.theorem_fit.slope:.3f}; tables in {out}/"
    )
    return 0


def _write_mprofile(path: str, case) -> None:
    """The sign profile by both routes with its tail estimate, one row per xi."""
    write_table(
        path,
        ["xi", "m_endpoint", "m_integral", "tail_estimate"],
        np.column_stack((case.grid.frequencies, case.m_end.m_values, case.m_int.m_values, case.m_int.tail_estimate)),
    )


def _cmd_scenario(args: list[str]) -> int:
    if len(args) not in (1, 2):
        raise ConfigError("scenario takes a scenario name and an optional config path")
    name = args[0]
    base = _load_config(args[1]) if len(args) == 2 else None
    reports = corollary_scenarios(base, which=(name,))
    rep = reports[name]
    case = rep.case
    out = _outdir(case.config)
    write_table(
        os.path.join(out, f"scenario_{name}_monitor.tsv"),
        ["t", "mass1", "mass2", "alpha2_norm", "orth_defect"],
        np.column_stack(
            (case.schedule.times, case.mass1_seq, case.mass2_seq, case.alpha2_norm_seq, case.orth_defect_seq)
        ),
    )
    _write_mprofile(os.path.join(out, f"scenario_{name}_mprofile.tsv"), case)
    print(f"scenario {name} (eps = {case.epsilon:g}, T = {case.schedule.t_final:g})")
    print(f"  tags present: {', '.join(rep.tags_present)}")
    print(f"  dominant-band amplitude retention: {rep.band_norm_ratio1:.3f} / {rep.band_norm_ratio2:.3f}")
    print(f"  final masses: {case.record.mass1_final:.6e} / {case.record.mass2_final:.6e}")
    print(f"  min m on populated band: {rep.m_min_strong_band:.3e} (threshold {case.threshold:.3e})")
    print(f"  tables in {out}/")
    return 0


def _cmd_verify(args: list[str]) -> int:
    if args:
        raise ConfigError("verify takes no arguments")
    from .checks import verify_checks  # here, not at import, which every other command would pay for

    failures = 0
    for name, check in verify_checks():
        try:
            ok, detail = check()
        except Exception as err:  # a crashed check is a failed check
            ok, detail = False, f"raised {type(err).__name__}: {err}"
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
        failures += 0 if ok else 1
    print(f"verify: {'all checks passed' if failures == 0 else f'{failures} check(s) failed'}")
    return 0 if failures == 0 else 2


def main(argv: list[str] | None = None) -> int:
    args = list(sys.argv[1:]) if argv is None else list(argv)
    if not args:
        sys.stderr.write(USAGE)
        return 1
    command, rest = args[0], args[1:]
    handlers = {
        "evolve": _cmd_evolve,
        "mprofile": _cmd_mprofile,
        "sweep": _cmd_sweep,
        "scenario": _cmd_scenario,
        "verify": _cmd_verify,
    }
    handler = handlers.get(command)
    if handler is None:
        sys.stderr.write(f"unknown command {command!r}\n{USAGE}")
        return 1
    try:
        return handler(rest)
    except (ConfigError, ValueError, OSError) as err:
        sys.stderr.write(f"error: {err}\n")
        return 1
    except SimulationAbort as err:
        sys.stderr.write(f"runtime abort: {err}\n")
        return 2


def entry() -> None:
    raise SystemExit(main())
