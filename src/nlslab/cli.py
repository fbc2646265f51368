"""Command-line surface: evolve / mprofile / sweep / scenario / verify.

Exit codes: 0 success, 1 validation error (bad usage, unreadable or invalid
configuration, a table that cannot be written), 2 runtime abort (non-finite
samples, mass growth, or a failed self-check in `verify`).

`evolve` opens `snapshots.tsv` before the run and writes its blocks after
it.  With a second core and `fork`, one forked child formats every other
block while this process formats the rest and writes them all in order; on
one core, without `fork`, or where the cores cannot be counted, this
process formats every block.  No process runs during the run.  Every table
is opened through `tables.open_table`, so an abort or a failed write
removes it.
"""

from __future__ import annotations

import os
import sys
import warnings
from dataclasses import astuple, fields

import numpy as np

from .config import ConfigError, RunConfig, parse_config
from .spectral import SimulationAbort
from .dynamics import TrajectoryRecorder, count_steps, evolve, mass, nonlinear_substep  # last: read by perfbench tests
from .experiments import OrderFit, SweepRecord, _run_inputs, corollary_scenarios, run_case, run_sweep
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


def _fork_context():
    """The `fork` context for a formatter process, or None on one core or without fork.

    Where the usable cores cannot be counted (no `os.sched_getaffinity`, as
    on macOS and Windows) this counts as one core.
    """
    if not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2:
        return None
    import multiprocessing  # here, not at import, which it would slow

    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    return multiprocessing.get_context("fork")


def _snapshot_block(format_block, state) -> str:
    """The `snapshots.tsv` block of one snapshot: (t, x, re u1, im u1, re u2, im u2) per point."""
    pairs = np.stack([state.u1.values, state.u2.values], axis=1)
    return format_block(state.t, pairs.view(np.float64).ravel())


def _send_blocks(conn, format_block, states) -> None:
    """The forked formatter: send each state's block text, in order."""
    for state in states:
        conn.send_bytes(_snapshot_block(format_block, state).encode())


def _write_snapshot_blocks(fh, snapshots) -> None:
    """Write every snapshot's block to `fh`, in order, from this process.

    With a second core and `fork`, one child formats the odd blocks and
    sends their text through a one-way pipe while this process formats the
    even ones; otherwise this process formats them all.  The child never
    touches the file.  It is forked before any block is written, so it holds
    no buffered part of the table, and it calls no threaded code.  It ends
    through multiprocessing's `os._exit`, so it never unwinds the caller's
    `open_table` block and never removes the table.  On any failure it is
    killed; a child that dies is a write error.
    """
    format_block = block_formatter(snapshots[0].grid.points)
    ctx = _fork_context() if len(snapshots) >= 2 else None
    if ctx is None:
        for state in snapshots:
            fh.write(_snapshot_block(format_block, state))
        return
    receiver, sender = ctx.Pipe(duplex=False)
    with receiver:
        with sender:  # the child holds its own copy
            proc = ctx.Process(target=_send_blocks, args=(sender, format_block, snapshots[1::2]), daemon=True)
            with warnings.catch_warnings():
                # Python 3.12+ warns on any fork of a process with threads
                # (numpy's OpenBLAS pool); the child only formats and sends,
                # so no lock of those threads is used
                warnings.filterwarnings("ignore", r"This process .* is multi-threaded", DeprecationWarning)
                proc.start()
        try:
            for i, state in enumerate(snapshots):
                if i % 2 == 0:
                    fh.write(_snapshot_block(format_block, state))
                    continue
                try:
                    fh.write(receiver.recv_bytes().decode())
                except EOFError:
                    proc.join()
                    raise OSError(f"snapshot formatter process exited with code {proc.exitcode}") from None
        except BaseException:
            proc.kill()
            proc.join()
            raise
        proc.join()


def _cmd_evolve(args: list[str]) -> int:
    if len(args) != 1:
        raise ConfigError("evolve takes exactly one argument: the config path")
    cfg = _load_config(args[0])
    _, schedule, _, _, state0 = _run_inputs(cfg, cfg.epsilon_single())
    # the per-step recorder costs transforms; it runs only for observers.tsv
    recorder = TrajectoryRecorder(with_j_norm=True) if "observers" in cfg.tables else None
    out = _outdir(cfg)
    if "snapshots" not in cfg.tables:
        snapshots = evolve(state0, schedule, recorder)
    else:
        # opened before the run, so an unwritable path fails at once
        with open_table(os.path.join(out, "snapshots.tsv"), ["t", "x", "re_u1", "im_u1", "re_u2", "im_u2"]) as fh:
            snapshots = evolve(state0, schedule, recorder)
            _write_snapshot_blocks(fh, snapshots)
    if "observers" in cfg.tables:
        write_table(os.path.join(out, "observers.tsv"), recorder.header, recorder.rows)
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
        tags = case.tags()
        write_table(
            os.path.join(out, "classification.tsv"),
            ["xi", "m_endpoint", "tag"],
            zip(xi, case.m_end.m_values, tags.astype(np.float64)),
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
        zip(case.grid.frequencies, case.m_end.m_values, case.m_int.m_values, case.m_int.tail_estimate),
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
        zip(case.schedule.times, case.mass1_seq, case.mass2_seq, case.alpha2_norm_seq, case.orth_defect_seq),
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
