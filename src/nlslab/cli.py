"""Command-line surface: evolve / mprofile / sweep / scenario / verify.

Exit codes: 0 success, 1 validation error (bad usage, unreadable or invalid
configuration, a table that cannot be written), 2 runtime abort (non-finite
samples, mass growth, or a failed self-check in `verify`).

`evolve` opens `snapshots.tsv` before the run and writes its blocks after
it.  With a second core and `fork`, it forks one helper process before the
run and sends it one stream of states as raw bytes.  When `observers.tsv`
is wanted, the stream starts with every observer state, sent while the run
goes on, and the helper runs the trajectory recorder on each; its rows
come back after the run and this process writes the table.  When
`snapshots.tsv` is wanted, the stream ends with every other snapshot, sent
after the run; the helper formats their blocks while this process formats
the rest and writes them all in order.  On one core, without `fork`, or
where the cores cannot be counted, this process records and formats
everything.  Every table is opened through `tables.open_table`, so an
abort or a failed write removes it.
"""

from __future__ import annotations

import contextlib
import os
import sys
import warnings
from dataclasses import astuple, fields

import numpy as np

from .config import ConfigError, RunConfig, parse_config
from .spectral import SPACE, SimulationAbort, _field_pair
from .dynamics import SystemState, TrajectoryRecorder, count_steps, evolve, mass, nonlinear_substep  # last: read by perfbench tests
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
    """The `fork` context for `evolve`'s helper process, or None on one core or without fork.

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


def _send_state(fd: int, state) -> None:
    """Write one state to the helper's stream: t as a complex128, then u1 and u2."""
    message = (np.complex128(state.t), state.u1.values, state.u2.values)
    sent = os.writev(fd, message)
    rest = memoryview(b"".join(message))[sent:] if sent < 16 * (1 + 2 * state.grid.n) else b""
    while rest:  # a write cut short, as by a signal
        rest = rest[os.write(fd, rest) :]


def _read_state(fd: int, view: memoryview) -> bool:
    """Fill `view` with the next state from the stream; False once the stream has ended."""
    got = 0
    while got < len(view):
        n = os.readv(fd, [view[got:]])
        if n == 0:
            return False
        got += n
    return True


def _serve(fd, parent_end, conn, grid, recorder, count, format_block) -> None:
    """The forked helper: record the stream's first `count` states, report, then send the rest's blocks.

    State k < `count` of the stream is evolve's k-th observer state; the
    states after them are the snapshots to format.  A recorder abort is
    worded as evolve words an observer's, and the states still to record
    are read and dropped.  The report is the recorder's rows, the warnings
    it raised and the abort message, if any.
    """
    os.close(parent_end)  # the stream ends when this process's copy is closed too
    buf = np.empty(1 + 2 * grid.n, dtype=np.complex128)
    view = memoryview(buf).cast("B")
    kept, abort, k = [], None, 0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        while _read_state(fd, view):
            t = float(buf[0].real)
            pair = buf[1:].reshape(2, grid.n)
            if k >= count:
                kept.append(SystemState(t, *_field_pair(grid, pair.copy(), SPACE)))
            elif abort is None:
                try:
                    recorder(SystemState(t, *_field_pair(grid, pair, SPACE)))
                except SimulationAbort as err:
                    abort = f"{err} at step {k}, t = {t}" if k else str(err)
            k += 1
    conn.send((recorder.rows if recorder is not None else None, [w.message for w in caught], abort))
    if abort is None:
        for state in kept:
            conn.send_bytes(_snapshot_block(format_block, state).encode())


class _Helper:
    """The one forked helper of an `nlslab evolve` run, started before the run.

    The helper reads one stream of states, sent through a raw pipe.  With a
    recorder, `observe` is the run's observer: it sends each of the run's
    `count_steps(schedule) + 1` observer states, and the helper runs the
    recorder on them.  `finish` then sends the snapshots whose blocks the
    helper formats, ends the stream and returns the recorder's rows; it
    re-emits the recorder's warnings here and raises its `SimulationAbort`.
    `block` then receives each sent snapshot's block text, in order, while
    this process formats the others.

    The helper never touches a table.  It is forked after `snapshots.tsv`'s
    header is flushed and before any block is written, so it holds no
    buffered part of the table, and it ends through multiprocessing's
    `os._exit`, so it never unwinds the caller's `open_table` block.  An
    exception that leaves the `with` block kills it.  A helper that dies is
    an OSError, naming `table` where no open table names it already.
    """

    def __init__(self, ctx, schedule, grid, recorder, format_block, table):
        self._table = table
        count = count_steps(schedule) + 1 if recorder is not None else 0
        read_end, self._fd = os.pipe()
        self._conn, sender = ctx.Pipe(duplex=False)
        try:
            with contextlib.suppress(ImportError, AttributeError, OSError):
                import fcntl  # a 1 MiB pipe holds several states, so a send rarely waits

                fcntl.fcntl(self._fd, fcntl.F_SETPIPE_SZ, 1 << 20)
            args = (read_end, self._fd, sender, grid, recorder, count, format_block)
            self._proc = ctx.Process(target=_serve, args=args, daemon=True)
            with warnings.catch_warnings():
                # Python 3.12+ warns on any fork of a process with threads
                # (numpy's OpenBLAS pool); the helper calls no threaded code,
                # so no lock of those threads is used
                warnings.filterwarnings("ignore", r"This process .* is multi-threaded", DeprecationWarning)
                self._proc.start()
        except BaseException:
            os.close(self._fd)
            self._conn.close()
            raise
        finally:
            os.close(read_end)
            sender.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._fd is not None:
            os.close(self._fd)
        self._conn.close()
        if exc_type is not None:
            self._proc.kill()
        self._proc.join()

    def _died(self) -> OSError:
        self._proc.join()
        err = f"helper process exited with code {self._proc.exitcode}"
        return OSError(err if self._table is None else f"cannot write table {self._table!r}: {err}")

    def observe(self, state) -> None:
        try:
            _send_state(self._fd, state)
        except BrokenPipeError:
            raise self._died() from None

    def finish(self, to_format):
        """Send the snapshots `to_format`, end the stream and return the recorder's rows (None without one)."""
        for state in to_format:
            self.observe(state)
        os.close(self._fd)
        self._fd = None
        try:
            rows, caught, abort = self._conn.recv()
        except EOFError:
            raise self._died() from None
        for message in caught:
            warnings.warn(message, stacklevel=2)
        if abort is not None:
            raise SimulationAbort(abort)
        return rows

    def block(self) -> str:
        """The next sent snapshot's block text."""
        try:
            return self._conn.recv_bytes().decode()
        except EOFError:
            raise self._died() from None


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
        helped = recorder is not None or (format_block is not None and len(schedule.snapshot_steps) >= 2)
        ctx = _fork_context() if helped else None
        if ctx is None:
            helper = None
            snapshots = evolve(state0, schedule, recorder)
            rows = recorder.rows if recorder is not None else None
        else:
            helper = stack.enter_context(
                _Helper(ctx, schedule, state0.grid, recorder, format_block, None if format_block else observers)
            )
            snapshots = evolve(state0, schedule, helper.observe if recorder is not None else None)
            rows = helper.finish(snapshots[1::2] if format_block is not None else ())
        if format_block is not None:  # the helper, if any, formats the odd blocks
            for i, state in enumerate(snapshots):
                fh.write(helper.block() if i % 2 and helper is not None else _snapshot_block(format_block, state))
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
