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
import tempfile
import warnings
from dataclasses import astuple, fields, replace

import numpy as np

from .config import SCENARIO_A, ConfigError, RunConfig, parse_config, serialize_config
from .spectral import (
    ComplexField,
    SPACE,
    SimulationAbort,
    forward_ft,
    free_propagate,
    gaussian_profile,
    inverse_ft,
    l2_norm,
    make_grid,
)
from .dynamics import (
    TrajectoryRecorder,
    count_steps,
    evolve,
    make_schedule,
    mass,
    nonlinear_substep,
    strang_step,
)
from .scattering import classify, m_endpoint, modified_amplitudes, rho
from .experiments import (
    OrderFit,
    SweepRecord,
    _run_inputs,
    fit_order,
    initial_state,
    run_case,
    run_sweep,
    corollary_scenarios,
)
from .tables import block_formatter, open_table, read_table, write_table

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


# ---------------------------------------------------------------------------
# verify: self-contained checks on small grids, no files, seconds not minutes.


def _verify_checks():
    rng = np.random.default_rng(20240817)
    grid = make_grid(512, 64.0)

    def random_field():
        vals = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
        return ComplexField(grid, vals, SPACE)

    def check_transform_round_trip():
        f = random_field()
        back = inverse_ft(forward_ft(f))
        err = np.max(np.abs(back.values - f.values))
        ok = err < 1e-12 and abs(l2_norm(forward_ft(f)) - l2_norm(f)) < 1e-12 * l2_norm(f)
        return ok, f"round-trip error {err:.2e}"

    def check_transform_gaussian():
        f = gaussian_profile(grid, 1.0, 1.0, 0.0, 0.0)
        fhat = forward_ft(f)
        expected = np.exp(-0.5 * grid.frequencies**2)
        err = np.max(np.abs(fhat.values - expected))
        return err < 1e-10, f"gaussian transform error {err:.2e}"

    def check_transform_shift():
        f = gaussian_profile(grid, 1.0, 1.0, 0.0, 0.0)
        shifted = gaussian_profile(grid, 1.0, 1.0, 3.0, 0.0)
        lhs = forward_ft(shifted).values
        rhs = np.exp(-3j * grid.frequencies) * forward_ft(f).values
        err = np.max(np.abs(lhs - rhs))
        return err < 1e-10, f"shift identity error {err:.2e}"

    def check_propagator():
        f = random_field()
        norm0 = l2_norm(f)
        once = free_propagate(free_propagate(f, 0.7), 1.3)
        direct = free_propagate(f, 2.0)
        group = np.max(np.abs(once.values - direct.values))
        norm_err = abs(l2_norm(direct) - norm0)
        ok = group < 1e-11 * norm0 and norm_err < 1e-12 * norm0
        return ok, f"group error {group:.2e}, norm drift {norm_err:.2e}"

    def check_substep():
        u1, u2 = nonlinear_substep(1.0 + 0j, 1.0 + 0j, 0.5)
        ok1 = abs(abs(u1) ** 2 - 0.5) < 1e-14 and abs(abs(u2) ** 2 - 0.5) < 1e-14
        u1b, u2b = nonlinear_substep(np.sqrt(2.0) + 0j, 1.0 + 0j, 50.0)
        ok2 = abs(abs(u1b) ** 2 - 1.0) < 1e-12 and abs(u2b) ** 2 < 1e-12
        v1 = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        v2 = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        w1, w2 = nonlinear_substep(v1, v2, 0.3)
        cons = np.max(np.abs((np.abs(w1) ** 2 - np.abs(w2) ** 2) - (np.abs(v1) ** 2 - np.abs(v2) ** 2)))
        return ok1 and ok2 and cons < 1e-12, f"difference drift {cons:.2e}"

    def check_strang_decoupled():
        psi1 = gaussian_profile(grid, 1.0, 1.0, 0.0, 0.0)
        state = initial_state(grid, psi1, ComplexField(grid, np.zeros(grid.n, complex), SPACE), 0.1)
        for _ in range(20):
            state = strang_step(state, 0.01)
        exact = free_propagate(ComplexField(grid, 0.1 * psi1.values, SPACE), 0.2)
        err = np.max(np.abs(state.u1.values - exact.values))
        zero2 = np.max(np.abs(state.u2.values))
        return err < 1e-10 and zero2 == 0.0, f"free-case error {err:.2e}"

    def check_strang_symmetric_bitwise():
        psi = gaussian_profile(grid, 1.0, 1.5, 0.5, 0.3)
        state = initial_state(grid, psi, psi, 0.2)
        for _ in range(10):
            state = strang_step(state, 0.01)
        same = np.array_equal(state.u1.values, state.u2.values)
        return same, "components stayed bitwise equal" if same else "components diverged"

    def check_mass_ledger():
        psi1 = gaussian_profile(grid, 1.0, 1.0, 0.0, 0.0)
        psi2 = gaussian_profile(grid, 0.5, 1.0, 0.0, 0.0)
        sched = make_schedule(dt=0.01, t_final=10.0, grow_after=np.inf)
        rec = TrajectoryRecorder(with_j_norm=False)
        evolve(initial_state(grid, psi1, psi2, 0.2), sched, rec)
        data = rec.as_array()
        t = data[:, 0]
        total = data[:, 1] + data[:, 2]
        diss = data[:, rec.header.index("dissipation_rate")]
        ledger = total[-1] + np.trapezoid(diss, t) - total[0]
        rel = abs(ledger) / total[0]
        return rel < 1e-4, f"ledger closure {rel:.2e} (want < 1e-4)"

    def check_rho_identity():
        psi1 = gaussian_profile(grid, 1.0, 1.0, 0.0, 0.0)
        psi2 = gaussian_profile(grid, 0.5, 1.0, 0.0, 0.0)
        h = 0.04
        sched = make_schedule(dt=0.01, t_final=4.0 + h, grow_after=np.inf, extra_times=(4.0 - h, 4.0))
        snaps = evolve(initial_state(grid, psi1, psi2, 0.2), sched)
        by_t = {round(s.t, 6): s for s in snaps}
        sm, s0, sp = by_t[round(4.0 - h, 6)], by_t[4.0], by_t[round(4.0 + h, 6)]

        def diff(s):
            return m_endpoint(modified_amplitudes(s)).m_values

        fd = (diff(sp) - diff(sm)) / (2 * h)
        r = rho(s0)
        rel = np.max(np.abs(fd - r)) / np.max(np.abs(r))
        psym = evolve(initial_state(grid, psi1, psi1, 0.2), make_schedule(dt=0.01, t_final=2.0, grow_after=np.inf))[-1]
        sym_zero = np.max(np.abs(rho(psym)))
        return rel < 1e-3 and sym_zero == 0.0, f"identity mismatch {rel:.2e}, symmetric rho {sym_zero:.1e}"

    def check_m_routes():
        # Scenario A on a box holding its spread to T = 50; any warning fails the check
        cfg = replace(SCENARIO_A, grid_n=2048, grid_length=512.0, t_final=50.0)
        eps = cfg.epsilon_single()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            gap = run_case(cfg).record.c_quad
        return gap < 1e-2 * eps**2, f"cross-route gap {gap:.2e} (want < {1e-2 * eps**2:.1e})"

    def check_m_decoupled():
        psi1 = gaussian_profile(grid, 1.0, 1.0, 0.0, 0.0)
        eps = 0.1
        sched = make_schedule(dt=0.01, t_final=20.0)
        snaps = evolve(
            initial_state(grid, psi1, ComplexField(grid, np.zeros(grid.n, complex), SPACE), eps),
            sched,
        )
        m_end = m_endpoint(modified_amplitudes(snaps[-1]))
        expected = eps**2 * np.abs(forward_ft(psi1).values) ** 2
        err = np.max(np.abs(m_end.m_values - expected))
        tags = classify(m_end, eps**2 * 1e-3)
        tags_ok = np.all((tags == 1) == (np.abs(forward_ft(psi1).values) ** 2 > 1e-3))
        return err < 1e-10 and tags_ok, f"decoupled profile error {err:.2e}"

    def check_config_tables():
        cfg = parse_config("grid.n = 64\ngrid.length = 32\nepsilon = 0.1, 0.2\n")
        ok_cfg = parse_config(serialize_config(cfg)) == cfg
        vals = rng.standard_normal(40).reshape(10, 4)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "t.tsv")
            write_table(path, ["a", "b", "c", "d"], vals)
            header, back = read_table(path)
        ok_tab = header == ["a", "b", "c", "d"] and np.array_equal(back, vals)
        return ok_cfg and ok_tab, "config and table round trips"

    def check_order_fit():
        eps = np.array([0.05, 0.1, 0.2, 0.4])
        fit = fit_order(eps, eps**3)
        ok = abs(fit.slope - 3.0) < 1e-9 and abs(fit.intercept) < 1e-9
        fit2 = fit_order(eps, 5 * eps**4)
        ok2 = abs(fit2.slope - 4.0) < 1e-9 and abs(fit2.intercept - np.log(5)) < 1e-9
        return ok and ok2, f"power-law slopes {fit.slope:.6f}, {fit2.slope:.6f}"

    return [
        ("transform_round_trip", check_transform_round_trip),
        ("transform_gaussian_closed_form", check_transform_gaussian),
        ("transform_shift_identity", check_transform_shift),
        ("free_propagator_group_and_norm", check_propagator),
        ("nonlinear_substep_exactness", check_substep),
        ("strang_decoupled_free_case", check_strang_decoupled),
        ("strang_symmetric_bitwise", check_strang_symmetric_bitwise),
        ("mass_dissipation_ledger", check_mass_ledger),
        ("rho_time_derivative_identity", check_rho_identity),
        ("m_route_agreement", check_m_routes),
        ("m_decoupled_exact", check_m_decoupled),
        ("config_and_table_round_trip", check_config_tables),
        ("order_fit_power_laws", check_order_fit),
    ]


def _cmd_verify(args: list[str]) -> int:
    if args:
        raise ConfigError("verify takes no arguments")
    failures = 0
    for name, check in _verify_checks():
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
