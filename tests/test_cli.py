import functools
import multiprocessing
import os
import subprocess
import sys
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from nlslab import (
    RegimeWarning,
    SimulationAbort,
    TrajectoryRecorder,
    build_profile,
    evolve,
    initial_state,
    make_grid,
    make_schedule,
    parse_config,
)
import nlslab.checks
import nlslab.cli
import nlslab.forking
from conftest import assert_helpers_end, pin_writer
from nlslab.cli import main
from nlslab.tables import block_formatter, read_table, write_table

TINY = """\
grid.n = 64
grid.length = 32
time.dt = 0.01
time.t_final = 5
epsilon = 0.1
outputs.directory = {out}
"""

SWEEPABLE = """\
grid.n = 64
grid.length = 32
time.dt = 0.01
time.t_final = 10
epsilon = 0.05, 0.1, 0.2, 0.4
outputs.directory = {out}
"""


# finite samples whose masses overflow: evolve aborts at step 0
MASS_OVERFLOW = TINY + "data.psi1 = gaussian(1e160, 1, 0, 0)\ndata.psi2 = gaussian(1e160, 1, 0, 0)\n"


def write_cfg(tmp_path, text, name="run.cfg"):
    out = tmp_path / "out"
    path = tmp_path / name
    path.write_text(text.format(out=out))
    return str(path), str(out)


@pytest.fixture(params=["forked", "in-process"])
def writer(request, monkeypatch):
    pin_writer(monkeypatch, request.param)
    return request.param


def _evolve_tables(cfg, out):
    """`nlslab evolve`'s exit code and every table it wrote, by name."""
    code = main(["evolve", cfg])
    return code, {name: open(os.path.join(out, name), "rb").read() for name in sorted(os.listdir(out))}


def _package_env():
    """This process's environment with this package's directory first on PYTHONPATH, for a child interpreter."""
    src = os.path.dirname(os.path.dirname(nlslab.cli.__file__))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


# The recorders and formatters below replace evolve's through `nlslab.cli`;
# a helper is sent them pickled, so they live at module scope.


def _log_pid(log, kind):
    with open(log, "a") as fh:
        fh.write(f"{kind} {os.getpid()}\n")


class _LoggingFormatter:
    """A block formatter that logs the pid of each process it formats a block in."""

    def __init__(self, x, log):
        self.format_block, self.log = block_formatter(x), log

    def __call__(self, t, values):
        _log_pid(self.log, "format")
        return self.format_block(t, values)


class _ElsewhereFailingFormatter:
    """A block formatter that fails in any process but `here`."""

    def __init__(self, x, here):
        self.format_block, self.here = block_formatter(x), here

    def __call__(self, t, values):
        if os.getpid() != self.here:
            raise RuntimeError("injected")
        return self.format_block(t, values)


class _LoggingRecorder(TrajectoryRecorder):
    """A recorder that logs the pid of each process it records a state in."""

    def __init__(self, with_j_norm=True, log=None):
        super().__init__(with_j_norm)
        self.log = log

    def __call__(self, state):
        _log_pid(self.log, "record")
        super().__call__(state)


class _AbortingRecorder(TrajectoryRecorder):
    """A recorder that aborts from `abort_t` on, naming where it aborts if it is told `here`."""

    def __init__(self, with_j_norm=True, abort_t=4.5, here=None):
        super().__init__(with_j_norm)
        self.abort_t, self.here = abort_t, here

    def __call__(self, state):
        if state.t >= self.abort_t:
            where = "" if self.here is None else f" in {'this process' if os.getpid() == self.here else 'the helper'}"
            raise SimulationAbort(f"injected{where}")
        super().__call__(state)


class _DyingRecorder(TrajectoryRecorder):
    """A recorder whose process exits with code 3 past t = 3, unless it is `here`."""

    def __init__(self, with_j_norm=True, here=None):
        super().__init__(with_j_norm)
        self.here = here

    def __call__(self, state):
        if os.getpid() != self.here and state.t > 3.0:
            os._exit(3)
        super().__call__(state)


class _UncalledRecorder(TrajectoryRecorder):
    def __call__(self, state):
        raise AssertionError("the recorder ran with no observers.tsv to write")


class TestDispatch:
    def test_no_arguments_is_usage_error(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_command_prints_usage(self, capsys):
        assert main(["frobnicate"]) == 1
        err = capsys.readouterr().err
        assert "unknown command" in err and "usage" in err

    def test_missing_config_is_validation_error(self, capsys):
        assert main(["evolve", "no_such_file.cfg"]) == 1
        assert "cannot read config" in capsys.readouterr().err

    def test_invalid_config_reports_line(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("grid.n = 17\n")
        assert main(["evolve", str(path)]) == 1
        assert "line 1" in capsys.readouterr().err

    def test_runtime_abort_exit_code(self, tmp_path, capsys):
        # amplitude overflow produces non-finite samples: exit 2, not 1
        cfg, _ = write_cfg(
            tmp_path,
            "grid.n = 64\ngrid.length = 32\ntime.t_final = 5\n"
            "data.psi1 = gaussian(1e300, 1, 0, 0)\nepsilon = 1e300\n"
            "outputs.directory = {out}\n",
        )
        assert main(["evolve", cfg]) == 2
        assert "runtime abort" in capsys.readouterr().err

    def test_import_loads_neither_multiprocessing_nor_checks(self):
        # both are imported where they are used: the forked helpers and
        # `verify`; every command, and every importer, would pay for them
        code = "import sys, nlslab.cli; print(sorted({'multiprocessing', 'nlslab.checks'} & set(sys.modules)))"
        done = subprocess.run([sys.executable, "-c", code], env=_package_env(), capture_output=True, text=True, check=True)
        assert done.stdout == "[]\n"

    @pytest.mark.parametrize(
        "args, message",
        [
            (["evolve"], "evolve takes exactly one argument: the config path"),
            (["mprofile", "a.cfg", "b.cfg"], "mprofile takes exactly one argument: the config path"),
            (["sweep"], "sweep takes exactly one argument: the config path"),
            (["scenario"], "scenario takes a scenario name and an optional config path"),
            (["scenario", "B", "a.cfg", "b.cfg"], "scenario takes a scenario name and an optional config path"),
        ],
        ids=["evolve", "mprofile", "sweep", "scenario-bare", "scenario-three"],
    )
    def test_wrong_argument_count_is_validation_error(self, capsys, args, message):
        assert main(args) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_module_entry_without_arguments_prints_usage(self):
        # `python -m nlslab` runs `__main__` and `cli.entry`, which exits with main's code
        done = subprocess.run([sys.executable, "-m", "nlslab"], env=_package_env(), capture_output=True, text=True)
        assert (done.returncode, done.stdout, done.stderr) == (1, "", nlslab.cli.USAGE)


class TestEvolveCommand:
    def test_writes_tables(self, tmp_path, capsys):
        cfg, out = write_cfg(tmp_path, TINY)
        assert main(["evolve", cfg]) == 0
        header, rows = read_table(os.path.join(out, "observers.tsv"))
        assert header == ["t", "mass1", "mass2", "sup_norm", "j_norm1", "j_norm2", "dissipation_rate"]
        assert rows[0, 0] == 0.0 and rows[-1, 0] == pytest.approx(5.0)
        header2, rows2 = read_table(os.path.join(out, "snapshots.tsv"))
        assert header2 == ["t", "x", "re_u1", "im_u1", "re_u2", "im_u2"]
        assert rows2.shape[0] % 64 == 0

    def test_snapshots_table_matches_per_element_writer(self, tmp_path, capsys):
        # reference: the per-element row loop the block-per-snapshot writer replaced
        cfg, out = write_cfg(tmp_path, TINY)
        assert main(["evolve", cfg]) == 0
        run = parse_config(TINY.format(out=out))
        grid = make_grid(run.grid_n, run.grid_length)
        sched = make_schedule(run.dt, run.t_final, run.snapshot_ratio, run.grow_after, run.growth_cap)
        state0 = initial_state(
            grid, build_profile(grid, run.psi1), build_profile(grid, run.psi2), run.epsilon_single()
        )
        rows = []
        for s in evolve(state0, sched, lambda state: None):  # the CLI's observer path
            for k in range(grid.n):
                rows.append(
                    (
                        s.t,
                        grid.points[k],
                        s.u1.values[k].real,
                        s.u1.values[k].imag,
                        s.u2.values[k].real,
                        s.u2.values[k].imag,
                    )
                )
        expected = tmp_path / "expected.tsv"
        write_table(str(expected), ["t", "x", "re_u1", "im_u1", "re_u2", "im_u2"], rows)
        with open(os.path.join(out, "snapshots.tsv"), "rb") as fh:
            assert fh.read() == expected.read_bytes()

    def test_snapshot_table_memory_does_not_grow_with_the_snapshot_count(self, tmp_path, capsys, writer):
        # beyond the snapshots evolve returns (32 n bytes each), writing
        # snapshots.tsv holds one snapshot block at a time, however many;
        # tracemalloc sees this process only, so the in-process writer is
        # the case that measures the formatter
        n = 1024

        def excess_pair_fields(ratio):
            run_dir = tmp_path / f"ratio-{ratio}"
            run_dir.mkdir()
            text = f"grid.n = {n}\ngrid.length = 256\ntime.t_final = 50\ntime.snapshot_ratio = {ratio!r}\n"
            cfg, _ = write_cfg(run_dir, text + "outputs.directory = {out}\n")
            run = parse_config(text)
            count = len(make_schedule(run.dt, run.t_final, run.snapshot_ratio, run.grow_after, run.growth_cap).times)
            tracemalloc.start()
            try:
                assert main(["evolve", cfg]) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return count, (peak - 32 * n * count) / (32 * n)

        assert main(["evolve", write_cfg(tmp_path, TINY)[0]]) == 0  # one-time allocations, untraced
        few, sparse = excess_pair_fields(2**0.25)
        many, dense = excess_pair_fields(1.02)
        assert (few, many) == (21, 165)
        # a whole-run copy of the table's columns adds about 3 pair-fields per
        # snapshot (436 from 21 to 165 snapshots); one block at a time adds < 1
        assert dense - sparse < 8.0, (sparse, dense)

    def test_forked_writer_matches_the_in_process_one(self, tmp_path, monkeypatch, capsys):
        pid_log = tmp_path / "pids"
        monkeypatch.setattr(nlslab.cli, "block_formatter", functools.partial(_LoggingFormatter, log=pid_log))
        monkeypatch.setattr(nlslab.cli, "TrajectoryRecorder", functools.partial(_LoggingRecorder, log=pid_log))
        here = str(os.getpid())
        # TINY's 5 has eight snapshots; 0.01 has two, so one odd block; 0 has one, so none
        for tables in ("observers, snapshots", "snapshots", "observers"):
            for t_final in ("5", "0.01", "0"):
                text = TINY.replace("time.t_final = 5", f"time.t_final = {t_final}") + f"outputs.tables = {tables}\n"
                outputs, pids = {}, {}
                for writer in ("forked", "in-process", "no-affinity"):
                    with monkeypatch.context() as pinned:
                        pin_writer(pinned, writer)
                        run_dir = tmp_path / tables.replace(", ", "+") / t_final / writer
                        run_dir.mkdir(parents=True)
                        cfg, out = write_cfg(run_dir, text)
                        assert main(["evolve", cfg]) == 0
                    assert_helpers_end()
                    stdout = capsys.readouterr().out.replace(out, "<out>")
                    outputs[writer] = stdout, {p.name: p.read_bytes() for p in (run_dir / "out").iterdir()}
                    logged = [line.split() for line in pid_log.read_text().splitlines()] if pid_log.exists() else []
                    pids[writer] = {kind: {pid for k, pid in logged if k == kind} for kind in ("format", "record")}
                    pid_log.unlink(missing_ok=True)
                case = (tables, t_final)
                assert outputs["forked"] == outputs["in-process"] == outputs["no-affinity"], case
                assert sorted(outputs["forked"][1]) == sorted(f"{name.strip()}.tsv" for name in tables.split(",")), case
                snapshots, observers = "snapshots" in tables, "observers" in tables
                here_only = {"format": {here} if snapshots else set(), "record": {here} if observers else set()}
                assert pids["in-process"] == pids["no-affinity"] == here_only, case
                # the forked path records in one child, which also formats the odd
                # blocks; with snapshots alone it records nothing, and with
                # observers alone it formats nothing
                (child,) = (pids["forked"]["format"] | pids["forked"]["record"]) - {here} or {None}
                odd_block = t_final != "0"
                assert pids["forked"] == {
                    "format": ({here, child} if odd_block else {here}) if snapshots else set(),
                    "record": {child} if observers else set(),
                }, case

    def test_forking_the_writer_warns_of_nothing(self, tmp_path, monkeypatch, capsys, no_helper):
        # Python 3.12+ warns on every fork of a process with threads, such
        # as numpy's OpenBLAS pool; here every version's fork warns so
        real_fork = os.fork

        def fork_warning_of_threads():
            warnings.warn(
                f"This process (pid={os.getpid()}) is multi-threaded, use of fork() may lead to deadlocks in the child.",
                DeprecationWarning,
                stacklevel=2,
            )
            return real_fork()

        monkeypatch.setattr(os, "fork", fork_warning_of_threads)
        pin_writer(monkeypatch, "forked")
        cfg, out = write_cfg(tmp_path, TINY)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["evolve", cfg]) == 0
        assert_helpers_end()
        assert os.path.getsize(os.path.join(out, "snapshots.tsv")) > 0

    def test_snapshot_blocks_are_the_schedule_times(self, tmp_path, capsys, writer):
        cfg, out = write_cfg(tmp_path, TINY)
        assert main(["evolve", cfg]) == 0
        run = parse_config(TINY.format(out=out))
        sched = make_schedule(run.dt, run.t_final, run.snapshot_ratio, run.grow_after, run.growth_cap)
        _, rows = read_table(os.path.join(out, "snapshots.tsv"))
        blocks = rows.reshape(-1, run.grid_n, 6)
        assert np.all(blocks[:, :, 0] == blocks[:, :1, 0])
        assert blocks[:, 0, 0].tolist() == sched.times.tolist()

    @pytest.mark.parametrize("abort", ["mid-run", "step-0"])
    def test_abort_leaves_no_table_and_no_process(self, tmp_path, monkeypatch, capsys, writer, abort):
        if abort == "mid-run":
            # TINY's snapshots are 0, 2, 2.38, 2.83, 3.36, 4, 4.76 and 5: the
            # run aborts past t = 4.5, after six of them, and no block is written
            monkeypatch.setattr(nlslab.cli, "TrajectoryRecorder", _AbortingRecorder)
        cfg, out = write_cfg(tmp_path, TINY if abort == "mid-run" else MASS_OVERFLOW)
        assert main(["evolve", cfg]) == 2
        err = capsys.readouterr().err
        assert "runtime abort" in err and ("injected at step" if abort == "mid-run" else "at step 0") in err
        assert_helpers_end()
        # the output directory is made before the run, and left empty
        assert os.listdir(out) == []

    def test_one_helper_runs_during_the_run_and_the_same_on_the_next(self, tmp_path, monkeypatch, capsys, writer, no_helper):
        # the helper is forked at the first run and kept for the next
        children = []

        def probing_evolve(state0, schedule, observer=None):
            def probe(state):
                children.append(tuple(p.pid for p in multiprocessing.active_children()))
                observer(state)

            return evolve(state0, schedule, probe)

        monkeypatch.setattr(nlslab.cli, "evolve", probing_evolve)
        for run in ("first", "next"):
            (tmp_path / run).mkdir()
            cfg, out = write_cfg(tmp_path / run, TINY)
            assert main(["evolve", cfg]) == 0
            assert sorted(os.listdir(out)) == ["observers.tsv", "snapshots.tsv"]
        assert len(children) == 2 * 223 and len(set(children)) == 1
        assert len(children[0]) == (1 if writer == "forked" else 0)
        assert_helpers_end()

    @pytest.mark.parametrize("abort_t", [4.5, 0.0])
    def test_recorder_abort_in_the_helper_is_worded_as_evolve_words_it(self, tmp_path, monkeypatch, capsys, abort_t):
        # evolve names the step and time of an observer's abort after step
        # 0; the helper's abort reaches main with the same words
        aborting = functools.partial(_AbortingRecorder, abort_t=abort_t, here=os.getpid())
        monkeypatch.setattr(nlslab.cli, "TrajectoryRecorder", aborting)
        errs = {}
        for writer in ("forked", "in-process"):
            with monkeypatch.context() as pinned:
                pin_writer(pinned, writer)
                run_dir = tmp_path / writer
                run_dir.mkdir()
                cfg, out = write_cfg(run_dir, TINY)
                assert main(["evolve", cfg]) == 2
            assert_helpers_end()
            assert os.listdir(out) == []
            errs[writer] = capsys.readouterr().err
        where = "" if abort_t == 0.0 else " at step 219, t = 4.57"  # TINY's first step past 4.5
        assert errs["forked"] == f"runtime abort: injected in the helper{where}\n"
        assert errs["forked"].replace("the helper", "this process") == errs["in-process"]

    def test_recorder_warning_in_the_helper_is_emitted_here_once(self, tmp_path, monkeypatch, capsys):
        # at eps = 1e100 the dissipation rate |u1|^2 |u2|^2 overflows float64
        big = TINY.replace("epsilon = 0.1", "epsilon = 1e100")
        caught, tables = {}, {}
        for writer in ("forked", "in-process"):
            with monkeypatch.context() as pinned:
                pin_writer(pinned, writer)
                run_dir = tmp_path / writer
                run_dir.mkdir()
                cfg, out = write_cfg(run_dir, big)
                with warnings.catch_warnings(record=True) as seen:
                    warnings.simplefilter("always")
                    assert main(["evolve", cfg]) == 0
            caught[writer] = [(w.category, str(w.message)) for w in seen]
            tables[writer] = (run_dir / "out" / "observers.tsv").read_bytes()
        assert caught["forked"] == caught["in-process"] == [
            (RegimeWarning, "recorder column dissipation_rate overflowed float64 at t = 0.0; recorded as inf")
        ]
        assert tables["forked"] == tables["in-process"]

    @pytest.mark.parametrize("tables, named", [("observers, snapshots", "snapshots.tsv"), ("observers", "observers.tsv")])
    def test_helper_that_dies_is_a_write_error(self, tmp_path, monkeypatch, capsys, tables, named):
        monkeypatch.setattr(nlslab.cli, "TrajectoryRecorder", functools.partial(_DyingRecorder, here=os.getpid()))
        pin_writer(monkeypatch, "forked")
        cfg, out = write_cfg(tmp_path, TINY + f"outputs.tables = {tables}\n")
        assert main(["evolve", cfg]) == 1
        err = capsys.readouterr().err
        assert f"cannot write table {os.path.join(out, named)!r}: helper process exited with code 3" in err, err
        assert_helpers_end()
        assert os.listdir(out) == []

    def test_formatter_failing_in_another_process_is_a_write_error(self, tmp_path, monkeypatch, capsys, writer):
        failing = functools.partial(_ElsewhereFailingFormatter, here=os.getpid())
        monkeypatch.setattr(nlslab.cli, "block_formatter", failing)
        cfg, out = write_cfg(tmp_path, TINY)
        if writer == "in-process":
            # every block is formatted here, so nothing fails
            assert main(["evolve", cfg]) == 0
            assert sorted(os.listdir(out)) == ["observers.tsv", "snapshots.tsv"]
            return
        assert main(["evolve", cfg]) == 1
        err = capsys.readouterr().err
        assert "cannot write table" in err and "exited with code 1" in err
        assert_helpers_end()
        assert os.listdir(out) == []

    def test_unwritable_table_fails_before_the_run(self, tmp_path, monkeypatch, capsys, writer):
        runs = []
        monkeypatch.setattr(nlslab.cli, "evolve", lambda *args: runs.append(args))
        cfg, out = write_cfg(tmp_path, TINY)
        os.makedirs(os.path.join(out, "snapshots.tsv"))
        assert main(["evolve", cfg]) == 1
        assert "cannot write table" in capsys.readouterr().err
        assert runs == []
        assert_helpers_end()

    def test_writer_that_cannot_start_leaves_no_table(self, tmp_path, monkeypatch, capsys, no_helper):
        fork = multiprocessing.get_context("fork")

        class Unstartable(fork.Process):
            def start(self):
                raise OSError("cannot fork")

        monkeypatch.setattr(nlslab.forking, "_fork_context", lambda: SimpleNamespace(Pipe=fork.Pipe, Process=Unstartable))
        cfg, out = write_cfg(tmp_path, TINY)
        assert main(["evolve", cfg]) == 1
        assert "cannot fork" in capsys.readouterr().err
        assert_helpers_end()
        assert os.listdir(out) == []

    def test_evolve_in_a_daemonic_worker_writes_the_in_process_tables(self, tmp_path, monkeypatch, capsys):
        # a daemonic process may have no children: a pool worker that sees
        # two cores runs evolve in-process instead of forking its helper
        pin_writer(monkeypatch, "forked")
        (tmp_path / "worker").mkdir()
        (tmp_path / "here").mkdir()
        with multiprocessing.get_context("fork").Pool(1) as pool:
            in_worker = pool.apply(_evolve_tables, write_cfg(tmp_path / "worker", TINY))
        pin_writer(monkeypatch, "in-process")
        assert in_worker == _evolve_tables(*write_cfg(tmp_path / "here", TINY))
        assert sorted(in_worker[1]) == ["observers.tsv", "snapshots.tsv"]

    def test_failed_block_write_is_a_write_error(self, tmp_path, capsys, writer, full_disk):
        full_disk(nlslab.cli)
        cfg, out = write_cfg(tmp_path, TINY)
        assert main(["evolve", cfg]) == 1
        err = capsys.readouterr().err
        assert "cannot write table" in err and "No space left on device" in err
        assert_helpers_end()
        assert os.listdir(out) == []

    def test_epsilon_list_rejected(self, tmp_path, capsys):
        cfg, _ = write_cfg(tmp_path, SWEEPABLE)
        assert main(["evolve", cfg]) == 1
        assert "single epsilon" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, dt, t_final, reached",
        # with no time.dt line the default 0.02 applies, on whose lattice 5.01 is not
        [("evolve", 0.8, 2, "1.6"), ("mprofile", 0.03, 400, "399.99"), ("evolve", None, 5.01, "5")],
    )
    def test_t_final_off_the_dt_lattice_is_validation_error(self, tmp_path, capsys, command, dt, t_final, reached):
        dt_line = "" if dt is None else f"time.dt = {dt}\n"
        text = TINY.replace("time.dt = 0.01\n", dt_line).replace("time.t_final = 5", f"time.t_final = {t_final}")
        cfg, out = write_cfg(tmp_path, text)
        assert main([command, cfg]) == 1
        assert f"dt = {dt or 0.02} steps; the run would end at t = {reached}\n" in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("dt, t_final", [("1e-320", "5"), ("0.01", "1e308")])
    def test_step_count_overflow_is_validation_error(self, tmp_path, capsys, dt, t_final):
        text = TINY.replace("time.dt = 0.01", f"time.dt = {dt}").replace("time.t_final = 5", f"time.t_final = {t_final}")
        cfg, out = write_cfg(tmp_path, text)
        assert main(["evolve", cfg]) == 1
        assert "overflows the step count" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_table_filter_respected(self, tmp_path):
        cfg, out = write_cfg(tmp_path, TINY + "outputs.tables = observers\n")
        assert main(["evolve", cfg]) == 0
        assert os.path.exists(os.path.join(out, "observers.tsv"))
        assert not os.path.exists(os.path.join(out, "snapshots.tsv"))

    def test_snapshots_alone_run_no_recorder(self, tmp_path, monkeypatch, capsys, writer):
        both, alone = tmp_path / "both", tmp_path / "alone"
        both.mkdir()
        alone.mkdir()
        cfg, _ = write_cfg(both, TINY)
        assert main(["evolve", cfg]) == 0
        monkeypatch.setattr(nlslab.cli, "TrajectoryRecorder", _UncalledRecorder)
        cfg, out = write_cfg(alone, TINY + "outputs.tables = snapshots\n")
        assert main(["evolve", cfg]) == 0
        assert os.listdir(out) == ["snapshots.tsv"]
        assert (alone / "out" / "snapshots.tsv").read_bytes() == (both / "out" / "snapshots.tsv").read_bytes()

    def test_snapshot_ladder_longer_than_the_run_is_validation_error(self, tmp_path, capsys):
        # a ratio this close to 1 once spun make_schedule's ladder loop for ~2e13 rungs
        text = TINY.replace("time.t_final = 5", "time.t_final = 20") + "time.snapshot_ratio = 1.0000000000001\n"
        cfg, out = write_cfg(tmp_path, text)
        assert main(["evolve", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: snapshot ratio 1.0000000000001") and "2000 dt steps" in err
        assert not os.path.exists(out)


class TestMProfileCommand:
    def test_writes_profile_and_classification(self, tmp_path, capsys):
        cfg, out = write_cfg(tmp_path, TINY)
        assert main(["mprofile", cfg]) == 0
        header, rows = read_table(os.path.join(out, "mprofile.tsv"))
        assert header == ["xi", "m_endpoint", "m_integral", "tail_estimate"]
        assert rows.shape == (64, 4)
        header2, rows2 = read_table(os.path.join(out, "classification.tsv"))
        assert header2 == ["xi", "m_endpoint", "tag"]
        assert set(np.unique(rows2[:, 2])) <= {-1.0, 0.0, 1.0}

    def test_analysis_helper_that_dies_exits_1(self, tmp_path, monkeypatch, capsys, no_helper):
        here = os.getpid()
        real_rho_row = nlslab.scattering._rho_row

        def dying_rho_row(grid, t, spec):
            if os.getpid() != here:
                os._exit(3)
            return real_rho_row(grid, t, spec)

        monkeypatch.setattr(nlslab.scattering, "_rho_row", dying_rho_row)
        pin_writer(monkeypatch, "forked")
        cfg, out = write_cfg(tmp_path, TINY)
        assert main(["mprofile", cfg]) == 1
        assert capsys.readouterr().err == "error: helper process exited with code 3\n"
        assert_helpers_end()
        assert not os.path.exists(out)  # made only after the run

    def test_failed_profile_write_leaves_no_table(self, tmp_path, capsys, full_disk):
        full_disk(nlslab.tables)
        cfg, out = write_cfg(tmp_path, TINY)
        assert main(["mprofile", cfg]) == 1
        err = capsys.readouterr().err
        assert "cannot write table" in err and "mprofile.tsv" in err and "No space left on device" in err
        assert os.listdir(out) == []


class TestSweepCommand:
    def test_writes_sweep_and_orderfit(self, tmp_path, capsys):
        cfg, out = write_cfg(tmp_path, SWEEPABLE)
        assert main(["sweep", cfg]) == 0
        header, rows = read_table(os.path.join(out, "sweep.tsv"))
        assert header[0] == "epsilon"
        assert rows.shape[0] == 4
        header2, rows2 = read_table(os.path.join(out, "orderfit.tsv"))
        assert header2 == ["quantity", "slope", "intercept", "residual", "n_points"]
        assert rows2.shape == (3, 5)
        # lemma slopes land near cubic even on this tiny grid
        assert 2.0 < rows2[0, 1] < 4.0


    def test_tables_match_hand_listed_rows(self, tmp_path, monkeypatch, capsys):
        # reference: the column lists and per-value formatting the tables
        # had before they were derived from SweepRecord and OrderFit
        results = []
        run_sweep = nlslab.cli.run_sweep

        def capturing_run_sweep(cfg):
            results.append(run_sweep(cfg))
            return results[-1]

        monkeypatch.setattr(nlslab.cli, "run_sweep", capturing_run_sweep)
        cfg, out = write_cfg(tmp_path, SWEEPABLE)
        assert main(["sweep", cfg]) == 0
        (result,) = results

        def text(header, rows):
            lines = ["# " + "\t".join(header)]
            lines += ["\t".join(format(float(v), ".17g") for v in row) for row in rows]
            return "\n".join(lines) + "\n"

        sweep = text(
            [
                "epsilon",
                "lemma_defect1",
                "lemma_defect2",
                "theorem_defect",
                "tail_estimate",
                "c_quad",
                "threshold",
                "mass1_final",
                "mass2_final",
                "step_count",
            ],
            [
                (
                    r.epsilon,
                    r.lemma_defect1,
                    r.lemma_defect2,
                    r.theorem_defect,
                    r.tail_estimate,
                    r.c_quad,
                    r.threshold,
                    r.mass1_final,
                    r.mass2_final,
                    float(r.step_count),
                )
                for r in result.records
            ],
        )
        orderfit = text(
            ["quantity", "slope", "intercept", "residual", "n_points"],
            [
                (float(i), fit.slope, fit.intercept, fit.residual, float(fit.n_points))
                for i, fit in enumerate(
                    (result.lemma_fit1, result.lemma_fit2, result.theorem_fit), start=1
                )
            ],
        )
        with open(os.path.join(out, "sweep.tsv"), encoding="utf-8") as fh:
            assert fh.read() == sweep
        with open(os.path.join(out, "orderfit.tsv"), encoding="utf-8") as fh:
            assert fh.read() == orderfit

    def test_bad_ladder_is_validation_error_before_any_case(self, tmp_path, monkeypatch, capsys):
        calls = []
        run_case = nlslab.experiments.run_case

        def counting_run_case(*args, **kwargs):
            calls.append(args)
            return run_case(*args, **kwargs)

        monkeypatch.setattr(nlslab.experiments, "run_case", counting_run_case)
        cfg, out = write_cfg(tmp_path, SWEEPABLE.replace("0.05, 0.1, 0.2, 0.4", "0.1, 0.2, 0.4"))
        assert main(["sweep", cfg]) == 1
        assert "at least 4 distinct epsilon values" in capsys.readouterr().err
        assert calls == [] and not os.path.exists(out)


class TestScenarioCommand:
    def test_symmetric_scenario_with_small_override(self, tmp_path, capsys):
        cfg, out = write_cfg(tmp_path, TINY)
        assert main(["scenario", "symmetric", cfg]) == 0
        printed = capsys.readouterr().out
        assert "both-vanish" in printed
        header, rows = read_table(os.path.join(out, "scenario_symmetric_monitor.tsv"))
        assert header == ["t", "mass1", "mass2", "alpha2_norm", "orth_defect"]
        assert np.array_equal(rows[:, 1], rows[:, 2])  # symmetric masses identical

    def test_unknown_scenario(self, tmp_path, capsys):
        assert main(["scenario", "Z"]) == 1


class TestDeterminism:
    def test_tables_are_bitwise_reproducible(self, tmp_path, monkeypatch, capsys):
        # every table of mprofile, sweep and scenario B, written twice, and
        # once more with the analysis in this process
        def tables(run):
            (tmp_path / run).mkdir()
            single, out = write_cfg(tmp_path / run, TINY, "single.cfg")
            sweep, _ = write_cfg(tmp_path / run, SWEEPABLE, "sweep.cfg")
            for args in (["mprofile", single], ["sweep", sweep], ["scenario", "B", single]):
                assert main(args) == 0
            return {name: open(os.path.join(out, name), "rb").read() for name in sorted(os.listdir(out))}

        pin_writer(monkeypatch, "forked")
        first = tables("first")
        with monkeypatch.context() as pinned:
            # the analysis helper and this process write the same bytes
            pin_writer(pinned, "in-process")
            assert tables("in-process") == first
        assert sorted(first) == [
            "classification.tsv",
            "mprofile.tsv",
            "orderfit.tsv",
            "scenario_B_monitor.tsv",
            "scenario_B_mprofile.tsv",
            "sweep.tsv",
        ]
        assert tables("second") == first


class TestVerifyCommand:
    def test_verify_passes_and_prints_lines(self, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["verify"]) == 0
        assert [str(w.message) for w in caught] == []  # nothing printed between the PASS lines
        out = capsys.readouterr().out
        assert out.count("PASS") >= 12
        assert "FAIL" not in out

    def test_verify_fails_on_a_warning_from_the_m_route_run(self, capsys, monkeypatch):
        def warning_run_case(cfg):
            warnings.warn("tail estimate exceeds the classification threshold", RegimeWarning)
            raise AssertionError("the warning should have stopped the run")

        monkeypatch.setattr(nlslab.checks, "run_case", warning_run_case)
        assert main(["verify"]) == 2
        out = capsys.readouterr().out
        assert "FAIL  criterion_05_cross_method_agreement: raised RegimeWarning: tail estimate exceeds" in out
        assert "1 check(s) failed" in out

    def test_verify_runs_each_shared_criterion_once(self, capsys, monkeypatch):
        shared = {
            "01": "decoupled_exactness",
            "02": "symmetric_pair",
            "03": "mass_ledger",
            "05": "cross_route_agreement",
            "06": "rho_identity",
        }
        calls = []

        def stub(name):
            def check(*args):
                calls.append(name)
                return True, f"stub {name}"

            return check

        for name in shared.values():
            monkeypatch.setattr(nlslab.checks, name, stub(name))
        monkeypatch.setattr(nlslab.checks, "run_case", lambda cfg: None)  # criterion 05's run
        assert main(["verify"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert sorted(calls) == sorted(shared.values())
        for number, name in shared.items():
            mine = [line for line in lines if line.startswith(f"PASS  criterion_{number}_")]
            assert len(mine) == 1 and mine[0].endswith(f": stub {name}"), (number, lines)

    def test_route_agreement_fails_on_an_empty_band(self):
        # c_quad is 0 on an empty band; the criterion must not pass on it
        case = SimpleNamespace(band=np.zeros(8, dtype=bool), record=SimpleNamespace(c_quad=0.0), epsilon=0.1)
        ok, detail = nlslab.checks.cross_route_agreement(case)
        assert not ok and "empty" in detail

    def test_verify_rejects_arguments(self, capsys):
        assert main(["verify", "extra"]) == 1
