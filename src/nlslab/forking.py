"""Side work on a stream of states, in one forked helper process or in this one.

A caller builds a sink: `add(state)` takes each state in turn, and
`result()` returns the sink's result and an iterable of text blocks.
`side` returns a runner of the sink with one interface, forked or not:
`send(state)` for each state, `finish()` for the result, then
`next_block()` for each block.  The rules are `_InProcess`'s, which the
helper runs too: a `SimulationAbort` the sink raises is kept, the states
after it are dropped, and `finish` raises it; an abort the caller raises
during the stream, as in `evolve`, leaves the `with` block first and wins.

`_fork_context` forks with two usable cores and the `fork` start method,
and not from a daemonic process, which may have no children; without
`os.sched_getaffinity` (macOS, Windows) it counts one core.  Otherwise,
and where the caller has no side work worth a process, the sink runs here.

The helper is forked before the run.  Each state reaches it as raw bytes
through a pipe of 1 MiB, which holds several, so a send rarely waits: t as
one complex128, then the (2, n) pair, read into a fresh buffer.  The
helper records every warning, and after the stream sends back the pickled
result, the warnings and the abort's message, then each block.  `finish`
re-emits the warnings here, each once, and raises the abort with its
wording.  A helper that dies is a `ChildProcessError` naming its exit
code, and the table it leaves unwritten where the caller names one.

`multiprocessing` and `fcntl` are imported where they are used, not at
import, which every command and importer would pay for.
"""

from __future__ import annotations

import contextlib
import os
import warnings

import numpy as np

from .spectral import SPACE, SimulationAbort, _field_pair
from .dynamics import SystemState

PIPE_BYTES = 1 << 20


def _fork_context():
    """The `fork` context for a helper process, or None where the caller runs in-process."""
    if not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2:
        return None
    import multiprocessing

    if multiprocessing.current_process().daemon or "fork" not in multiprocessing.get_all_start_methods():
        return None
    return multiprocessing.get_context("fork")


def side(grid, sink, fork: bool = True, table: str | None = None):
    """A runner of `sink`: a forked helper where `fork` is set and `_fork_context` allows, else `_InProcess`."""
    ctx = _fork_context() if fork else None
    return _InProcess(sink) if ctx is None else _StreamHelper(ctx, grid, sink, table)


class _InProcess:
    """A sink run in this process, behind the helper's interface."""

    def __init__(self, sink):
        self._sink, self._abort, self.blocks = sink, None, iter(())

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        pass

    def send(self, state) -> None:
        """Add one state to the sink, unless it has aborted; the abort is kept for `finish`."""
        if self._abort is None:
            try:
                self._sink.add(state)
            except SimulationAbort as err:
                self._abort = err

    def finish(self):
        """The sink's result; the sink's abort, if any, is raised here."""
        if self._abort is not None:
            raise self._abort
        result, blocks = self._sink.result()
        self.blocks = iter(blocks)
        return result

    def next_block(self) -> str:
        """The sink's next text block."""
        return next(self.blocks)


def _send_state(fd: int, state) -> None:
    """Write one state to the stream: t as a complex128, then u1 and u2."""
    message = (np.complex128(state.t), state.u1.values, state.u2.values)
    sent = os.writev(fd, message)
    rest = memoryview(b"".join(message))[sent:] if sent < 16 * (1 + 2 * state.grid.n) else b""
    while rest:  # a write cut short, as by a signal
        rest = rest[os.write(fd, rest) :]


def _read_states(fd: int, grid):
    """Each state of the stream in turn, read into a fresh buffer, as `evolve` hands out fresh arrays."""
    while True:
        buf = np.empty(1 + 2 * grid.n, dtype=np.complex128)
        view, got = memoryview(buf).cast("B"), 0
        while got < len(view):
            n = os.readv(fd, [view[got:]])
            if n == 0:
                return
            got += n
        yield SystemState(float(buf[0].real), *_field_pair(grid, buf[1:].reshape(2, grid.n), SPACE))


def _serve(fd, parent_end, parent_conn, conn, grid, sink) -> None:
    """The helper's body: the stream through `_InProcess(sink)`, then the report and the blocks."""
    # the stream ends when this process's copy of its write end is closed
    # too, and a send fails once the caller is gone only when this process
    # holds no copy of the caller's end of the report pipe
    os.close(parent_end)
    parent_conn.close()
    runner, result, abort = _InProcess(sink), None, None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for state in _read_states(fd, grid):
            runner.send(state)
        try:
            result = runner.finish()
        except SimulationAbort as err:
            abort = str(err)
    conn.send((result, [w.message for w in caught], abort))
    for block in runner.blocks:
        conn.send_bytes(block.encode())


class _StreamHelper:
    """One forked helper process running a sink, started at construction and fed states through `send`.

    An exception that leaves its `with` block kills the helper; either way
    it is joined on exit, so no child outlives the block.  It ends through
    multiprocessing's `os._exit`, so it never unwinds its caller's blocks.
    """

    def __init__(self, ctx, grid, sink, table: str | None = None):
        self._table = table
        read_end, self._fd = os.pipe()
        self._conn, sender = ctx.Pipe(duplex=False)
        try:
            with contextlib.suppress(ImportError, AttributeError, OSError):
                import fcntl

                fcntl.fcntl(self._fd, fcntl.F_SETPIPE_SZ, PIPE_BYTES)
            args = (read_end, self._fd, self._conn, sender, grid, sink)
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
        if exc_type is not None:  # before the stream ends, so the helper sends nothing into a closed pipe
            self._proc.kill()
        if self._fd is not None:
            os.close(self._fd)
        self._conn.close()
        self._proc.join()

    def _died(self) -> OSError:
        self._proc.join()
        err = f"helper process exited with code {self._proc.exitcode}"
        return ChildProcessError(err if self._table is None else f"cannot write table {self._table!r}: {err}")

    def send(self, state) -> None:
        """Send one state to the helper."""
        try:
            _send_state(self._fd, state)
        except BrokenPipeError:
            raise self._died() from None

    def finish(self):
        """End the stream and return the sink's result.

        The helper's warnings are re-emitted here, each once, and its abort
        is raised here with its wording.
        """
        os.close(self._fd)
        self._fd = None
        try:
            result, caught, abort = self._conn.recv()
        except EOFError:
            raise self._died() from None
        for message in caught:
            warnings.warn(message, stacklevel=2)
        if abort is not None:
            raise SimulationAbort(abort)
        return result

    def next_block(self) -> str:
        """The sink's next text block, from the helper."""
        try:
            return self._conn.recv_bytes().decode()
        except EOFError:
            raise self._died() from None
