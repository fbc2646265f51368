"""One forked helper process fed a stream of states while a run goes on.

`nlslab evolve`'s helper (`cli`) and `run_case`'s analysis helper
(`experiments`) are both a `_StreamHelper`.  `_fork_context` decides
whether to fork at all: with two usable cores and the `fork` start method,
and not from a daemonic process, which may have no children.  Where the
cores cannot be counted (no `os.sched_getaffinity`, as on macOS and
Windows) it counts as one core.  Every caller runs in-process otherwise.

The helper is forked before the run.  States reach it as raw bytes through
a pipe of 1 MiB, which holds several states, so a send rarely waits: t as
one complex128, then the (2, n) pair.  The helper's target runs on each
state as it arrives, inside a block that records every warning.  Once the
stream ends, the helper sends one report back through a `multiprocessing`
pipe: the target's result, the warnings and the message of a
`SimulationAbort` the target raised, if any.  After an abort the rest of
the stream is read and dropped, so the sender never blocks.
`_StreamHelper.finish` re-emits the warnings in this process and raises
the abort with its wording.  A helper that dies is a `ChildProcessError`
naming its exit code.

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


def _send_state(fd: int, state) -> None:
    """Write one state to the stream: t as a complex128, then u1 and u2."""
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


def _read_states(fd: int, grid):
    """Each state of the stream in turn, its pair a read-only view of one buffer the next state overwrites."""
    buf = np.empty(1 + 2 * grid.n, dtype=np.complex128)
    view = memoryview(buf).cast("B")
    while _read_state(fd, view):
        yield SystemState(float(buf[0].real), *_field_pair(grid, buf[1:].reshape(2, grid.n), SPACE))


def _serve(fd, parent_end, parent_conn, conn, grid, target, args) -> None:
    """The helper's body: `target(states, *args)` on the stream, then the report.

    The target returns its result and an iterable of bytes, which are sent
    after the report, one message each.
    """
    # the stream ends when this process's copy of its write end is closed
    # too, and a send fails once the caller is gone only when this process
    # holds no copy of the caller's end of the report pipe
    os.close(parent_end)
    parent_conn.close()
    result, then, abort = None, (), None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result, then = target(_read_states(fd, grid), *args)
        except SimulationAbort as err:
            abort = str(err)
    while os.read(fd, PIPE_BYTES):  # what the target left unread
        pass
    conn.send((result, [w.message for w in caught], abort))
    for data in then:
        conn.send_bytes(data)


class _StreamHelper:
    """One forked helper process, started at construction and fed states through `send`.

    Use it as a context manager.  An exception that leaves the `with`
    block kills the helper; either way it is joined on exit, so no child
    outlives the block.  The helper ends through multiprocessing's
    `os._exit`, so it never unwinds its caller's blocks.
    """

    def __init__(self, ctx, grid, target, *args):
        read_end, self._fd = os.pipe()
        self._conn, sender = ctx.Pipe(duplex=False)
        try:
            with contextlib.suppress(ImportError, AttributeError, OSError):
                import fcntl

                fcntl.fcntl(self._fd, fcntl.F_SETPIPE_SZ, PIPE_BYTES)
            args = (read_end, self._fd, self._conn, sender, grid, target, args)
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
        return ChildProcessError(f"helper process exited with code {self._proc.exitcode}")

    def send(self, state) -> None:
        """Send one state to the helper."""
        try:
            _send_state(self._fd, state)
        except BrokenPipeError:
            raise self._died() from None

    def finish(self):
        """End the stream and return the target's result.

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

    def recv_bytes(self) -> bytes:
        """The next message the target sent after its report."""
        try:
            return self._conn.recv_bytes()
        except EOFError:
            raise self._died() from None
