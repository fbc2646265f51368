"""Side work on a stream of states, in this process's one forked helper or in this process.

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

A process forks one daemonic helper, at the first `side` that forks, and
reuses it for every later run, so the caller's heap is shared
copy-on-write once, not once per run.  Each run writes to one pipe of 1
MiB: first its sink, pickled with the grid and numpy's error settings at
the `side` call, so a sink must pickle; then each state as raw bytes, t as
one complex128 and then the (2, n) pair, which the helper reads into a
fresh buffer; the pipe holds several states, so a send rarely waits.
`finish` ends the stream with one imaginary complex128, which no time is.
The helper records the run's warnings, sends back the pickled result, the
warnings and the abort's message, then each block and an end-of-blocks
marker, and waits for the next sink.  `finish` re-emits the warnings
here, each once, and raises the abort with its wording.  A helper that
dies is a `ChildProcessError` naming its exit code, and the table it
leaves unwritten where the caller names one.

The helper runs this package's code as it was when it was forked.  Its
life:
* a sink's abort keeps it; any other exception that leaves the `with`
  block kills it, and a helper that dies is joined; the next run forks a
  new one; it ignores SIGINT, so an interrupt ends it only through its
  caller;
* a thread that calls `side` while another thread's run holds the helper
  runs its sink in-process, so streams never interleave;
* a child this process forks drops the helper at its fork, unsignalled and
  unjoined, and forks its own if it needs one;
* `_stop`, registered at exit, closes its input and joins it; a caller
  killed outright closes the input by dying, and the helper, which holds
  no copy of the caller's ends, then exits, so no helper outlives its
  caller.

`multiprocessing`, `fcntl` and `signal` are imported where they are used,
not at import, which every command and importer would pay for.
"""

from __future__ import annotations

import atexit
import contextlib
import os
import pickle
import sys
import threading
import warnings

import numpy as np

from .spectral import SPACE, SimulationAbort, _field_pair
from .dynamics import SystemState

PIPE_BYTES = 1 << 20
_END_OF_STREAM = np.complex128(1j).tobytes()
_END_OF_BLOCKS = b"\xff"  # a byte no UTF-8 text holds

_helper = None  # this process's `_Helper`, forked by the first `side` that forks
_lock = threading.Lock()  # held by the run that streams to `_helper`


def _fork_context():
    """The `fork` context for a helper process, or None where the caller runs in-process."""
    if not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2:
        return None
    import multiprocessing

    if multiprocessing.current_process().daemon or "fork" not in multiprocessing.get_all_start_methods():
        return None
    return multiprocessing.get_context("fork")


def side(grid, sink, fork: bool = True, table: str | None = None):
    """A runner of `sink`: this process's helper, else `_InProcess`.

    The helper runs it where `fork` is set, `_fork_context` allows and no
    other thread's run holds the helper.
    """
    global _helper
    ctx = _fork_context() if fork else None
    if ctx is None or not _lock.acquire(blocking=False):
        return _InProcess(sink)
    try:
        if _helper is not None and not _helper.proc.is_alive():  # killed while it waited
            _stop()
        if _helper is None:
            _helper = _Helper(ctx)
            atexit.unregister(_stop)  # registered after multiprocessing's own, so it runs first
            atexit.register(_stop)
        return _helper.begin(grid, sink, table)
    except BaseException:
        _stop(kill=True)
        _lock.release()
        raise


def _stop(kill: bool = False) -> None:
    """End this process's helper and join it: by closing its input, or by killing it after a failed run."""
    global _helper
    helper, _helper = _helper, None
    if helper is not None:
        if kill:
            helper.proc.kill()
        os.close(helper.fd)
        helper.conn.close()
        helper.proc.join()


def _drop_in_child() -> None:
    """In a child this process forks: let go of the parent's helper and lock, unsignalled and unjoined."""
    global _helper, _lock
    helper, _helper, _lock = _helper, None, threading.Lock()
    if helper is not None:
        os.close(helper.fd)
        helper.conn.close()
        # else multiprocessing would signal and join it at this child's exit
        sys.modules["multiprocessing.process"]._children.discard(helper.proc)


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_in_child)


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


def _write(fd: int, data) -> None:
    """Write all of `data` to the stream, however many writes it takes."""
    view = memoryview(data)
    while view:  # a write may be cut short, as by a signal
        view = view[os.write(fd, view) :]


def _send_state(fd: int, state) -> None:
    """Write one state to the stream: t as a complex128, then u1 and u2."""
    message = (np.complex128(state.t), state.u1.values, state.u2.values)
    sent = os.writev(fd, message)
    if sent < 16 * (1 + 2 * state.grid.n):
        _write(fd, memoryview(b"".join(message))[sent:])


def _read(fd: int, view) -> None:
    """Fill `view` from the stream; `EOFError` once the caller is gone."""
    got = 0
    while got < len(view):
        n = os.readv(fd, [view[got:]])
        if n == 0:
            raise EOFError("the caller is gone")
        got += n


def _read_job(fd: int):
    """The next run's grid, sink and numpy error settings: a length, then their pickle."""
    size = bytearray(8)
    _read(fd, memoryview(size))
    job = bytearray(int.from_bytes(size, "little"))
    _read(fd, memoryview(job))
    return pickle.loads(job)


def _read_states(fd: int, grid):
    """Each state of one run's stream, up to its end, read into a fresh buffer, as `evolve` hands out fresh arrays."""
    while True:
        buf = np.empty(1 + 2 * grid.n, dtype=np.complex128)
        view = memoryview(buf).cast("B")
        _read(fd, view[:16])
        if buf[0].imag:  # the end record
            return
        _read(fd, view[16:])
        yield SystemState(float(buf[0].real), *_field_pair(grid, buf[1:].reshape(2, grid.n), SPACE))


def _serve(fd, parent_end, parent_conn, conn) -> None:
    """The helper's body: each run's sink through `_InProcess`, then its report and blocks, until the caller is gone."""
    import signal

    # an interrupt from the terminal reaches the caller too, which decides
    # whether it ends the run and with it this process
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # a read or send fails once the caller is gone only when this process
    # holds no copy of the caller's ends
    os.close(parent_end)
    parent_conn.close()
    with contextlib.suppress(EOFError, BrokenPipeError):
        while True:
            grid, sink, errors = _read_job(fd)
            runner, result, abort = _InProcess(sink), None, None
            with warnings.catch_warnings(record=True) as caught, np.errstate(**errors):
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
            conn.send_bytes(_END_OF_BLOCKS)


class _Helper:
    """This process's helper: one forked process, started at construction, that runs each run's sink in turn.

    `begin` sends it one run's sink and returns it as that run's runner.
    It ends through multiprocessing's `os._exit`, so it never unwinds its
    caller's blocks.
    """

    def __init__(self, ctx):
        read_end, self.fd = os.pipe()
        self.conn, sender = ctx.Pipe(duplex=False)
        try:
            with contextlib.suppress(ImportError, AttributeError, OSError):
                import fcntl

                fcntl.fcntl(self.fd, fcntl.F_SETPIPE_SZ, PIPE_BYTES)
            args = (read_end, self.fd, self.conn, sender)
            self.proc = ctx.Process(target=_serve, args=args, daemon=True)
            with warnings.catch_warnings():
                # Python 3.12+ warns on any fork of a process with threads
                # (numpy's OpenBLAS pool); the helper calls no threaded code,
                # so no lock of those threads is used
                warnings.filterwarnings("ignore", r"This process .* is multi-threaded", DeprecationWarning)
                self.proc.start()
        except BaseException:
            os.close(self.fd)
            self.conn.close()
            raise
        finally:
            os.close(read_end)
            sender.close()

    def begin(self, grid, sink, table: str | None):
        """Send the helper one run's sink; the helper is that run's runner until its `with` block ends."""
        self.table, self.reported, self.done = table, False, False
        job = pickle.dumps((grid, sink, np.geterr()), pickle.HIGHEST_PROTOCOL)
        try:
            _write(self.fd, len(job).to_bytes(8, "little") + job)
        except BrokenPipeError:
            raise self._died() from None
        return self

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # the helper is kept once the run's last message is read; after an
        # exception that leaves the block first it is killed, so it sends
        # nothing into a pipe no one reads
        try:
            while exc_type is None and self.reported and not self.done:
                self._next()
        finally:
            if not self.done:
                _stop(kill=True)
            _lock.release()

    def _died(self) -> OSError:
        self.proc.join()
        err = f"helper process exited with code {self.proc.exitcode}"
        return ChildProcessError(err if self.table is None else f"cannot write table {self.table!r}: {err}")

    def _next(self) -> bytes:
        """The helper's next block, or the end-of-blocks marker, which ends the run."""
        try:
            data = self.conn.recv_bytes()
        except EOFError:
            raise self._died() from None
        self.done = data == _END_OF_BLOCKS
        return data

    def send(self, state) -> None:
        """Send one state to the helper."""
        try:
            _send_state(self.fd, state)
        except BrokenPipeError:
            raise self._died() from None

    def finish(self):
        """End the stream and return the sink's result.

        The helper's warnings are re-emitted here, each once, and its abort
        is raised here with its wording.
        """
        try:
            _write(self.fd, _END_OF_STREAM)
            result, caught, abort = self.conn.recv()
        except (EOFError, BrokenPipeError):
            raise self._died() from None
        self.reported = True
        for message in caught:
            warnings.warn(message, stacklevel=2)
        if abort is not None:
            self._next()  # the end-of-blocks marker: an aborted sink has no blocks
            raise SimulationAbort(abort)
        return result

    def next_block(self) -> str:
        """The sink's next text block, from the helper."""
        data = self._next()
        if self.done:
            raise StopIteration
        return data.decode()
