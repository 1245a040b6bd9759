"""Drive one ``transfinita batch`` child process in a closed loop.

The child's input file is a FIFO under the output directory, and it
answers on an unbuffered stdout.  The harness sends the corpus in chunks,
pass after pass: it writes a whole chunk, stamps each record as it arrives,
and writes the next chunk only when the chunk's last record is in.  The gap
between two consecutive records is the time the child spent on the second
line; the first line of a chunk is timed from the write.  Before the first
chunk and after each one, while the child waits for input, the harness
times one slice of the reference loop (``calib.slice_s``) on the child's
CPU, so the slice gauges the speed of the CPU the child runs on.  When the
measuring time is up the harness closes the FIFO and the child exits at
end of file.
"""

from __future__ import annotations

import os
import select
import subprocess
import sys
import time

from calib import slice_s

SENTINEL = "0"  # trivial first line; its record marks the end of set-up
SETUP_LIMIT_S = 30.0  # longest wait for the sentinel record
CHUNK_LIMIT_S = 60.0  # longest wait for the records of one chunk
CHUNK_BYTES = 32 * 1024  # a chunk fits in an empty pipe, so writing never blocks


class Cpus:
    """The CPU the child and every reference measurement run on, and the
    ones the harness waits on.

    Waiting on another CPU than the child's lets the harness stamp each
    record as soon as it is written; on the child's own CPU the scheduler
    often lets the child run on, and records arrive in bunches."""

    def __init__(self):
        self.allowed = os.sched_getaffinity(0)
        self.work = {max(self.allowed)}
        self.wait = (self.allowed - self.work) or self.work

    def on_work(self, fn):
        """``fn()`` with the harness on the work CPU; whatever it spawns
        stays there."""
        os.sched_setaffinity(0, self.work)
        try:
            return fn()
        finally:
            os.sched_setaffinity(0, self.wait)

    def restore(self):
        os.sched_setaffinity(0, self.allowed)


class ChildRun:
    """Raw records with their timings, set-up time, peak resident size and
    how the child ended."""

    def __init__(self):
        self.setup_s = None
        self.sentinel = None  # raw record of the sentinel line
        self.records: list = []  # raw records of the lines after the sentinel
        self.gaps: list = []  # seconds spent on each of those lines
        # one (first record, end record, wall seconds) per answered chunk
        self.chunks: list = []
        self.cals: list = []  # slice times: one before the first chunk, one after each
        self.sent = 0  # lines sent after the sentinel
        # VmHWM when the harness stops sending.  The child's ru_maxrss is no
        # use: exec carries the spawning process's peak over into it.
        self.peak_rss_kb = None
        self.exit_code = None
        self.killed = False
        self.stderr = ""


def make_chunks(lines: list, per_chunk: int) -> list:
    """Split ``lines`` into (count, bytes) chunks of at most ``per_chunk``
    lines and ``CHUNK_BYTES`` bytes."""
    chunks, cur, size = [], [], 0
    for line in lines:
        data = (line + "\n").encode()
        if cur and (len(cur) == per_chunk or size + len(data) > CHUNK_BYTES):
            chunks.append((len(cur), b"".join(cur)))
            cur, size = [], 0
        cur.append(data)
        size += len(data)
    if cur:
        chunks.append((len(cur), b"".join(cur)))
    return chunks


def run_child(root: str, out_dir: str, chunks: list, seconds: float, cpus: Cpus) -> ChildRun:
    """Spawn ``transfinita batch`` on a FIFO, send the sentinel, then cycle
    through ``chunks`` until ``seconds`` have passed after set-up.  With no
    chunks only the sentinel is sent."""
    run = ChildRun()
    fifo = os.path.join(out_dir, f"in-{os.getpid()}.fifo")
    err_path = os.path.join(out_dir, f"stderr-{os.getpid()}.txt")
    if os.path.exists(fifo):
        os.unlink(fifo)
    os.mkfifo(fifo)
    # Read-write keeps the open from blocking until the child opens its end;
    # the harness never reads from it.
    fd_in = os.open(fifo, os.O_RDWR)
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    cmd = [sys.executable, "-u", "-m", "transfinita.cli", "batch", fifo]
    try:
        with open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = cpus.on_work(lambda: subprocess.Popen(
                cmd, cwd=root, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                stderr=err))
        try:
            os.write(fd_in, (SENTINEL + "\n").encode())
            reader = _Reader(proc)
            raws = reader.read(1, t0 + SETUP_LIMIT_S)
            if raws:
                run.setup_s = reader.stamps[0] - t0
                run.sentinel = raws[0]
                if chunks:
                    _feed(proc, fd_in, reader, chunks, seconds, cpus, run)
            if reader.timed_out:
                run.killed = True
                proc.kill()
        except BaseException:
            proc.kill()
            raise
        finally:
            os.close(fd_in)
            fd_in = None
            _, status = os.waitpid(proc.pid, 0)
            proc.returncode = run.exit_code = os.waitstatus_to_exitcode(status)
            proc.stdout.close()
    finally:
        if fd_in is not None:
            os.close(fd_in)
        os.unlink(fifo)
        if os.path.exists(err_path):
            with open(err_path, encoding="utf-8", errors="replace") as fh:
                run.stderr = fh.read()
            os.unlink(err_path)
    return run


class _Reader:
    """Splits the child's stdout into records and stamps each on arrival."""

    def __init__(self, proc):
        self.fd = proc.stdout.fileno()
        self.buf = b""
        self.stamps: list = []
        self.eof = False
        self.timed_out = False

    def read(self, n: int, deadline: float) -> list:
        """Up to ``n`` records; fewer if the child ends or ``deadline`` passes."""
        out: list = []
        self.stamps = []
        while len(out) < n and not self.eof:
            ready, _, _ = select.select([self.fd], [], [], max(0.0, deadline - time.perf_counter()))
            if not ready:
                self.timed_out = True
                break
            chunk = os.read(self.fd, 1 << 16)
            now = time.perf_counter()
            if not chunk:
                self.eof = True
                break
            self.buf += chunk
            *done, self.buf = self.buf.split(b"\n")
            out += done
            self.stamps += [now] * len(done)
        return out


def _feed(proc, fd_in, reader: _Reader, chunks: list, seconds: float, cpus: Cpus,
          run: ChildRun):
    run.cals.append(cpus.on_work(slice_s))
    deadline = time.perf_counter() + seconds
    k = 0
    while True:
        count, data = chunks[k % len(chunks)]
        k += 1
        t_send = time.perf_counter()
        os.write(fd_in, data)
        run.sent += count
        raws = reader.read(count, t_send + CHUNK_LIMIT_S)
        if len(raws) < count:  # the child ended or hangs
            run.records += raws
            return
        first = len(run.records)
        run.records += raws
        stamps = [t_send] + reader.stamps
        run.gaps += [b - a for a, b in zip(stamps, stamps[1:])]
        run.chunks.append((first, len(run.records), stamps[-1] - t_send))
        run.cals.append(cpus.on_work(slice_s))
        if stamps[-1] >= deadline:
            break
    run.peak_rss_kb = _peak_rss_kb(proc.pid)


def _peak_rss_kb(pid: int):
    """VmHWM of a live process, in KiB (None if it cannot be read)."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for row in fh:
                if row.startswith("VmHWM:"):
                    return int(row.split()[1])
    except OSError:
        pass
    return None
