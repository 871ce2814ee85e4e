"""Machine-speed sampling with the measured program frozen.

On a shared host the speed of a core drifts by up to 2x, within seconds
and over tens of minutes (co-tenants on the same physical cores), and
CPU time tracks wall time, so neither holds still between runs: on a
2-vCPU Xeon virtual machine (CPython 3.11) the medians of two sets of ten
`endpoints` runs made 20 minutes apart differed by 36% as measured.

`run_sampled` runs a command in its own process group and, every
PERIOD_S seconds, stops the whole group with SIGSTOP, times the fixed
pure-Python `reference()` loop while nothing of the program runs, and
resumes the group with SIGCONT.  Because the program is frozen while the
reference runs, its own threads and worker processes cannot slow the
reference down: the samples measure the machine, not the program's load
on it.  The frozen intervals are recorded, so a wall time can be given
as measured (`active`) and rescaled to the speed at which one reference
loop takes REF_NOMINAL_S, roughly an uncontended core of that machine
(`nominal`).  REF_NOMINAL_S only fixes the unit: changing it rescales
every recorded time, so it must never change.
"""

from __future__ import annotations

import math
import os
import select
import signal
import subprocess
import tempfile
import time
from dataclasses import dataclass, field

PERIOD_S = 0.05
REF_ITERS = 1000
REF_NOMINAL_S = 0.7e-3


def reference() -> float:
    """Seconds taken by a fixed loop of the interval kernel's mix:
    float products, tuples, min/max and outward nudges."""
    t0 = time.perf_counter()
    lo = hi = 0.0
    x = 1.0000001
    for i in range(REF_ITERS):
        a = (x * i, x - i, i * 0.5, -x)
        lo = math.nextafter(lo + min(a), -math.inf)
        hi = math.nextafter(hi + max(a), math.inf)
    return time.perf_counter() - t0


@dataclass
class Sampled:
    """Outcome of `run_sampled`; times are `time.monotonic()` readings."""

    returncode: int
    stdout: str
    stderr: str
    start: float
    end: float
    # (time, seconds of one reference loop); the first and last are
    # taken just before the start and just after the end
    samples: list = field(default_factory=list)
    frozen: list = field(default_factory=list)  # (stop, resume) intervals

    def active(self, t0: float, t1: float) -> float:
        """Seconds in [t0, t1] during which the program was not frozen."""
        stopped = sum(
            max(0.0, min(b, t1) - max(a, t0)) for a, b in self.frozen
        )
        return (t1 - t0) - stopped

    def nominal(self, t0: float, t1: float) -> float:
        """Active seconds in [t0, t1] at the nominal machine speed: the
        samples taken inside the interval, or all samples if none is."""
        inside = [s for t, s in self.samples if t0 <= t <= t1]
        ref = inside or [s for _, s in self.samples]
        factor = sum(REF_NOMINAL_S / s for s in ref) / len(ref)
        return self.active(t0, t1) * factor


class Timeout(Exception):
    pass


def _signal_group(pgid: int, sig: int) -> None:
    try:
        os.killpg(pgid, sig)
    except ProcessLookupError:  # the whole group has ended
        pass


def run_sampled(
    cmd: list, cwd, tmpdir, timeout: float, sample: bool = True
) -> Sampled:
    """Run `cmd` to its end, sampling the machine speed while it is
    frozen if `sample`.  Its output goes through files in `tmpdir`.  If it
    runs longer than `timeout` seconds, kill and reap its process group
    and raise Timeout."""
    with tempfile.TemporaryFile("w+", dir=tmpdir) as out, \
            tempfile.TemporaryFile("w+", dir=tmpdir) as err:
        res = Sampled(0, "", "", 0.0, 0.0)
        res.samples.append((time.monotonic(), reference()))
        res.start = time.monotonic()
        proc = subprocess.Popen(
            cmd, cwd=cwd, stdout=out, stderr=err, start_new_session=True
        )
        # readable as soon as the process ends, so its end is seen at once
        pidfd = os.pidfd_open(proc.pid)
        poller = select.poll()
        poller.register(pidfd, select.POLLIN)
        status = None
        try:
            while status is None:
                left = timeout - (time.monotonic() - res.start)
                if left <= 0:
                    raise Timeout(f"ran longer than {timeout:.0f} s")
                wait = min(PERIOD_S, left) if sample else left
                if poller.poll(1000.0 * wait):
                    status = os.waitpid(proc.pid, 0)[1]
                    break
                if not sample:
                    continue
                t_stop = time.monotonic()
                _signal_group(proc.pid, signal.SIGSTOP)
                st = os.waitpid(proc.pid, os.WUNTRACED)[1]
                if os.WIFSTOPPED(st):
                    res.samples.append((time.monotonic(), reference()))
                else:  # it ended before it stopped
                    status = st
                _signal_group(proc.pid, signal.SIGCONT)
                res.frozen.append((t_stop, time.monotonic()))
            res.end = time.monotonic()
        finally:
            os.close(pidfd)
            if status is None:
                _signal_group(proc.pid, signal.SIGKILL)
                _signal_group(proc.pid, signal.SIGCONT)
                status = os.waitpid(proc.pid, 0)[1]
            proc.returncode = os.waitstatus_to_exitcode(status)
        res.samples.append((time.monotonic(), reference()))
        res.returncode = proc.returncode
        out.seek(0)
        err.seek(0)
        res.stdout, res.stderr = out.read(), err.read()
        return res
