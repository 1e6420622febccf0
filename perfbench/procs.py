"""Child processes: environment, start-up, memory high-water mark, teardown.

Everything the benchmark writes goes under ``.bench_build/perfbench`` in
the checkout; the only other paths it reads are ``/proc/<pid>/status`` of
its own children (peak RSS), the ``/dev/shm`` listing (leaked segments)
and ``/sys`` (whether a CPU PMU is exposed).
"""

from __future__ import annotations

import ctypes
import os
import select
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
CKERNEL_CACHE = WORK / "ckernels"

#: the CPUs this benchmark may use, and the one its timed processes share
CPUS = frozenset(os.sched_getaffinity(0))
WORK_CPU = max(CPUS)

#: longest a child may take to start, answer, or drain before the run fails
CHILD_TIMEOUT_S = 60.0


class BenchError(Exception):
    """A check failed or a child misbehaved; the run exits nonzero."""


def child_env(ckernel_cache: "Path | None" = None) -> "dict[str, str]":
    """The production environment plus the source tree and kernel cache."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_CKERNEL_CACHE"] = str(ckernel_cache or CKERNEL_CACHE)
    # One malloc arena: with glibc's per-thread arenas the daemon's peak RSS
    # depended on which executor threads happened to run the largest ticks
    # (73-94 MB across runs of one seed); with one it repeats to within 1%.
    env["MALLOC_ARENA_MAX"] = "1"
    return env


def spawn(args: "list[str]", *, stdin: bool = False) -> subprocess.Popen:
    """Start ``python args...`` with piped stdout (and stdin if asked)."""
    WORK.mkdir(parents=True, exist_ok=True)
    return subprocess.Popen(
        [sys.executable, *args],
        cwd=str(ROOT),
        env=child_env(),
        stdin=subprocess.PIPE if stdin else subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
    )


def pin() -> None:
    """Confine this process, and every child it starts later, to ``WORK_CPU``."""
    os.sched_setaffinity(0, {WORK_CPU})


#: a busy loop at SCHED_IDLE priority: it runs only when nothing else wants
#: the CPU, and any woken task preempts it at once
_IDLE_SPIN = (
    "import os\n"
    "os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))\n"
    "print('spinning', flush=True)\n"
    "while True:\n"
    "    pass\n"
)


def start_idle_spinner() -> subprocess.Popen:
    """Keep ``WORK_CPU`` from going idle while the benchmark runs.

    serve_small's daemon and load process both sleep for parts of every
    request (the batcher's linger timer, socket round trips), so the vCPU
    halts many times a second.  When the shared host is busy, waking a
    halted vCPU took several ms: in such periods 20-30% of serve_small's
    requests took over 6 ms against under 1% otherwise, while the busy-CPU
    reference clock moved 15%.  A lowest-priority spinner on the same CPU
    keeps the vCPU running, so a wake-up is an ordinary in-guest preemption.
    Call after :func:`pin`; the spinner inherits the affinity.
    """
    proc = subprocess.Popen(
        [sys.executable, "-c", _IDLE_SPIN],
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
    )
    try:
        if read_line(proc).strip() != "spinning":
            raise BenchError("the idle spinner did not start")
    except BaseException:
        kill_all([proc])
        raise
    return proc



def read_line(proc: subprocess.Popen, timeout: float = CHILD_TIMEOUT_S) -> str:
    """One stdout line from ``proc``, or :class:`BenchError` on timeout/EOF."""
    assert proc.stdout is not None
    deadline = time.monotonic() + timeout
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError(f"child {proc.args} sent no line in {timeout}s")
        ready, _, _ = select.select([proc.stdout], [], [], remaining)
        if ready:
            line = proc.stdout.readline()
            if not line:
                raise BenchError(
                    f"child {proc.args} closed stdout (exit {proc.poll()})"
                )
            return line.decode()


def peak_rss_mb(pid: int) -> float:
    """VmHWM of a live process, in MB (10^6 bytes)."""
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024 / 1e6
    raise BenchError(f"no VmHWM for pid {pid}")


def shm_segments() -> "set[str]":
    """Names of the pool's shared-memory segments currently linked."""
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}
    except OSError:
        return set()


def terminate(proc: subprocess.Popen) -> str:
    """SIGTERM ``proc``, wait for it, return the rest of its stdout; a
    nonzero exit is a :class:`BenchError`."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"child {proc.args} ignored SIGTERM") from None
    if proc.returncode != 0:
        raise BenchError(f"child {proc.args} exited {proc.returncode}")
    return (out or b"").decode()


#: prctl option that makes orphaned descendants children of this process
PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Make every descendant orphaned later (a daemon's own helpers, a
    multiprocessing tracker) a child of this process, so :func:`reap_all`
    can stop it and wait for it instead of leaving it to init."""
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER)")


def _child_pids() -> "set[int]":
    pids: "set[int]" = set()
    for task in Path("/proc/self/task").iterdir():
        try:
            pids.update(int(p) for p in (task / "children").read_text().split())
        except OSError:
            pass
    return pids


def reap_all(grace: float = 5.0) -> "list[int]":
    """Wait for every child (adopted ones too) to end; SIGTERM what is still
    running after ``grace`` seconds and SIGKILL it after twice that.  Call
    last: it reaps with ``waitpid(-1)``.  Returns the pids that had to be
    signalled."""
    start = time.monotonic()
    signalled: "list[int]" = []
    sent = None
    while True:
        while True:
            try:
                pid, _ = os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                return signalled
            if pid == 0:
                break
        elapsed = time.monotonic() - start
        sig = signal.SIGKILL if elapsed >= 2 * grace else signal.SIGTERM if elapsed >= grace else None
        if sig is not None and sig != sent:
            for pid in _child_pids():
                try:
                    os.kill(pid, sig)
                except ProcessLookupError:
                    pass
                if pid not in signalled:
                    signalled.append(pid)
            sent = sig
        time.sleep(0.02)


def kill_all(procs) -> None:
    """Last-resort cleanup: kill and reap every child still running."""
    for proc in procs:
        if proc.poll() is None:
            proc.kill()
        try:
            proc.communicate(timeout=CHILD_TIMEOUT_S)
        except (subprocess.TimeoutExpired, ValueError, OSError):
            pass


def build_ckernels(cache: Path) -> float:
    """Compile the C kernels into ``cache`` in a fresh process; seconds taken.

    Raises :class:`BenchError` when they do not load: every later number
    assumes the compiled fast paths, not the NumPy fallbacks.
    """
    cache.mkdir(parents=True, exist_ok=True)
    code = (
        "import sys\n"
        "from repro.trees._ckernels import kernels_available\n"
        "sys.exit(0 if kernels_available() else 3)\n"
    )
    t0 = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", code],
        cwd=str(ROOT),
        env=child_env(cache),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        timeout=300,
    )
    elapsed = time.perf_counter() - t0
    if done.returncode != 0:
        raise BenchError("the C kernels did not build or load")
    return elapsed


def fresh_ckernel_build() -> float:
    """Seconds to compile the C kernels into an empty cache (then removed)."""
    WORK.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="ckernels-", dir=WORK))
    try:
        return build_ckernels(scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def import_seconds(module: str, reps: int = 3) -> float:
    """Median in-process import time of ``module`` over fresh interpreters."""
    code = (
        "import time\n"
        "t = time.perf_counter()\n"
        f"import {module}\n"
        "print(time.perf_counter() - t)\n"
    )
    times = []
    for _ in range(reps):
        out = subprocess.run(
            [sys.executable, "-c", code],
            cwd=str(ROOT),
            env=child_env(),
            capture_output=True,
            timeout=CHILD_TIMEOUT_S,
            check=True,
        )
        times.append(float(out.stdout))
    times.sort()
    return times[len(times) // 2]


def host_info() -> dict:
    """What this host can and cannot measure."""
    from repro.util.pool import default_workers

    workers = default_workers()
    return {
        "nproc": os.cpu_count(),
        "default_workers": workers,
        "pool_idle": workers <= 1,
        "cpu_pmu": os.path.isdir("/sys/bus/event_source/devices/cpu"),
        "work_cpu": WORK_CPU,
        "idle_spinner": "SCHED_IDLE busy loop on work_cpu, so the vCPU never halts",
        "note": (
            "default_workers() <= 1 keeps reduce_many and evaluate_ensemble "
            "on their serial paths, so util.pool stays idle; with no CPU PMU "
            "there are no instruction counts and no roofline"
        ),
    }
