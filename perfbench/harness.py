"""Shared plumbing: paths, statistics, environment record, set-up probes."""

from __future__ import annotations

import gc
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

#: Root of the checkout (``perfbench/`` lives directly under it).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for journals, cache dirs, traces and result records.
WORK = ROOT / ".bench_work"

#: Fresh-process set-ups per run; ``setup_s`` is their median.
SETUP_SAMPLES = 7

#: Median time of one ``_kernel`` run (collector off) on a 2-vCPU Xeon VM.
#: Times normalised by speed samples read "seconds at this reference speed".
REFERENCE_SPEED_S = 0.0025
#: Wall-time period of the in-op speed samples (each costs about 3%).
SAMPLE_INTERVAL_S = 0.1

#: Workload name -> module (under ``perfbench/``) implementing it.
WORKLOADS = {
    "dse-cold": "dse_cold",
    "scenario-sweep": "scenario_sweep",
    "svc-keepalive": "svc_keepalive",
}


def require_program() -> None:
    """Exit non-zero, printing no result, when the program is missing."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> Dict[str, str]:
    """Environment for child Python processes: the program on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


@dataclass
class Measurement:
    """What one pass over a workload's op sequence produced.

    In-process workloads call :meth:`between_ops` before the first op and
    after every op, and time each op with :meth:`timed`.  The VM's speed
    drifts by 10-30% over seconds to minutes, alike for the program and for
    a fixed pure-Python kernel, so each op's latency is scaled by the kernel
    times sampled around it and, every ``SAMPLE_INTERVAL_S``, inside it.
    """

    latencies: List[float] = field(default_factory=list)
    #: Units of work completed (the workload's ``work_per_s`` unit).
    units: int = 0
    #: Wall time of the timed phase.
    wall_s: float = 0.0
    #: Op index -> reason, for ops that raised or ended unsuccessfully.
    errors: Dict[int, str] = field(default_factory=dict)
    #: Per-op outputs the checks inspect after the timed phase.
    outputs: List[object] = field(default_factory=list)
    #: Reference-kernel times, in sampling order (empty: not normalised).
    speed: List[float] = field(default_factory=list)
    #: Per op, the slice of ``speed`` sampled around and inside it.
    speed_slices: List[List[int]] = field(default_factory=list)
    #: Workload-specific extras (the server's peak RSS, HTTP request count).
    extra: Dict[str, object] = field(default_factory=dict)
    #: Time spent taking speed samples (excluded from op latencies).
    sampling_s: float = 0.0
    #: When traced, in-op samples get a ``bench.sample`` span, so their time
    #: is not charged to the layer span they interrupt.
    tracer: object = None
    _group: int = 0
    _in_op: bool = False
    _previous_handler: object = None

    def between_ops(self) -> None:
        """Collect garbage and sample the machine speed, outside timing.

        The first call also freezes what set-up allocated, so the later
        collections walk only the objects ops allocate.
        """
        started = time.perf_counter()
        gc.collect()
        if not self.speed:
            gc.freeze()
        group = len(self.speed)
        self.speed.extend(_time_kernel() for _ in range(3))
        if self.speed_slices and self.speed_slices[-1][1] < 0:
            self.speed_slices[-1][1] = len(self.speed)
        self._group = group
        self.sampling_s += time.perf_counter() - started

    def _sample(self, signum, frame) -> None:
        if not self._in_op:
            return
        started = time.perf_counter()
        if self.tracer is None:
            self.speed.append(_time_kernel())
        else:
            with self.tracer.span("bench.sample"):
                self.speed.append(_time_kernel())
        self.sampling_s += time.perf_counter() - started

    def start_sampling(self) -> None:
        """Take a speed sample every ``SAMPLE_INTERVAL_S`` (SIGALRM)."""
        self._previous_handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)
        self._in_op = True

    @property
    def sampling(self) -> bool:
        """Whether in-op speed samples are being taken."""
        return self._in_op

    def stop_sampling(self) -> None:
        """Stop sampling; only the main thread may also reset the timer."""
        self._in_op = False
        if threading.current_thread() is threading.main_thread():
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous_handler)

    @contextmanager
    def timed(self):
        """Time one op, excluding the in-op speed samples' own time."""
        sampling = bool(self.speed)
        if sampling:
            self.speed_slices.append([self._group, -1])
            self.start_sampling()
        sampling_s = self.sampling_s
        started = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - started
            if sampling:
                self.stop_sampling()
            self.latencies.append(elapsed - (self.sampling_s - sampling_s))

    def normalized(self) -> List[float]:
        """Op latencies in seconds at the reference machine speed."""
        if not self.speed:
            return list(self.latencies)
        return [latency * REFERENCE_SPEED_S / midmean(self.speed[low:high])
                for latency, (low, high)
                in zip(self.latencies, self.speed_slices)]

    def rate(self) -> float:
        """Units per second: over normalised op time when speed-sampled,
        else over the timed phase's wall time."""
        if self.speed:
            return self.units / sum(self.normalized())
        return self.units / self.wall_s


def midmean(values: List[float]) -> float:
    """Mean of the middle half: robust to single slow or fast samples,
    steadier than the median of a handful of samples."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def _kernel() -> int:
    """Fixed interpreter work: tuple keys, dict updates, lists, a sort."""
    table: Dict[tuple, int] = {}
    nodes = []
    for i in range(2500):
        key = (i & 63, i % 7)
        table[key] = table.get(key, 0) + i
        nodes.append([i, str(i), key])
    nodes.sort(key=lambda node: node[2])
    return len(table) + len(nodes)


def _time_kernel() -> float:
    """Time one ``_kernel`` run with the collector off.

    Otherwise the collections its own allocations trigger would walk the
    program's live heap, and a program that keeps more objects alive would
    read as a slower machine, cancelling part of its own regression.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        _kernel()
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


def _beta_cdf_steps(n: int, a: float, b: float) -> List[float]:
    """``I_{i/n}(a, b)`` for i = 0..n, by Simpson integration of the pdf."""
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def pdf(x: float) -> float:
        if x <= 0.0 or x >= 1.0:
            return 0.0
        return math.exp(log_norm + (a - 1) * math.log(x)
                        + (b - 1) * math.log1p(-x))

    steps, total, points = [0.0], 0.0, 16
    for i in range(n):
        low, width = i / n, 1.0 / n / points
        area = pdf(low) + pdf(low + 1.0 / n)
        area += sum((4 if k % 2 else 2) * pdf(low + k * width)
                    for k in range(1, points))
        total += area * width / 3
        steps.append(total)
    return [step / total for step in steps]


def quantile(values: List[float], fraction: float) -> float:
    """Harrell-Davis quantile estimate.

    A Beta-weighted mean of all order statistics: on a run of few ops whose
    latencies fall in separate clusters (one per scenario), the plain
    sample median jumps between the two ops either side of the middle.
    """
    ordered = sorted(values)
    n = len(ordered)
    steps = _beta_cdf_steps(n, fraction * (n + 1), (1 - fraction) * (n + 1))
    return sum((steps[i + 1] - steps[i]) * value
               for i, value in enumerate(ordered))


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set of this process, or of ``pid`` (from /proc)."""
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def probe_setup_s(workload: str, seed: int, seconds: float,
                  limit: int) -> float:
    """One fresh-process set-up of an in-process workload, normalised.

    ``probe.py`` sets the workload up and prints ``ready``, its own
    speed-sampling time and the mid-mean of its speed samples; the result is
    the time from spawn to ``ready`` minus the sampling, at the reference
    speed.
    """
    started = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, str(ROOT / "perfbench" / "probe.py"), workload,
         str(seed), str(seconds), str(limit)],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
        stdin=subprocess.DEVNULL, text=True)
    try:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - started
        child.stdout.read()
        child.wait(timeout=60)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
        child.stdout.close()
    token, sampling_s, speed = (line.split() + ["", "", ""])[:3]
    if child.returncode != 0 or token != "ready":
        raise RuntimeError(f"set-up probe exited {child.returncode} "
                           f"after printing {line!r}")
    return (elapsed - float(sampling_s)) * REFERENCE_SPEED_S / float(speed)


def pin_to_current_cpu() -> Tuple[set, int]:
    """Pin this process (and the children it starts) to the CPU it runs on.

    Speed samples only track the CPU they run on, and the two vCPUs of the
    shared VM drift apart; returns the previous affinity and the CPU.
    """
    allowed = os.sched_getaffinity(0)
    with open("/proc/self/stat", encoding="ascii") as stat:
        cpu = int(stat.read().rsplit(")", 1)[1].split()[36])
    os.sched_setaffinity(0, {cpu})
    return allowed, cpu


def _git_sha() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = done.stdout.strip()
    return sha if done.returncode == 0 and sha else "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(workload: str, seed: int, ops: int, allowed: set,
                pinned_cpu: int) -> Dict[str, object]:
    """The environment record stored with every result.

    ``nproc`` counts the CPUs the benchmark was allowed before it pinned
    itself (what ``nproc`` prints); ``pinned_cpu`` is the one it pinned to.
    """
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "cpu_model": _cpu_model(),
        "nproc": len(allowed),
        "pinned_cpu": pinned_cpu,
        "workload": workload,
        "seed": seed,
        "ops_timed": ops,
    }


def write_record(name: str, record: Dict[str, object]) -> Path:
    """Store a full result record under ``.bench_work/results``."""
    directory = WORK / "results"
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / name
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return path

