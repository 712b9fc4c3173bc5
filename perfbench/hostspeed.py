"""Host-speed probe: how fast each core of the host runs a fixed kernel while
a stage runs, and on which core the stage ran.

    python3 perfbench/hostspeed.py SAMPLES.txt

The hosts this benchmark runs on share their cores with other machines, and
a core's speed swings by a third within seconds: a stage and a plain numpy
loop both take up to 40% longer than a few seconds before, and the stage's
CPU time follows its wall time, so this is the host's speed, not contention
in the benchmark. The cores swing partly apart: the mean speeds of two
cores over the same second correlate by only about 0.6.

So the probe runs beside the stages, in its own process, and measures each
core in turn: it moves itself to the next core the benchmark may use, runs
a fixed numpy kernel in two parts, convolution-shaped einsums at desk shape
(8x8) and one at paper shape (32x32), sleeps nine times as long, and appends
one line ``cpu start end desk_cpu_s paper_cpu_s`` per kernel run to
SAMPLES.txt. The kernel's thread CPU time counts only while the probe is on
the core, so a stage that shares the core does not make the core look
slower. The launcher notes, every `POLL_S`, which core the stage is on
(`current_cpu`).

`speed_factor` turns both into the factor that scales a stage's time to the
reference host: one on which each kernel part takes its `REF_KERNEL_S` of
CPU time. A workload names the parts whose slowdown follows its own (see
`workloads.Workload.speed_parts`).

The probe is idle nine tenths of the time and exits when the process that
started it is gone.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

# Median CPU time of each kernel part on the 2-core x86_64 host the
# benchmark was built on (numpy 2.4.6, one BLAS thread).
REF_KERNEL_S = {"desk": 0.006, "paper": 0.0037}
PARTS = tuple(REF_KERNEL_S)
# Share of its time the probe spends in the kernel.
DUTY = 0.1
# How often the launcher notes the stage's core.
POLL_S = 0.02
# A core with fewer samples than this within an interval uses its nearest.
MIN_SAMPLES = 3
# The probe gives up on its own after this long, whatever happens.
MAX_LIFE_S = 900.0


def _desk_part(x, w) -> float:
    import numpy as np

    y = x
    for _ in range(16):
        y = np.maximum(np.einsum("nchw,dc->ndhw", y, w, optimize=False), 0.0)
        y = y * 0.01 + x
    return float(y[0, 0, 0, 0])


def _paper_part(x, w) -> float:
    import numpy as np

    y = np.maximum(np.einsum("nchw,dc->ndhw", x, w, optimize=False), 0.0)
    return float(y[0, 0, 0, 0])


def probe(path: str) -> None:
    import numpy as np

    rng = np.random.default_rng(0)
    small = rng.standard_normal((4, 64, 8, 8)).astype(np.float32)
    large = rng.standard_normal((4, 64, 32, 32)).astype(np.float32)
    w = rng.standard_normal((64, 64)).astype(np.float32)
    cpus = sorted(os.sched_getaffinity(0))
    parent = os.getppid()
    born = time.monotonic()
    with open(path, "w") as out:
        for i in range(sys.maxsize):
            if os.getppid() != parent or time.monotonic() - born > MAX_LIFE_S:
                break
            cpu = cpus[i % len(cpus)]
            os.sched_setaffinity(0, {cpu})
            t0, c0 = time.monotonic(), time.thread_time()
            _desk_part(small, w)
            c1 = time.thread_time()
            _paper_part(large, w)
            c2, t1 = time.thread_time(), time.monotonic()
            out.write(f"{cpu} {t0:.6f} {t1:.6f} {c1 - c0:.9f} "
                      f"{c2 - c1:.9f}\n")
            out.flush()
            time.sleep((t1 - t0) * (1.0 / DUTY - 1.0))


class Probe:
    """The probe process, started on entry and killed and waited for on
    exit; `samples()` reads what it has measured."""

    def __init__(self, path: str, env: dict):
        self.path = path
        self.env = env
        self.proc = None

    def __enter__(self) -> "Probe":
        if os.path.exists(self.path):
            os.remove(self.path)
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), self.path],
            env=self.env, stdin=subprocess.DEVNULL)
        try:
            deadline = time.monotonic() + 30.0
            while not self.samples():
                if self.proc.poll() is not None or time.monotonic() > deadline:
                    raise RuntimeError("the host-speed probe gave no sample")
                time.sleep(0.05)
        except BaseException:
            self.stop()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def stop(self) -> None:
        if self.proc is not None:
            self.proc.kill()
            self.proc.wait()

    def samples(self) -> list[tuple]:
        """(cpu, start, end, seconds per part...) for each kernel run."""
        if not os.path.exists(self.path):
            return []
        rows = []
        with open(self.path) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 3 + len(PARTS) and line.endswith("\n"):
                    rows.append((int(parts[0]),
                                 *(float(p) for p in parts[1:])))
        return rows


def current_cpu(pid: int) -> int | None:
    """The core process `pid` last ran on, or None once it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            stat = fh.read()
    except OSError:
        return None
    # field 39; the fields after the command name, which may hold spaces,
    # start at field 3
    return int(stat[stat.rindex(")") + 2:].split()[36])


def speed_factor(samples, occupancy, start: float, end: float,
                 parts=PARTS) -> float:
    """The factor that scales the time a stage spent in [start, end] to the
    reference host: above 1 when the host ran fast, below when slow.

    `occupancy` holds (time, cpu) notes of where the stage ran. Each core's
    speed is the reference time of the kernel `parts` over their mean time
    in that core's samples whose midpoint lies in [start, end], or in its
    MIN_SAMPLES nearest if fewer do. The factor weighs each core's speed by
    the share of the interval's notes on that core; with no note in the
    interval, every sampled core weighs the same.
    """
    def distance(s):
        mid = (s[1] + s[2]) / 2.0
        return max(start - mid, mid - end, 0.0)

    columns = [3 + PARTS.index(p) for p in parts]
    ref = sum(REF_KERNEL_S[p] for p in parts)
    cpus = sorted({s[0] for s in samples})
    notes = [cpu for t, cpu in occupancy if start <= t <= end and cpu in cpus]
    if not notes:
        notes = cpus
    if not notes:
        raise ValueError("no host-speed samples")
    factor = 0.0
    for cpu in set(notes):
        own = [s for s in samples if s[0] == cpu]
        inside = [s for s in own if distance(s) == 0.0]
        if len(inside) < MIN_SAMPLES:
            inside = sorted(own, key=distance)[:MIN_SAMPLES]
        measured = sum(s[c] for s in inside for c in columns) / len(inside)
        factor += notes.count(cpu) / len(notes) * ref / measured
    return factor


if __name__ == "__main__":
    probe(sys.argv[1])
