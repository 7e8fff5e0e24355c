"""Samples how fast each CPU runs while the benchmark's ops run.

On the benchmark's reference machine, a shared VM with two vCPUs, each vCPU
flips between a fast and a slow state (the slow one runs the same Python
work about 1.8x slower) every 20 ms to 1 s, and the two vCPUs flip
independently of each other. The share of time spent slow differs from one
run to the next, so raw wall times of two runs of the same code differ by
more than any bound worth setting.

The benchmark therefore pins its work to known CPUs and starts one sampler
process per CPU (``python3 perfbench/hostspeed.py --cpu N``). The sampler
times a short fixed kernel every PERIOD_S and records when each run ended.
An op's wall time is then also reported scaled to a host on which the
kernel takes REF_MS: ``ms * REF_MS / mean kernel ms``, the mean taken over
the samples on the op's CPUs from PERIOD_S before the op started to PERIOD_S
after it ended. The kernel does the kind of work kegraph does (big-integer
bit operations, small-dict traffic in the interpreter) and touches no
kegraph code, so a change to kegraph moves the op times and not the kernel
times. Each sample takes the CPU from the op for about 0.5 ms in PERIOD_S.

Timestamps are ``time.monotonic()``, one clock for every process.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import select
import subprocess
import sys
import time

REF_MS = 0.4  # about the kernel's time on a fast-state vCPU of the reference machine
PERIOD_S = 0.025
_MASK = (1 << 64) - 1


def _kernel() -> int:
    x, acc, seen = 0x9E3779B97F4A7C15, 0, {}
    for i in range(1500):
        x = (x * 6364136223846793005 + 1442695040888963407) & _MASK
        acc += (x >> 17).bit_count()
        seen[x & 1023] = i
    return acc + len(seen)


def _sample_until_eof(cpu: int) -> list[tuple[float, float]]:
    """(end time, kernel ms) every PERIOD_S on *cpu* until stdin closes."""
    os.sched_setaffinity(0, {cpu})
    out = []
    while True:
        t0 = time.monotonic()
        _kernel()
        t1 = time.monotonic()
        out.append((t1, (t1 - t0) * 1e3))
        if select.select([sys.stdin], [], [], PERIOD_S)[0]:
            return out


class Sampler:
    """A sampler process on one CPU; ``stop()`` ends it and returns its
    samples, sorted by time."""

    def __init__(self, cpu: int):
        self.cpu = cpu
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--cpu", str(cpu)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def stop(self) -> list[tuple[float, float]]:
        out, _ = self.proc.communicate(timeout=60)  # closes stdin first
        if self.proc.returncode != 0:
            raise RuntimeError(f"host-speed sampler on CPU {self.cpu} exited with {self.proc.returncode}")
        return [tuple(s) for s in json.loads(out)]

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.communicate()


class Samplers:
    """One sampler per CPU for the duration of a ``with`` block; then
    ``factor(t0, t1)`` scales a wall time measured between t0 and t1."""

    def __init__(self, cpus: list[int]):
        self.cpus = cpus
        self._running: list[Sampler] = []
        self.samples: dict[int, list[tuple[float, float]]] = {}

    def __enter__(self):
        self._running = [Sampler(c) for c in self.cpus]
        return self

    def __exit__(self, *exc):
        try:
            if exc[0] is None:
                self.samples = {s.cpu: s.stop() for s in self._running}
        finally:
            for s in self._running:
                s.kill()

    def factor(self, t0: float, t1: float) -> float:
        """REF_MS over the mean kernel time on the CPUs around [t0, t1]."""
        kernel = []
        for series in self.samples.values():
            lo = bisect.bisect_left(series, (t0 - PERIOD_S,))
            hi = bisect.bisect_right(series, (t1 + PERIOD_S, float("inf")))
            kernel += [ms for _, ms in series[lo:hi]]
        if not kernel:
            raise RuntimeError(f"no host-speed samples between {t0:.3f} and {t1:.3f}")
        return REF_MS * len(kernel) / sum(kernel)


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description="host-speed sampler on one CPU")
    ap.add_argument("--cpu", type=int, required=True)
    json.dump(_sample_until_eof(ap.parse_args().cpu), sys.stdout)
