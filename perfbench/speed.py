"""CPU speed probe: how fast one CPU runs two fixed loops, sampled over time.

On a shared host a vCPU's speed changes by up to about 1.5x within
seconds (another guest's thread on the same physical core), and the two
vCPUs change independently.  A repetition's wall time then measures the
host as much as the program.  The probe runs beside the repetition,
pinned to the same CPU: every ``PERIOD_S`` it wakes and times the two
kinds of work the program does most, a pure-Python loop and a small
numpy FFT, each a few times, keeping the fastest so that a preemption
inside a burst does not count.  A sample's speed is the mean of the two
loops' speeds relative to their ``REFERENCE_S`` times; :func:`speed_over`
averages the samples over an interval.

Run as a process::

    python3 perfbench/speed.py --cpu 1

It samples until its standard input closes, then prints the samples,
``[[monotonic time, speed], ...]``, as one JSON line.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import sys
import time
from typing import Callable, Dict, List, Sequence, Tuple

#: seconds between bursts; a CPU's speed holds for about a second or more
PERIOD_S = 0.1
#: timed runs of each loop per burst, of which the fastest is kept
LOOPS = 3
LOOP_ITERATIONS = 2000
FFT_SHAPE = (128, 128)
#: the fastest time of each loop seen on a 2-vCPU Intel Xeon VM (nproc 2);
#: speed 1.0 is that CPU's uncontended speed
REFERENCE_S = {"python": 1.2e-4, "fft": 3.2e-4}


def _python_loop() -> None:
    total = 0
    for i in range(LOOP_ITERATIONS):
        total += i * i % 7


def make_loops() -> Dict[str, Callable[[], None]]:
    """The timed loops by ``REFERENCE_S`` name.  numpy is imported here,
    in the probe process, not by the modules that import this one."""
    import numpy as np

    grid = np.random.default_rng(0).standard_normal(FFT_SHAPE)

    def fft_loop() -> None:
        np.fft.ifft2(np.fft.fft2(grid))

    return {"python": _python_loop, "fft": fft_loop}


def fastest(loop: Callable[[], None]) -> float:
    best = float("inf")
    for _ in range(LOOPS):
        start = time.perf_counter()
        loop()
        best = min(best, time.perf_counter() - start)
    return best


def sample(loops: Dict[str, Callable[[], None]]) -> float:
    """The CPU's speed now: mean over the loops of reference / fastest."""
    return sum(REFERENCE_S[name] / fastest(loop)
               for name, loop in loops.items()) / len(loops)


def sample_until_eof(stream) -> List[Tuple[float, float]]:
    loops = make_loops()
    samples: List[Tuple[float, float]] = []
    while True:
        samples.append((time.monotonic(), sample(loops)))
        readable, _, _ = select.select([stream], [], [], PERIOD_S)
        if readable and not os.read(stream.fileno(), 4096):
            return samples


def speed_over(samples: Sequence[Sequence[float]], start: float,
               end: float) -> float:
    """Mean speed of the samples taken between ``start`` and ``end``
    (monotonic seconds).  Work done in the interval is speed integrated
    over time, so speeds are averaged, not loop times.  With no sample
    inside, the nearest one is used."""
    inside = [speed for t, speed in samples if start <= t <= end]
    if not inside:
        inside = [min(samples, key=lambda s: min(abs(s[0] - start),
                                                 abs(s[0] - end)))[1]]
    return sum(inside) / len(inside)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cpu", type=int, required=True)
    args = parser.parse_args(argv)
    os.sched_setaffinity(0, {args.cpu})
    print(json.dumps(sample_until_eof(sys.stdin)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
