"""The repository benchmark: cold post-OPC timing workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload rca8_rule_aclv --seed 1 \\
        --seconds 30 --trace 0

One closed-loop client: each repetition is a fresh process
(``perfbench/rep.py``) started only after the previous one ended, with a
serial flow (``jobs=1``).  A fresh process pays what a ``repro flow``
user pays: cold SOCS kernel cache, cold flow context.  Repetitions are
started while one as long as the last still ends within ``--seconds``
(at least one).

The run pins itself, and so every repetition, to one CPU, and runs the
speed probe of ``perfbench/speed.py`` on the same CPU throughout.  Each
time is reported at the probe's reference speed: the measured interval
times the CPU's mean speed over it.  On a shared host, whose CPUs slow
down by up to 1.5x within seconds, this removes most of the host from
the figure; on an uncontended CPU the speed is about 1 and the time is
the wall time.  The measured walls and speeds are printed beside it.

``--trace 0`` reports the end-to-end metrics: medians over the
repetitions of ``wall_s`` and ``peak_rss_mb``; ``setup_s`` as the median
over the repetitions plus ``SETUP_SAMPLES`` set-up-only processes, which
run first and so also warm the file cache; and the two CD error metrics,
outside every timed region.  The CD errors are a deterministic function
of the program source, so one process computes them per source tree and
later runs in the same checkout read them from ``.bench_out/``.

``--trace 1`` runs the same repetitions without shims, then one traced
repetition, and reports its per-layer metrics plus the tracing cost:
traced ``wall_s`` over the untraced median, and (printed only) traced
minus untraced ``wall_s`` with its base.

Every repetition checks its outputs; a failed check or a crashed
process makes the run incorrect and the exit code 1.  The last line of
standard output is the JSON result.  See ``perfbench/README.md`` for
the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import speed  # noqa: E402
from rep import TRACE_PREFIX, WORKLOADS, declared_units  # noqa: E402

#: set-up-only processes per run, before the timed repetitions
SETUP_SAMPLES = 3
#: a run never outlives this many seconds
RUN_DEADLINE_S = 170.0


class RepetitionError(RuntimeError):
    """A repetition process failed, timed out or printed no result."""


class Runner:
    """Spawns repetition processes, one at a time, under one deadline."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.env = dict(os.environ)
        src = os.path.join(ROOT, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, self.env.get("PYTHONPATH")) if p)
        # A serial flow on one core.  Two-thread OpenBLAS made rca8 slower
        # (16.9 s against 16.2 s on a 2-vCPU Xeon) and spins on the second
        # core, where neighbouring load then shows up in the wall.
        self.env["OPENBLAS_NUM_THREADS"] = self.env["OMP_NUM_THREADS"] = "1"
        self.spawned = 0
        # Every repetition and the speed probe share one CPU, so the
        # probe sees the speed the repetition ran at.
        self.cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {self.cpu})
        self.probe = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "speed.py"),
             "--cpu", str(self.cpu)],
            cwd=ROOT, env=self.env, stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)
        self.samples: List[List[float]] = []

    def __enter__(self) -> "Runner":
        return self

    def __exit__(self, *exc_info) -> None:
        self._end_probe()

    def _end_probe(self) -> None:
        if self.probe.returncode is not None:
            return
        try:
            out, _ = self.probe.communicate(input="", timeout=10)
            self.samples = json.loads(out)
        except (subprocess.TimeoutExpired, ValueError):
            self.probe.kill()
            self.probe.wait()

    def stop_probe(self) -> None:
        """End the probe, wait for it and keep its samples."""
        self._end_probe()
        if not self.samples:
            raise RepetitionError("the speed probe gave no samples")

    def spawn(self, mode: str) -> Dict[str, Any]:
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise RepetitionError(f"{mode}: no time left in the run")
        command = [sys.executable, os.path.join(HERE, "rep.py"),
                   "--workload", self.workload, "--seed", str(self.seed),
                   "--mode", mode]
        # Every process gets another string-hash seed, as a user's does,
        # so output that hangs on set or dict order fails the digest
        # comparison; the seeds still follow from the workload seed.
        self.spawned += 1
        env = dict(self.env, PYTHONHASHSEED=str(
            (self.seed * 1009 + self.spawned) % 2**32))
        spawned_at = time.monotonic()
        try:
            # subprocess.run kills and reaps the child on timeout.
            done = subprocess.run(
                command + ["--spawned-at", repr(spawned_at)], cwd=ROOT,
                env=env, stdout=subprocess.PIPE, timeout=timeout,
                text=True)
        except subprocess.TimeoutExpired as exc:
            raise RepetitionError(f"{mode}: timed out") from exc
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            raise RepetitionError(f"{mode}: exit code {done.returncode}")
        try:
            return json.loads(lines[-1])
        except ValueError as exc:
            raise RepetitionError(f"{mode}: no JSON result") from exc

    def repetitions(self, seconds: float) -> List[Dict[str, Any]]:
        """Timed repetitions within ``seconds``: one more is started while
        one as long as the last still fits (at least one)."""
        start = time.monotonic()
        reps: List[Dict[str, Any]] = []
        last = 0.0
        while not reps or time.monotonic() - start + last <= seconds:
            began = time.monotonic()
            reps.append(self.spawn("timed"))
            last = time.monotonic() - began
        return reps


def _checked(reps: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Sum the repetitions' checks; outputs must agree across them."""
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    digests = {r["digest"] for r in reps}
    if len(digests) != 1:
        failed += 1  # the digest comparison is one more operation
    return {"attempted": attempted + 1, "failed": failed,
            "digest": sorted(digests)[0],
            "failures": {k: v for r in reps for k, v in r["failures"].items()}}


def source_key() -> str:
    """Digest of the program's and the benchmark's Python source."""
    digest = hashlib.sha256()
    for top in (os.path.join(ROOT, "src", "repro"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                if not name.endswith(".py"):
                    continue
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def cd_errors(runner: Runner) -> Dict[str, Any]:
    """The accuracy process's result, computed once per source tree."""
    path = os.path.join(ROOT, ".bench_out",
                        f"cd-errors-{source_key()[:32]}.json")
    if os.path.isfile(path):
        with open(path) as fh:
            return json.load(fh)
    acc = runner.spawn("accuracy")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path + ".tmp", "w") as fh:
        json.dump(acc, fh)
    os.replace(path + ".tmp", path)
    return acc


def reference_times(runner: Runner, reps: List[Dict[str, Any]]) -> None:
    """Give each repetition ``ref_wall_s`` and ``ref_setup_s``: its times
    at the probe's reference speed (see ``perfbench/speed.py``)."""
    runner.stop_probe()
    for rep in reps:
        rep["setup_speed"] = speed.speed_over(
            runner.samples, rep["setup_end"] - rep["setup_s"],
            rep["setup_end"])
        rep["ref_setup_s"] = rep["setup_s"] * rep["setup_speed"]
        if "wall_s" in rep:
            rep["speed"] = speed.speed_over(runner.samples, rep["start"],
                                            rep["end"])
            rep["ref_wall_s"] = rep["wall_s"] * rep["speed"]


def measure(workload: str, seed: int, seconds: float) -> Dict[str, Any]:
    with Runner(workload, seed) as runner:
        setups = [runner.spawn("setup") for _ in range(SETUP_SAMPLES)]
        reps = runner.repetitions(seconds)
        acc = cd_errors(runner)
        reference_times(runner, setups + reps)
    result = _checked(reps)
    result["attempted"] += 1
    result["failed"] += 0 if acc["ok"] else 1
    result["repetitions"] = reps
    result["metrics"] = {
        "wall_s": statistics.median(r["ref_wall_s"] for r in reps),
        "setup_s": statistics.median(r["ref_setup_s"]
                                     for r in setups + reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "cd_abbe_max_err_nm": acc["cd_abbe_max_err_nm"],
        "cd_window_max_err_nm": acc["cd_window_max_err_nm"],
    }
    return result


def measure_traced(workload: str, seed: int, seconds: float) -> Dict[str, Any]:
    with Runner(workload, seed) as runner:
        reps = runner.repetitions(seconds)
        traced = runner.spawn("traced")
        reference_times(runner, reps + [traced])
    result = _checked(reps + [traced])
    result["repetitions"] = reps
    untraced = statistics.median(r["ref_wall_s"] for r in reps)
    metrics = dict(traced["layers"])
    metrics[TRACE_PREFIX + "untraced_wall_s"] = untraced
    metrics[TRACE_PREFIX + "traced_wall_s"] = traced["ref_wall_s"]
    metrics[TRACE_PREFIX + "traced_over_untraced"] = (traced["ref_wall_s"]
                                                      / untraced)
    metrics[TRACE_PREFIX + "spans"] = float(traced["spans"])
    result["metrics"] = metrics
    # Printed, not declared: the difference is about 0 and may be negative.
    result["overhead_s"] = traced["ref_wall_s"] - untraced
    result["spans_path"] = traced["spans_path"]
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no program source under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2

    measure_fn = measure_traced if args.trace else measure
    try:
        result = measure_fn(args.workload, args.seed, args.seconds)
    except RepetitionError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        result = {"attempted": 1, "failed": 1, "metrics": {}}

    metrics = result["metrics"]
    units = declared_units("per_layer" if args.trace else "end_to_end")
    if metrics and set(metrics) != set(units):
        print("perfbench: metrics differ from BENCHMARK.json: "
              f"{sorted(set(metrics) ^ set(units))}", file=sys.stderr)
        metrics = {}
        result["failed"] += 1
    correct = (result["failed"] == 0 and bool(metrics)
               and all(math.isfinite(v) for v in metrics.values()))
    failed_fraction = result["failed"] / result["attempted"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(result.get('repetitions', []))} repetition(s), "
          f"output digest {result.get('digest', '-')[:16]}")
    for rep in result.get("repetitions", []):
        print(f"  repetition: wall {rep['wall_s']:.4g} s at CPU speed "
              f"{rep['speed']:.3f} = {rep['ref_wall_s']:.4g} s at reference "
              f"speed; set-up {rep['setup_s']:.4g} s at "
              f"{rep['setup_speed']:.3f}")
    for name, value in metrics.items():
        print(f"  {name:<40} {value:.6g} {units[name]}")
    print(f"  {'failed_fraction':<40} {failed_fraction:.6g} ratio "
          f"({result['failed']} of {result['attempted']})")
    for mode, error in result.get("failures", {}).items():
        print(f"  FAILED mode {mode}: {error}")
    if "overhead_s" in result:
        print(f"  tracing overhead (traced - untraced wall_s) "
              f"{result['overhead_s']:+.6g} s on a base of "
              f"{metrics.get(TRACE_PREFIX + 'untraced_wall_s', 0.0):.6g} s")
    if "spans_path" in result:
        print(f"  spans written to {result['spans_path']}")
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
