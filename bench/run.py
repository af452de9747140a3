"""The wieferich benchmark: one workload, fresh interpreters, checked outputs.

Usage, from the root of a checkout:

    python3 bench/run.py --workload census-gauss --seed 1 --seconds 25 --trace 0

Each sample is a fresh single-threaded interpreter (bench/sample.py) that
runs the workload's calls one after another: a closed loop with one client,
because CLI users pay the cold sieve and polynomial caches on every
invocation.  Samples run back to back until --seconds have been measured.
With --trace 0 the last line of stdout holds the end-to-end metrics (medians
over the samples); with --trace 1 it holds the per-layer metrics of traced
samples, alternated with untraced ones to measure the tracing overhead.
The line before it records provenance.  Exit code 2 means the program could
not be found or no sample succeeded; then no result is printed.

Times are reported in calibrated seconds.  On a shared host the speed of one
core drifts by up to a fifth over minutes, far more than a useful regression
bound.  Each sample therefore times a fixed pure-Python loop before and after
its calls, and its times are scaled by CALIBRATION_REFERENCE_S over that
loop's time, which removes most of the drift.  Raw wall times are in the
provenance line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SAMPLE_TIMEOUT_S = 60
SETUP_PROBES = 5
# the calibration loop's time on the 2-vCPU host the benchmark was defined on
CALIBRATION_REFERENCE_S = 0.21
# a fixed hash seed keeps set and dict orders, and so the work done, the
# same in every sample
SAMPLE_ENV = dict(os.environ, PYTHONHASHSEED="0")


class SampleFailed(Exception):
    """A sample exited badly, timed out, or printed no usable reply."""


def spawn(request: dict) -> dict:
    """Run one sample process; its reply plus setup_s, the time to import."""
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "sample.py")],
                              input=json.dumps(request), capture_output=True, text=True,
                              timeout=SAMPLE_TIMEOUT_S, cwd=ROOT, env=SAMPLE_ENV)
    except subprocess.TimeoutExpired as exc:
        raise SampleFailed(f"sample exceeded {SAMPLE_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise SampleFailed(f"sample exit code {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    try:
        reply = json.loads(proc.stdout)
    except json.JSONDecodeError as exc:
        raise SampleFailed(f"sample printed no JSON reply: {proc.stdout[-200:]!r}") from exc
    if not Path(reply["package"]).resolve().is_relative_to(ROOT / "src"):
        raise SampleFailed(f"sample imported the package from {reply['package']}")
    reply["setup_s"] = reply["imported_at"] - spawned_at
    return reply


def commit_id() -> str:
    """HEAD of the checkout's git metadata, read without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref_path = ROOT / ".git" / ref[5:]
        if ref_path.is_file():
            return ref_path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Run:
    """Samples of one workload, their checks, and the metrics they give."""

    def __init__(self, workload: str, seed: int, seconds: float):
        self.workload = workload
        self.seconds = seconds
        self.inputs = workloads.make_inputs(workload, seed)
        self.reference = json.loads((BENCH / "reference.json").read_text())[workload]
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.errors: list[str] = []
        self.setups: list[float] = []
        self.samples: list[dict] = []
        self.traced: list[dict] = []

    def sample(self, trace: bool) -> None:
        """Spawn one sample, check its outputs and file it."""
        self.attempted += 1
        request = {"workload": self.workload, "inputs": self.inputs, "trace": trace,
                   "sample_id": self.attempted,
                   "spans_path": str(BENCH / "out" / f"spans-{self.workload}-{self.attempted}.csv")}
        try:
            reply = spawn(request)
        except SampleFailed as exc:
            self.failed += 1
            self.errors.append(str(exc))
            return
        self.setups.append(reply["setup_s"])
        outcome = workloads.check(self.workload, self.inputs, reply.pop("outputs"), self.reference)
        if not outcome.ok:
            self.failed += 1
            self.correct = False
            self.errors.append(outcome.message)
            return
        reply["outcome"] = outcome
        (self.traced if trace else self.samples).append(reply)

    def measure(self, traced: bool) -> None:
        """Sample until the next round would end past the deadline."""
        for _ in range(SETUP_PROBES):
            try:
                self.setups.append(spawn({})["setup_s"])
            except SampleFailed as exc:
                self.errors.append(str(exc))
        started = time.monotonic()
        rounds: list[float] = []
        while True:
            round_start = time.monotonic()
            self.sample(trace=False)
            if traced:
                self.sample(trace=True)
            rounds.append(time.monotonic() - round_start)
            elapsed = time.monotonic() - started
            if elapsed + statistics.median(rounds) > self.seconds:
                break

    def end_to_end(self) -> dict:
        ok = self.samples
        scales = [CALIBRATION_REFERENCE_S / s["calibration_s"] for s in ok]
        run_s = [s["run_s"] * scale for s, scale in zip(ok, scales)]
        return {
            "setup_s": statistics.median(self.setups) * statistics.median(scales),
            "run_s": statistics.median(run_s),
            "work_per_s": statistics.median(s["outcome"].work / t for s, t in zip(ok, run_s)),
            "work_completed": ok[0]["outcome"].work,
            "peak_rss_mib": statistics.median(s["peak_rss_mib"] for s in ok),
        }

    def per_layer(self) -> dict:
        names = self.traced[0]["layers"].keys()
        out = {name: statistics.median(s["layers"][name] for s in self.traced) for name in names}
        out["trace.overhead_s"] = (statistics.median(s["run_s"] for s in self.traced)
                                   - statistics.median(s["run_s"] for s in self.samples))
        outcome = self.traced[0]["outcome"]
        out["levels_completed"] = outcome.levels_completed
        out["levels_skipped"] = outcome.levels_skipped
        return out


def metric_units(kind: str) -> dict:
    """Name to unit for the BENCHMARK.json metric list `kind`."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "wieferich" / "__init__.py").is_file():
        print(f"error: no wieferich sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    (BENCH / "out").mkdir(exist_ok=True)
    for old in (BENCH / "out").glob(f"spans-{args.workload}-*.csv"):
        old.unlink()
    run = Run(args.workload, args.seed, args.seconds)
    run.measure(traced=bool(args.trace))
    for message in run.errors:
        print(f"sample error: {message}", file=sys.stderr)
    if not run.samples or (args.trace and not run.traced):
        print("error: no sample succeeded", file=sys.stderr)
        return 2

    if args.trace:
        units, values = metric_units("per_layer"), run.per_layer()
    else:
        units, values = metric_units("end_to_end"), run.end_to_end()
    first = run.samples[0]["outcome"]
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit_id(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "mpmath": metadata.version("mpmath"),
        "samples": len(run.samples),
        "traced_samples": len(run.traced),
        "setup_samples": len(run.setups),
        "levels_completed": first.levels_completed,
        "levels_skipped": first.levels_skipped,
        "wall_run_s": [s["run_s"] for s in run.samples],
        "wall_setup_s": run.setups,
        "calibration_s": [s["calibration_s"] for s in run.samples],
    }
    print(json.dumps({"provenance": provenance}))
    result = {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
