"""One benchmark sample, run in a fresh interpreter by run.py.

Imports wieferich.cli first and reports the monotonic clock reading right
after the import, so the parent can time set-up from before it spawned this
process.  Then it reads a JSON request on stdin, runs the workload's calls
(traced or not) between two runs of a fixed calibration loop, and prints one
JSON object on stdout.  A request without a workload only measures set-up.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import wieferich.cli  # noqa: E402  (set-up ends here)

IMPORTED_AT = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop that does not touch the package.

    Mostly allocation of many small objects, with some big-integer modular
    powers and a little small-integer arithmetic.  Over series of samples of
    every workload, this mix tracked the host's speed changes best.
    """
    started = time.perf_counter()
    acc = 0
    for i in range(60_000):
        acc = (acc * 31 + i) % 1_000_003
    x, modulus = 3, (1 << 521) - 1
    for _ in range(3500):
        x = pow(x, 65537, modulus)
    # small batches, so that the loop never raises the sample's peak RSS
    for _ in range(150):
        pairs = [(i, i + 1) for i in range(4_000)]
        acc += sum(a for a, _ in pairs)
    return time.perf_counter() - started


def main() -> int:
    request = json.load(sys.stdin)
    reply = {"imported_at": IMPORTED_AT, "package": wieferich.cli.__file__}
    name = request.get("workload")
    if name is not None:
        tracer = None
        if request["trace"]:
            tracer = Tracer(request["sample_id"])
            tracer.install()
        before = calibrate()
        started = time.perf_counter()
        outputs = workloads.execute(name, request["inputs"])
        reply["run_s"] = time.perf_counter() - started
        # read before the second loop, which allocates on top of the workload's heap
        reply["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        reply["calibration_s"] = (before + calibrate()) / 2
        reply["outputs"] = outputs
        if tracer is not None:
            reply["layers"] = tracer.layer_metrics()
            tracer.write_spans(request["spans_path"])
    json.dump(reply, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
