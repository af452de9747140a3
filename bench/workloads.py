"""Workload definitions: inputs from a seed, execution, and output checks.

Each workload is a closed loop with one client: a sample runs its calls one
after another in a single fresh interpreter.  Inputs depend only on the
workload name and the seed; the program sees only the generated argv (or,
for the library workload, the generated arguments).

Work units, used for work_completed and work_per_s:
  census-gauss   levels completed (n_max minus skipped levels)
  verify-sweep   (base, level) pairs completed over all bases
  scan-gauss     places tested
  density        values of n counted, summed over the calls
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stdout
from dataclasses import dataclass

CENSUS_BASE = (2, 1)
CENSUS_ARGV = ["census", "-d", "1", "-a", "2,1", "--n-max", "80"]
SCAN_ARGV = ["classify", "-d", "1", "-a", "2,1", "--p-max", "400000"]
VERIFY_N_MAX = 32
DENSITY_X = 30000
DENSITY_KS = tuple(range(1, 11))

# Verify bases as cost classes.  A base and its complex conjugate have the
# same norms at every level, so they factor the same integers and cost the
# same; the seed only picks one member of each class and the order.  Total
# work is therefore the same for every seed.  Bases whose levels up to 32 are
# dominated by rho splitting were left out so that the workload stays bound
# by small complete factorizations, residue orders and the checks.
VERIFY_POOL = (
    (0, ("2",)), (0, ("3",)), (0, ("5",)), (0, ("6",)), (0, ("7",)), (0, ("10",)),
    (1, ("2,1", "2,-1")), (1, ("3,1", "3,-1")), (1, ("1,2", "1,-2")), (1, ("2,3", "2,-3")),
    (2, ("1,1", "1,-1")), (2, ("3,1", "3,-1")), (2, ("1,2", "1,-2")), (2, ("2,1", "2,-1")),
    (3, ("2,1", "3,-1")), (3, ("1,2", "3,-2")),
    (7, ("1,1", "2,-1")), (7, ("2,1", "3,-1")),
    (11, ("1,1", "2,-1")), (11, ("2,1", "3,-1")), (11, ("0,2", "2,-2")),
)


# the reasons for each workload are in BENCHMARK.json and bench/README.md
WORKLOADS = ("census-gauss", "verify-sweep", "scan-gauss", "density")


def make_inputs(name: str, seed: int) -> list:
    """The calls of one sample: argv lists, or [x, k] pairs for density."""
    if name == "census-gauss":
        return [CENSUS_ARGV]
    if name == "scan-gauss":
        return [SCAN_ARGV]
    if name == "density":
        return [[DENSITY_X, k] for k in DENSITY_KS]
    if name == "verify-sweep":
        rng = random.Random(seed)
        calls = [["verify", "-d", str(d), f"-a={rng.choice(members)}",
                  "--n-max", str(VERIFY_N_MAX), "--format", "json"]
                 for d, members in VERIFY_POOL]
        rng.shuffle(calls)
        return calls
    raise ValueError(f"unknown workload {name!r}")


def execute(name: str, inputs: list) -> list:
    """Run the calls in this process; CLI calls give [exit code, stdout]."""
    if name == "density":
        from wieferich import cyclo
        return [cyclo.high_totient_count(x, k) for x, k in inputs]
    from wieferich import cli
    outputs = []
    for argv in inputs:
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            code = cli.main(list(argv))
        outputs.append([code, buffer.getvalue()])
    return outputs


@dataclass
class Outcome:
    """Result of checking one sample's outputs."""

    ok: bool
    message: str
    work: int
    levels_completed: int = 0
    levels_skipped: int = 0


def _json_lines(text: str) -> list[dict]:
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def _mobius(n: int) -> int:
    sign, m, p = 1, n, 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if m > 1 else sign


def gauss_cyclotomic_norm(x: int, y: int, n: int) -> int:
    """Nm(Phi_n(x + yi)) as the Mobius product of Nm((x + yi)^d - 1), d | n.

    Independent of the package: plain Gaussian-integer powers and integer
    division, used to confirm that each census prime divides its level.
    """
    num, den = 1, 1
    for d in range(1, n + 1):
        if n % d:
            continue
        sign = _mobius(n // d)
        if sign == 0:
            continue
        re, im = 1, 0
        for _ in range(d):
            re, im = re * x - im * y, re * y + im * x
        value = (re - 1) ** 2 + im**2
        if sign > 0:
            num *= value
        else:
            den *= value
    quotient, rest = divmod(num, den)
    if rest:
        raise ArithmeticError("cyclotomic norm product is not exact")
    return quotient


def _check_census(outputs: list, reference: dict) -> Outcome:
    code, text = outputs[0]
    if code != 0:
        return Outcome(False, f"census exit code {code}", 0)
    lines = _json_lines(text)
    if not lines or "summary" not in lines[-1]:
        return Outcome(False, "census output has no summary line", 0)
    summary = lines[-1]["summary"]
    records = lines[:-1]
    k, n_max = summary["k"], summary["n_max"]
    skipped = set(summary["skipped_levels"])
    first_ref_skip = min(reference["skipped_levels"], default=n_max + 1)
    expected = [r for r in reference["records"] if r["level"] < first_ref_skip]
    early = [r for r in records if r["level"] < first_ref_skip]
    if early != expected:
        return Outcome(False, f"census records below level {first_ref_skip} differ from the reference", 0)
    if summary["record_count"] != len(records):
        return Outcome(False, "census record_count disagrees with the records printed", 0)
    norms: dict[int, int] = {}
    for r in records:
        level = r["level"]
        if r["norm"] % k != 1 % k or r["residue_class"] != r["norm"] % k:
            return Outcome(False, f"census record {r} is outside the class 1 mod {k}", 0)
        if r["norm"] not in (r["p"], r["p"] ** 2) or level in skipped or not 1 <= level <= n_max:
            return Outcome(False, f"census record {r} is inconsistent", 0)
        if level not in norms:
            norms[level] = gauss_cyclotomic_norm(*CENSUS_BASE, level)
        if norms[level] % r["p"]:
            return Outcome(False, f"census prime {r['p']} does not divide level {level}", 0)
    completed = n_max - len(skipped)
    return Outcome(True, "ok", completed, completed, len(skipped))


def _check_verify(inputs: list, outputs: list) -> Outcome:
    completed = skipped = 0
    for argv, (code, text) in zip(inputs, outputs):
        base = " ".join(argv[1:4])
        if code != 0:
            return Outcome(False, f"verify {base} exit code {code}", 0)
        payload = json.loads(text)
        trend = payload.get("trend_summary", {})
        if (not payload["passed"] or payload["violations_total"] != 0
                or not all(r["passed"] and not r["violations"] for r in payload["reports"])
                or trend.get("identity_violations")):
            return Outcome(False, f"verify {base} reported violations", 0)
        completed += trend["complete_levels"]
        skipped += len(trend["skipped_levels"])
    if len(outputs) != len(inputs):
        return Outcome(False, "verify produced fewer outputs than calls", 0)
    return Outcome(True, "ok", completed, completed, skipped)


def _check_scan(outputs: list, reference: dict) -> Outcome:
    code, text = outputs[0]
    if code != 0:
        return Outcome(False, f"scan exit code {code}", 0)
    lines = _json_lines(text)
    hits, summary = lines[:-1], lines[-1].get("summary", {})
    if hits != reference["hits"] or summary.get("tested") != reference["tested"]:
        return Outcome(False, "scan hits or tested count differ from the reference", 0)
    if summary.get("wieferich_count") != len(hits):
        return Outcome(False, "scan summary count disagrees with the hits printed", 0)
    return Outcome(True, "ok", summary["tested"])


def _check_density(inputs: list, outputs: list, reference: dict) -> Outcome:
    if outputs != reference["counts"]:
        return Outcome(False, f"density counts {outputs} differ from the reference", 0)
    return Outcome(True, "ok", sum(x for x, _ in inputs))


def check(name: str, inputs: list, outputs: list, reference: dict) -> Outcome:
    """Check one sample's outputs; reference is the workload's stored entry."""
    if name == "census-gauss":
        return _check_census(outputs, reference)
    if name == "verify-sweep":
        return _check_verify(inputs, outputs)
    if name == "scan-gauss":
        return _check_scan(outputs, reference)
    if name == "density":
        return _check_density(inputs, outputs, reference)
    raise ValueError(f"unknown workload {name!r}")


def reference_entry(name: str, outputs: list) -> dict:
    """The stored reference for a workload, from a sample's outputs."""
    if name == "census-gauss":
        lines = _json_lines(outputs[0][1])
        return {"argv": CENSUS_ARGV, "records": lines[:-1],
                "skipped_levels": lines[-1]["summary"]["skipped_levels"]}
    if name == "scan-gauss":
        lines = _json_lines(outputs[0][1])
        return {"argv": SCAN_ARGV, "hits": lines[:-1], "tested": lines[-1]["summary"]["tested"]}
    if name == "density":
        return {"x": DENSITY_X, "ks": list(DENSITY_KS), "counts": outputs}
    return {}
