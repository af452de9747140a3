"""Self-tests of the benchmark: tracing wrappers, self time, output checks.

Run from the root of a checkout:

    python3 -m pytest -q bench
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import workloads  # noqa: E402
from spans import TRACED, Tracer, self_times  # noqa: E402
import wieferich  # noqa: E402
from wieferich import cli, cyclo, ideals, intfactor, places  # noqa: E402
from wieferich.qfield import FieldSpec  # noqa: E402

REFERENCE = json.loads((BENCH / "reference.json").read_text())

# alpha + beta = 1 with alpha a product of two primes above 10^6, so a zero
# rho budget leaves it unfactored and quality raises BudgetExhausted
UNFACTORABLE_QUALITY = ["quality", "-d", "0", "--alpha", str(1000003 * 1000033),
                        f"--beta={1 - 1000003 * 1000033}", "--rho-iterations", "0"]


@pytest.fixture
def tracer():
    t = Tracer(sample_id=1)
    restore = t.install()
    yield t
    restore()


def test_wrapper_passes_values_and_exceptions_through():
    t = Tracer(sample_id=1)
    marker = object()
    error = KeyError("boom")

    def give(x, *, y):
        return marker if x == y else None

    def fail():
        raise error

    assert t.wrap("m.give", give)(1, y=1) is marker
    with pytest.raises(KeyError) as caught:
        t.wrap("m.fail", fail)()
    assert caught.value is error
    assert list(t.span_parent) == [-1, -1]
    assert all(end >= start for start, end in zip(t.span_start, t.span_end))


def test_installed_wrappers_keep_package_results(tracer):
    n = 2**64 + 1
    assert intfactor.factorize(n) == intfactor.factorize.__wrapped__(n)
    gauss = FieldSpec.from_d(1)
    P = ideals.primes_above(gauss, 13)[0]
    a = gauss.element(2, 1)
    assert ideals.residue_order(P, a) == ideals.residue_order.__wrapped__(P, a)
    metrics = tracer.layer_metrics()
    assert metrics["intfactor.factorize.calls"] >= 2
    assert metrics["ideals.residue_order.calls"] == 1


def lookup(module_name: str, qualname: str):
    obj = sys.modules[f"wieferich.{module_name}"]
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


def test_every_binding_of_a_traced_name_is_patched_and_restored():
    originals = {name: lookup(*name) for name in TRACED}
    restore = Tracer(sample_id=1).install()
    try:
        for name, original in originals.items():
            assert lookup(*name).__wrapped__ is original, name
        assert ideals.factorize is intfactor.factorize
        assert places.primes_up_to is intfactor.primes_up_to
        assert cyclo.factor_principal is ideals.factor_principal
        assert wieferich.factorize is intfactor.factorize
    finally:
        restore()
    for name, original in originals.items():
        assert lookup(*name) is original, name


def test_budget_exhausted_reaches_cli_main(tracer, capsys):
    assert cli.main(UNFACTORABLE_QUALITY) == cli.EXIT_BUDGET
    assert tracer.layer_metrics()["cli.main.calls"] == 1
    assert "error:" in capsys.readouterr().err


def test_budget_exhausted_without_tracing_gives_the_same_exit(capsys):
    assert cli.main(UNFACTORABLE_QUALITY) == cli.EXIT_BUDGET


def test_invariant_violation_reaches_cli_main(monkeypatch, capsys):
    monkeypatch.setattr(places, "is_wieferich_place", lambda P, a: True)
    t = Tracer(sample_id=1)
    restore = t.install()
    try:
        code = cli.main(["census", "-d", "1", "-a", "2,1", "--n-max", "3"])
    finally:
        restore()
    assert code == cli.EXIT_VIOLATION
    assert "invariant violation" in capsys.readouterr().err


def test_residue_order_budget_exhaustion_is_counted(tracer):
    gauss = FieldSpec.from_d(1)
    P = ideals.PrimeIdeal(gauss, 1000003, ideals.KIND_INERT)
    tiny = intfactor.FactorBudget(trial_limit=2, rho_iterations=0)
    with pytest.raises(ideals.BudgetExhausted):
        ideals.residue_order(P, gauss.element(2, 1), tiny)
    assert tracer.layer_metrics()["ideals.residue_order.budget_exhausted"] == 1


def test_self_time_on_a_synthetic_tree():
    # root [0, 10] has children [1, 3] and [2, 5] (overlapping) and [8, 12]
    # (running past the root); the grandchild [1.5, 2.5] belongs to span 1
    parents = [-1, 0, 0, 0, 1]
    starts = [0.0, 1.0, 2.0, 8.0, 1.5]
    ends = [10.0, 3.0, 5.0, 12.0, 2.5]
    assert self_times(parents, starts, ends) == pytest.approx([4.0, 1.0, 3.0, 4.0, 1.0])


def test_self_time_of_traced_nesting():
    ticks = iter(range(100))
    t = Tracer(sample_id=1, clock=lambda: float(next(ticks)))
    inner = t.wrap("m.inner", lambda: None)
    outer = t.wrap("m.outer", lambda: (inner(), inner()))
    outer()
    # outer 0..5, inner 1..2 and 3..4
    assert list(t.span_parent) == [-1, 0, 0]
    assert self_times(t.span_parent, t.span_start, t.span_end) == [3.0, 1.0, 1.0]


def census_output(records: list, skipped: list, n_max: int = 80) -> list:
    summary = {"k": 1, "n_max": n_max, "skipped_levels": skipped, "record_count": len(records)}
    lines = [json.dumps(r) for r in records] + [json.dumps({"summary": summary})]
    return [[0, "\n".join(lines) + "\n"]]


def test_census_check_accepts_the_reference():
    ref = REFERENCE["census-gauss"]
    outcome = workloads.check("census-gauss", [], census_output(ref["records"], ref["skipped_levels"]), ref)
    assert outcome.ok, outcome.message
    assert (outcome.levels_completed, outcome.levels_skipped) == (76, 4)


@pytest.mark.parametrize("field, value", [("p", 41), ("level", 4), ("norm", 7)])
def test_census_check_rejects_a_tampered_record(field, value):
    ref = REFERENCE["census-gauss"]
    records = [dict(r) for r in ref["records"]]
    records[2][field] = value
    outcome = workloads.check("census-gauss", [], census_output(records, ref["skipped_levels"]), ref)
    assert not outcome.ok


def test_census_check_rejects_a_prime_not_dividing_its_level():
    ref = REFERENCE["census-gauss"]
    records = ref["records"] + [{"p": 6101, "kind": "split", "t": 1, "norm": 6101,
                                 "level": 80, "residue_class": 0}]
    outcome = workloads.check("census-gauss", [], census_output(records, ref["skipped_levels"]), ref)
    assert not outcome.ok


def test_census_check_accepts_an_extra_completed_level():
    ref = REFERENCE["census-gauss"]
    # 6101 = 1 + 100 * 61 divides Nm(Phi_61(2 + i)); the reference skipped level 61
    assert workloads.gauss_cyclotomic_norm(2, 1, 61) % 6101 == 0
    records = [r for r in ref["records"] if r["level"] < 61]
    records.append({"p": 6101, "kind": "split", "t": 1, "norm": 6101, "level": 61, "residue_class": 0})
    records += [r for r in ref["records"] if r["level"] > 61]
    skipped = [n for n in ref["skipped_levels"] if n != 61]
    outcome = workloads.check("census-gauss", [], census_output(records, skipped), ref)
    assert outcome.ok, outcome.message
    assert (outcome.levels_completed, outcome.levels_skipped) == (77, 3)


def test_scan_and_density_checks_compare_with_the_reference():
    scan = REFERENCE["scan-gauss"]
    lines = [json.dumps(h) for h in scan["hits"]]
    summary = {"tested": scan["tested"], "wieferich_count": len(scan["hits"])}
    good = "\n".join(lines + [json.dumps({"summary": summary})]) + "\n"
    assert workloads.check("scan-gauss", [], [[0, good]], scan).ok
    assert not workloads.check("scan-gauss", [], [[0, good.replace("461", "463")]], scan).ok
    density = REFERENCE["density"]
    inputs = workloads.make_inputs("density", 0)
    assert workloads.check("density", inputs, density["counts"], density).ok
    assert not workloads.check("density", inputs, density["counts"][:-1] + [0], density).ok


def test_verify_pool_members_are_conjugates():
    for d, members in workloads.VERIFY_POOL:
        spec = FieldSpec.from_d(d)
        first = spec.parse_element(members[0])
        assert {spec.parse_element(m) for m in members} <= {first, first.conjugate()}


def test_verify_inputs_depend_only_on_the_seed():
    assert workloads.make_inputs("verify-sweep", 5) == workloads.make_inputs("verify-sweep", 5)
    assert workloads.make_inputs("verify-sweep", 5) != workloads.make_inputs("verify-sweep", 6)
    assert len(workloads.make_inputs("verify-sweep", 5)) == len(workloads.VERIFY_POOL)


def test_a_sample_over_the_time_limit_counts_as_failed(monkeypatch):
    import run

    monkeypatch.setattr(run, "SAMPLE_TIMEOUT_S", 0.05)
    r = run.Run("density", seed=0, seconds=1)
    r.sample(trace=False)
    assert (r.attempted, r.failed, r.samples, r.correct) == (1, 1, [], True)
    assert "exceeded" in r.errors[0]
