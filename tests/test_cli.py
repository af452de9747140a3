"""Command line contract: determinism, format round-trips, exit codes."""

import csv
import io
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from wieferich import cli


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_json_lines(text):
    return [json.loads(line) for line in text.splitlines() if line]


GOLDEN = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text())


def run_package(args, environ=None, python=sys.executable, **kwargs):
    """Run an interpreter on this package in a subprocess, with WIEFERICH_*
    variables unset but for those in environ."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("WIEFERICH_")}
    env.update(environ or {})
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(cli.__file__).parents[1]), env.get("PYTHONPATH")]))
    return subprocess.run([python, *args], capture_output=True, text=True, env=env, **kwargs)


# reads a JSON list of argv from stdin, writes [exit code, stdout, stderr] of each
REPLAY = (
    "import contextlib, io, json, sys\n"
    "from wieferich import cli\n"
    "out = []\n"
    "for argv in json.load(sys.stdin):\n"
    "    stdout, stderr = io.StringIO(), io.StringIO()\n"
    "    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):\n"
    "        code = cli.main(argv)\n"
    "    out.append([code, stdout.getvalue(), stderr.getvalue()])\n"
    "sys.stdout.write(json.dumps(out))\n"
)


def replay(argvs, *flags, python=sys.executable):
    """[exit code, stdout, stderr] of each CLI call, run in one subprocess."""
    proc = run_package([*flags, "-c", REPLAY], python=python, input=json.dumps(argvs), timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_golden_outputs_byte_identical(capsys, monkeypatch):
    """Exit code, stdout and stderr of fixed invocations, pinned byte for byte.

    The cases cover the README examples, low-budget levels left incomplete,
    a prime-level census, a small-base census, the decompose error paths and
    the CSV tables of classify (including a place the base lies in), decompose,
    quality and field, and an exceptions bound of 10**12, far past the last
    field that adds an element.  They also pin the base-info JSON of classify,
    an inert place row, a place the base lies in as JSON, the rational field
    in both formats, the --prime/--p-max conflict, the census and verify
    refusals of a magnitude-one base and a malformed quality element.
    """
    monkeypatch.delenv(cli.ENV_TRIAL_LIMIT, raising=False)
    monkeypatch.delenv(cli.ENV_RHO_ITERATIONS, raising=False)
    for case in GOLDEN:
        got = list(run_cli(list(case["argv"]), capsys))
        assert got == [case["exit"], case["stdout"], case["stderr"]], case["argv"]


def test_golden_outputs_unchanged_under_optimize():
    """The golden cases replayed under python -O: no output depends on assert."""
    got = replay([case["argv"] for case in GOLDEN], "-O")
    assert len(got) == len(GOLDEN) == 39
    for case, result in zip(GOLDEN, got):
        assert result == [case["exit"], case["stdout"], case["stderr"]], case["argv"]


CENSUS_GAUSS = ["census", "-d", "1", "-a", "2,1", "--n-max", "80"]
SCAN_GAUSS = ["classify", "-d", "1", "-a", "2,1", "--p-max", "200000"]


@pytest.mark.parametrize("minor", range(10, 14))
def test_golden_outputs_unchanged_under_other_interpreters(minor):
    """The package promises Python 3.10 and later, and its fork work queue
    leans on os.fork, pickle and signal details that differ between versions:
    the golden cases, a pooled census and a pooled scan must print the same
    bytes under every CPython found."""
    if sys.version_info[:2] == (3, minor):
        pytest.skip("the running interpreter")
    python = shutil.which(f"python3.{minor}")
    if python is None or subprocess.run([python, "-c", "pass"], capture_output=True, timeout=60).returncode:
        pytest.skip(f"no runnable python3.{minor}")
    *got, census, scan = replay([case["argv"] for case in GOLDEN] + [CENSUS_GAUSS, SCAN_GAUSS],
                                python=python)
    for case, result in zip(GOLDEN, got, strict=True):
        assert result == [case["exit"], case["stdout"], case["stderr"]], case["argv"]
    assert [census, scan] == replay([CENSUS_GAUSS, SCAN_GAUSS])
    assert census[0] == scan[0] == 0 and census[2] == scan[2] == ""


class TestFieldCommand:
    def test_describes_ring(self, capsys):
        code, out, _ = run_cli(["field", "-d", "1"], capsys)
        assert code == 0
        info = json.loads(out)
        assert info["discriminant"] == -4
        assert info["omega"] == "i"

    # huge d run in a subprocess, so a timeout stops a regression to an
    # unbounded trial division instead of hanging the suite

    def test_huge_prime_d_is_described(self):
        proc = run_package(["-m", "wieferich.cli", "field", "-d", str(10**20 + 39)], timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["d"] == 10**20 + 39

    def test_undecidable_d_is_usage_error(self):
        # the product of the primes after 10**19 and after 3*10**19 (128 bits)
        # resists the default budget, so squarefreeness stays undecided
        d = 10000000000000000051 * 30000000000000000041
        proc = run_package(["-m", "wieferich.cli", "field", "-d", str(d)], timeout=60)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == f"error: cannot decide whether {d} is squarefree within the factoring budget\n"

    def test_rational(self, capsys):
        code, out, _ = run_cli(["field", "-d", "0"], capsys)
        assert code == 0
        assert json.loads(out)["mode"] == "rational"


class TestClassifyCommand:
    def test_base_only(self, capsys):
        code, out, _ = run_cli(["classify", "-d", "1", "-a", "2,1"], capsys)
        assert code == 0
        assert json.loads(out)["classification"] == "eligible"

    def test_prime_places(self, capsys):
        code, out, _ = run_cli(["classify", "-d", "1", "-a", "2,1", "--prime", "5"], capsys)
        assert code == 0
        lines = parse_json_lines(out)
        assert lines[0]["wieferich"] is False
        assert lines[1]["note"] == "base lies in this place"

    def test_scan_finds_wieferich(self, capsys):
        code, out, _ = run_cli(
            ["classify", "-d", "0", "-a", "2", "--p-max", "4000"], capsys
        )
        assert code == 0
        lines = parse_json_lines(out)
        assert [line["p"] for line in lines[:-1]] == [1093, 3511]
        assert lines[-1]["summary"]["wieferich_count"] == 2

    @pytest.mark.parametrize("p_max", ["0", "1", "-5"])
    def test_scan_bound_below_two_is_usage_error(self, capsys, p_max):
        code, out, err = run_cli(["classify", "-d", "1", "-a", "2,1", f"--p-max={p_max}"], capsys)
        assert code == 1
        assert err == "error: p_max must be >= 2\n"
        assert out == ""

    def test_prime_and_pmax_conflict(self, capsys):
        code, _, err = run_cli(
            ["classify", "-d", "1", "-a", "2,1", "--prime", "5", "--p-max", "10"], capsys
        )
        assert code == 1
        assert "not both" in err


class TestDecomposeCommand:
    def test_json_payload(self, capsys):
        code, out, _ = run_cli(["decompose", "-d", "1", "-a", "2,1", "-n", "2"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["squarefree"] == [
            {"p": 5, "kind": "split", "t": 2, "norm": 5, "exponent": 1}
        ]
        assert payload["powerful"] == [
            {"p": 2, "kind": "ramified", "t": 1, "norm": 2, "exponent": 2}
        ]
        assert payload["complete"] is True

    def test_csv_rows(self, capsys):
        code, out, _ = run_cli(
            ["decompose", "-d", "1", "-a", "2,1", "-n", "2", "--format", "csv"], capsys
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        parts = {(r["part"], r["p"]) for r in rows}
        assert ("squarefree", "5") in parts
        assert ("powerful", "2") in parts


class TestCensusCommand:
    def test_deterministic_bytes(self, capsys):
        args = ["census", "-d", "1", "-a", "2,1", "-k", "3", "--n-max", "8"]
        code1, out1, _ = run_cli(args, capsys)
        code2, out2, _ = run_cli(args, capsys)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_csv_json_round_trip(self, capsys):
        args = ["census", "-d", "1", "-a", "2,1", "-k", "3", "--n-max", "8"]
        _, json_out, _ = run_cli(args, capsys)
        _, csv_out, _ = run_cli(args + ["--format", "csv"], capsys)
        records = parse_json_lines(json_out)[:-1]
        rows = list(csv.DictReader(io.StringIO(csv_out)))
        assert len(rows) == len(records)
        for rec, row in zip(records, rows):
            assert str(rec["p"]) == row["p"]
            assert rec["kind"] == row["kind"]
            assert str(rec["t"]) == row["t"] or (rec["t"] is None and row["t"] == "")
            assert str(rec["norm"]) == row["norm"]
            assert str(rec["level"]) == row["level"]
            assert str(rec["residue_class"]) == row["residue_class"]

    def test_summary_with_x_max(self, capsys):
        code, out, _ = run_cli(
            ["census", "-d", "1", "-a", "2,1", "--n-max", "6", "--x-max", "100"], capsys
        )
        assert code == 0
        summary = parse_json_lines(out)[-1]["summary"]
        assert summary["x_max"] == 100
        assert summary["count_at_x_max"] == sum(
            1 for rec in parse_json_lines(out)[:-1] if rec["norm"] <= 100
        )

    def test_rejects_exception_set_base(self, capsys):
        code, _, err = run_cli(["census", "-d", "1", "-a", "0,1", "--n-max", "5"], capsys)
        assert code == 1
        assert "exception set" in err

    def test_output_file_matches_stdout(self, tmp_path, capsys):
        args = ["census", "-d", "1", "-a", "2,1", "--n-max", "6"]
        _, out, _ = run_cli(args, capsys)
        target = tmp_path / "census.jsonl"
        code, silent, _ = run_cli(args + ["--output", str(target)], capsys)
        assert code == 0
        assert silent == ""
        assert target.read_text() == out

    def test_unwritable_output_is_usage_error(self, tmp_path, capsys):
        target = tmp_path / "missing" / "out.json"
        code, out, err = run_cli(["field", "-d", "1", "--output", str(target)], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")
        assert "Traceback" not in err


class TestVerifyCommand:
    def test_passes(self, capsys):
        code, out, _ = run_cli(["verify", "-d", "1", "-a", "2,1", "--n-max", "6"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True

    def test_violation_exit_code(self, capsys, monkeypatch):
        # force a failing report through the handler to pin the exit mapping
        from wieferich.verify import BoundCheckReport, FullVerification

        def fake_verification(base, n_max, budget):
            bad = BoundCheckReport(tag="upper-norm-bound", parameters={})
            bad.violations.append({"n": 1, "value": 2, "bound": 1})
            return FullVerification(base=base, n_max=n_max, reports=[bad], trend=None)

        monkeypatch.setattr(cli, "run_full_verification", fake_verification)
        code, out, _ = run_cli(["verify", "-d", "1", "-a", "2,1", "--n-max", "2"], capsys)
        assert code == 2
        assert json.loads(out)["passed"] is False

    def test_empty_level_range_is_usage_error(self, capsys):
        code, out, err = run_cli(
            ["verify", "-d", "1", "-a", "2,1", "--n-max", "0", "--format", "csv"], capsys
        )
        assert code == 1
        assert err == "error: n_max must be >= 1\n"
        assert out == ""

    def test_runs_without_mpmath(self):
        # an import of mpmath anywhere in the package fails under this entry
        script = (
            "import sys; sys.modules['mpmath'] = None; from wieferich import cli; "
            "sys.exit(cli.main(['verify', '-d', '1', '-a', '2,1', '--n-max', '10']))"
        )
        proc = run_package(["-c", script])
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["passed"] is True


class TestExceptionsCommand:
    def test_round_trip(self, capsys):
        _, json_out, _ = run_cli(["exceptions", "--d-max", "12"], capsys)
        _, csv_out, _ = run_cli(["exceptions", "--d-max", "12", "--format", "csv"], capsys)
        entries = parse_json_lines(json_out)[:-1]
        rows = list(csv.DictReader(io.StringIO(csv_out)))
        assert len(entries) == len(rows)
        for entry, row in zip(entries, rows):
            assert str(entry["d"]) == row["d"]
            assert str(entry["x"]) == row["x"]
            assert str(entry["y"]) == row["y"]
            assert entry["element"] == row["element"]

    def test_summary_count(self, capsys):
        _, out, _ = run_cli(["exceptions", "--d-max", "12"], capsys)
        assert parse_json_lines(out)[-1]["summary"]["count"] == 33


class TestQualityCommand:
    def test_reports_quality(self, capsys):
        code, out, _ = run_cli(
            ["quality", "-d", "1", "--alpha", "3,4", "--beta=-2,-4"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["max_norm"] == 25
        assert payload["radical_product"] == 50

    def test_budget_exit_code(self, capsys):
        big = str(2**101)
        small = str(-(2**101 - 1))
        code, _, err = run_cli(
            [
                "quality", "-d", "0", "--alpha", big, f"--beta={small}",
                "--trial-limit", "100", "--rho-iterations", "0",
            ],
            capsys,
        )
        assert code == 3
        assert "error" in err

    def test_env_budget_override(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.ENV_TRIAL_LIMIT, "100")
        monkeypatch.setenv(cli.ENV_RHO_ITERATIONS, "0")
        big = str(2**101)
        code, _, _ = run_cli(
            ["quality", "-d", "0", "--alpha", big, f"--beta=-{2**101 - 1}"], capsys
        )
        assert code == 3


class TestUsageErrors:
    @pytest.mark.parametrize("variable,value", [
        (cli.ENV_TRIAL_LIMIT, "abc"),
        (cli.ENV_RHO_ITERATIONS, "1e6"),
    ])
    def test_bad_budget_variable_is_named(self, capsys, monkeypatch, variable, value):
        monkeypatch.setenv(variable, value)
        code, out, err = run_cli(["classify", "-d", "1", "-a", "2,1", "--prime", "5"], capsys)
        assert code == 1
        assert out == ""
        assert err == f"error: {variable} must be an integer, got '{value}'\n"

    @pytest.mark.parametrize("argv, error", [
        (["quality", "-d", "0", "--alpha", "x", "--beta=-8"], "element coordinates must be integers, got 'x'"),
        (["classify", "-d", "1", "-a", "2,1", "--prime", "2", "--p-max", "5"],
         f"{cli.ENV_TRIAL_LIMIT} must be an integer, got 'abc'"),
        (["decompose", "-d", "1", "-a", "0,1", "-n", "3"], f"{cli.ENV_TRIAL_LIMIT} must be an integer, got 'abc'"),
        (["classify", "-d", "4", "-a", "x"], "d must be a squarefree integer >= 1, got 4"),
    ], ids=["element", "conflict", "base", "field"])
    def test_field_then_elements_then_budget(self, capsys, monkeypatch, argv, error):
        """The budget variable is bad in every case.  The field is checked
        first, then the elements, then the budget, then the command's own
        arguments, and only the first bad input is reported."""
        monkeypatch.setenv(cli.ENV_TRIAL_LIMIT, "abc")
        assert run_cli(argv, capsys) == (1, "", f"error: {error}\n")

    @pytest.mark.parametrize("flags, environ", [
        (["--trial-limit", "10000001"], {}),
        ([], {cli.ENV_TRIAL_LIMIT: "10000001"}),
    ])
    def test_trial_limit_past_the_cap_exits_before_any_sieve(self, flags, environ):
        start = time.monotonic()
        proc = run_package(["-m", "wieferich.cli", "census", "-d", "1", "-a", "2,1", "--n-max", "20", *flags],
                           environ, timeout=60)
        assert time.monotonic() - start < 1
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == "error: budget parameters out of range\n"

    def test_unknown_subcommand(self, capsys):
        assert cli.main(["bogus"]) == 1

    def test_no_subcommand(self, capsys):
        assert cli.main([]) == 1

    def test_bad_element_syntax(self, capsys):
        code, _, err = run_cli(["classify", "-d", "1", "-a", "nope"], capsys)
        assert code == 1
        assert "error" in err

    def test_bad_field(self, capsys):
        code, _, err = run_cli(["classify", "-d", "4", "-a", "2,1"], capsys)
        assert code == 1

    def test_help_exits_zero(self, capsys):
        assert cli.main(["--help"]) == 0

    def test_console_script_installed(self):
        proc = subprocess.run(
            [sys.executable, "-m", "wieferich.cli", "field", "-d", "2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["discriminant"] == -8
