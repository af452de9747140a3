"""Census levels and Wieferich scan segments in fork workers: the same bytes as
one CPU, the same failures, and no process left behind."""

import contextlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from wieferich import FactorBudget, cli, workers

CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
needs_two_cpus = pytest.mark.skipif(CPUS < 2, reason="the pool needs two CPUs in the affinity mask")
needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="the pool forks its workers")
needs_proc = pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="lists processes through /proc")

CENSUS_80 = ["census", "-d", "1", "-a", "2,1", "--n-max", "80"]
CENSUS_160 = ["census", "-d", "1", "-a", "2,1", "--n-max", "160"]
# scans past two whole sieve segments, the least the scan forks for
SCANS = {d: ["classify", "-d", str(d), "-a", "2" if d == 0 else "2,1", "--p-max", "200000"]
         for d in (0, 1, 3, 7)}
SCAN_1E7 = ["classify", "-d", "1", "-a", "2,1", "--p-max", "10000000"]
# a prime of the second sieve segment
SCAN_TARGET = 100003

# Runs cli.main(argv), pinned first to the lowest CPU of the mask when asked.
# A planted failure hits the factorization of one level's norm of 2 + i: it
# raises BudgetExhausted or InvariantViolation, or kills the worker running
# it; or, in a worker only, it kills or raises in the scan of the segment
# holding SCAN_TARGET.  It notes in which process it struck.  One line on
# stdout precedes the run.  The last stderr line reports the exit code,
# whether the run forked and which pool modules it loaded.
SCRIPT = """
import json, os, sys
pin, plant, argv = json.loads(sys.argv[1])
if pin:
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
forks = []
os.register_at_fork(after_in_parent=lambda: forks.append(os.getpid()))
from wieferich import cli, cyclo, ideals, places, qfield
parent = os.getpid()
def note(notes):
    with open(notes, "a") as handle:
        handle.write("worker\\n" if os.getpid() != parent else "parent\\n")
    return os.getpid() != parent
if plant and plant[0] == "scan":
    _, kind, target, notes = plant
    kernel = places._wieferich_kernel
    def planted(a, primes):
        primes = list(primes)
        if target in primes and note(notes):
            if kind == "die":
                os._exit(1)
            raise RuntimeError("planted failure in a scan worker")
        return kernel(a, primes)
    places._wieferich_kernel = planted
elif plant:
    kind, level, notes = plant
    target = cyclo.cyclotomic_eval(level, qfield.FieldSpec.from_d(1).element(2, 1)).abs_norm()
    factor = ideals.factorize
    def planted(n, budget=None):
        if n != target:
            return factor(n, budget)
        in_worker = note(notes)
        if kind == "die":
            if in_worker:
                os._exit(1)
            return factor(n, budget)
        error = {"budget": ideals.BudgetExhausted, "invariant": qfield.InvariantViolation}[kind]
        raise error(f"planted failure at level {level}")
    ideals.factorize = planted
# still in the buffer when the workers fork
print("output follows")
code = cli.main(argv)
sys.stdout.flush()
pool = sorted({"multiprocessing", "concurrent.futures"} & set(sys.modules))
print(json.dumps({"exit": code, "forked": bool(forks), "pool_modules": pool}), file=sys.stderr)
"""


def outcome(code: int, forked: bool) -> dict:
    """The report of a run that loaded no pool module."""
    return {"exit": code, "forked": forked, "pool_modules": []}


def package_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("WIEFERICH_")}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(cli.__file__).parents[1]), env.get("PYTHONPATH")]))
    return env


def run_cli(argv, pin=False, plant=None):
    """(stdout bytes, stderr lines but the report, report) of one run through a pipe."""
    proc = subprocess.run([sys.executable, "-c", SCRIPT, json.dumps([pin, plant, argv])],
                          capture_output=True, env=package_env(), timeout=120)
    *stderr, report = proc.stderr.decode().splitlines()
    return proc.stdout, stderr, json.loads(report)


@needs_two_cpus
@pytest.mark.parametrize("argv, pooled", [
    (CENSUS_80, True),
    (["census", "-d", "1", "-a", "2,1", "-k", "3", "--n-max", "26", "--strategy", "prime-levels"], True),
    (["census", "-d", "1", "-a", "2,1", "--n-max", "6"], False),
])
def test_census_bytes_match_a_run_pinned_to_one_cpu(argv, pooled):
    pinned = run_cli(argv, pin=True)
    free = run_cli(argv)
    assert pinned[2] == outcome(0, False)
    assert free[2] == outcome(0, pooled)
    assert free[:2] == pinned[:2]
    assert pinned[0].count(b"\n") > 1


@needs_two_cpus
@pytest.mark.parametrize("d", sorted(SCANS))
def test_scan_bytes_match_a_run_pinned_to_one_cpu(d):
    pinned = run_cli(SCANS[d], pin=True)
    free = run_cli(SCANS[d])
    assert (pinned[2], free[2]) == (outcome(0, False), outcome(0, True))
    assert free[:2] == pinned[:2]
    # the line buffered before the fork is printed once, by the parent
    assert free[0].startswith(b"output follows\n") and free[0].count(b"output follows") == 1
    assert b'"tested"' in free[0]


@needs_two_cpus
@pytest.mark.parametrize("kind, code, message", [
    ("budget", cli.EXIT_BUDGET, "error: planted failure at level 29"),
    ("invariant", cli.EXIT_VIOLATION, "invariant violation: planted failure at level 29"),
])
def test_worker_exception_gives_the_serial_exit_code_and_message(tmp_path, kind, code, message):
    """The raising job ends its worker, and the parent factors the level
    again and raises the same exception."""
    runs = {}
    for pin in (True, False):
        notes = tmp_path / f"notes-{pin}"
        runs[pin] = run_cli(CENSUS_80, pin, [kind, 29, str(notes)]), notes.read_text()
    (pinned, pinned_notes), (free, free_notes) = runs[True], runs[False]
    assert (pinned_notes, free_notes) == ("parent\n", "worker\nparent\n")
    assert pinned == (b"output follows\n", [message], outcome(code, False))
    assert free == (b"output follows\n", [message], outcome(code, True))


@needs_two_cpus
def test_levels_of_a_dead_worker_are_factored_in_process(tmp_path):
    """A worker killed mid-norm leaves its level to the parent."""
    notes = tmp_path / "notes"
    free = run_cli(CENSUS_80, plant=["die", 29, str(notes)])
    assert notes.read_text() == "worker\nparent\n"
    assert free == run_cli(CENSUS_80, pin=True)[:2] + (outcome(0, True),)


def assert_segment_rescanned(tmp_path, d, kind):
    """With a planted kind of failure in the worker that scans SCAN_TARGET's
    segment, the parent scans that segment again and prints the one-CPU
    bytes; pinned, the parent scans every segment itself."""
    runs = {}
    for pin in (True, False):
        notes = tmp_path / f"notes-{pin}"
        runs[pin] = run_cli(SCANS[d], pin, ["scan", kind, SCAN_TARGET, str(notes)]), notes.read_text()
    (pinned, pinned_notes), (free, free_notes) = runs[True], runs[False]
    assert (pinned_notes, free_notes) == ("parent\n", "worker\nparent\n")
    assert pinned == run_cli(SCANS[d], pin=True)
    assert free == pinned[:2] + (outcome(0, True),)


@needs_two_cpus
@pytest.mark.parametrize("d", sorted(SCANS))
def test_segments_of_a_dead_worker_are_rescanned_in_process(tmp_path, d):
    assert_segment_rescanned(tmp_path, d, "die")


@needs_two_cpus
@pytest.mark.parametrize("d", sorted(SCANS))
def test_segments_whose_job_raised_are_rescanned_in_process(tmp_path, d):
    """A raise takes the path of a dead worker, as it does in a census: no
    traceback, and the segment is scanned again in the parent."""
    assert_segment_rescanned(tmp_path, d, "raise")


CENSUS_K2 = ["census", "-d", "1", "-a", "2,1", "-k", "2", "--n-max", "20"]


SCAN_200K = SCANS[1]


@pytest.fixture
def two_cpus(monkeypatch):
    """A stand-in two-CPU affinity mask."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


@pytest.fixture
def pools(monkeypatch, two_cpus):
    """(fn, jobs, most) of every fork_map a run calls, on a stand-in two-CPU mask."""
    started = []
    fork_map = workers.fork_map

    def recorded(fn, jobs, most):
        started.append((fn, list(jobs), most))
        return fork_map(fn, jobs, most)

    monkeypatch.setattr(workers, "fork_map", recorded)
    return started


@pytest.fixture
def forks(monkeypatch):
    """The pid of every worker a run forks, as its parent saw it."""
    pids = []
    fork = os.fork

    def spy():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", spy)
    return pids


def serial_run(monkeypatch, capsys, argv):
    with monkeypatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert cli.main(argv) == 0
    return capsys.readouterr()


@needs_fork
@pytest.mark.parametrize("argv", [CENSUS_K2, SCAN_200K], ids=["census", "scan"])
def test_pool_that_cannot_start_leaves_factoring_in_process(two_cpus, monkeypatch, capsys, argv):
    serial = serial_run(monkeypatch, capsys, argv)
    tried = []

    def unstartable():
        tried.append(1)
        raise OSError("no process can be started")

    monkeypatch.setattr(os, "fork", unstartable)
    assert cli.main(argv) == 0
    assert capsys.readouterr() == serial
    # the first worker failed to start, and fork_map tried no other
    assert len(tried) == 1


@needs_fork
@pytest.mark.parametrize("argv", [CENSUS_K2, SCAN_200K], ids=["census", "scan"])
def test_no_fork_while_another_thread_runs(two_cpus, forks, monkeypatch, capsys, argv):
    """A fork copies the locks other threads hold, so the run stays in one process."""
    import threading

    serial = serial_run(monkeypatch, capsys, argv)
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        assert cli.main(argv) == 0
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive()
    assert capsys.readouterr() == serial
    assert forks == []
    assert cli.main(argv) == 0
    assert capsys.readouterr() == serial
    assert len(forks) == 2


@needs_two_cpus
@needs_fork
def test_workers_return_each_divisor_level_largest_norm_first(pools, forks, monkeypatch):
    """factor_levels hands the workers the level(d) call the parent would make."""
    from wieferich import FieldSpec, ideals
    from wieferich.cyclo import CycloFactorCache, divisors

    budget = FactorBudget(trial_limit=2)
    cache = CycloFactorCache(FieldSpec.from_d(1).element(2, 1), budget)
    cache.factor_levels([12])
    levels = sorted(divisors(12), key=lambda d: cache.value(d).abs_norm(), reverse=True)
    assert levels == [12, 3, 4, 6, 2, 1]
    # every norm but Nm Phi_1(a) = 2 is above trial_limit**2, one worker each at most
    assert pools == [(cache.level, [(d,) for d in levels], 5)]
    assert len(forks) == 2
    in_process = {d: ideals.factor_principal(cache.value(d), budget) for d in levels}

    def refuse(*args):
        raise AssertionError("a finished level was factored again")

    monkeypatch.setattr(ideals, "factorize", refuse)
    assert {d: cache.level(d) for d in levels} == in_process


@needs_two_cpus
@needs_fork
def test_scan_jobs_are_the_sieve_segments_in_order(pools, forks, gauss_field):
    """Each worker job runs the kernel on one segment's primes, and the
    parent joins the segments' hits in order."""
    from wieferich import places
    from wieferich.intfactor import _SIEVE_SEGMENT, _prime_stream

    a = gauss_field.element(2, 1)
    hits, tested = places.scan_wieferich_places(a, 200000)
    [(fn, jobs, most)] = pools
    # at most one worker per segment, and one per CPU of the mask
    assert fn is places._wieferich_kernel and most == len(jobs) == 4
    assert len(forks) == 2
    # the workers consumed their own copies: the parent's streams are untouched
    assert [base for base, _ in jobs] == [a] * 4
    segments = [list(primes) for _, primes in jobs]
    assert [p for segment in segments for p in segment] == list(_prime_stream(200000))
    assert all(segment[-1] - segment[0] < 2 * _SIEVE_SEGMENT for segment in segments)
    serial = [places._wieferich_kernel(a, segment) for segment in segments]
    assert [r.place for r in hits] == [P for found, _ in serial for P in found]
    assert tested == sum(count for _, count in serial)


def checked_job(n):
    """n squared; n < 0 raises, n == 0 kills its worker, and n == 1 returns
    what pickle refuses: each of the three ends its worker."""
    if n < 0:
        raise ValueError(f"job {n}")
    if n == 0:
        os._exit(3)
    return (lambda: None) if n == 1 else n * n


@needs_fork
def test_fork_map_with_more_workers_than_cpus(forks):
    """At most one worker per CPU starts, and none on one CPU.  A job that
    raises, exits or returns what pickle refuses is left out, and another
    worker runs every job after it; a job no worker reached is left out too."""
    pooled = CPUS >= 2
    for failing in (-1, 0, 1):
        jobs = [(n,) for n in (2, failing, *range(3, 40))]
        started = time.monotonic()
        done = workers.fork_map(checked_job, jobs, 2 * CPUS + 1)
        assert time.monotonic() - started < 30
        assert done == ({i: n * n for i, (n,) in enumerate(jobs) if n > 1} if pooled else {})
    assert len(forks) == (3 * min(CPUS, len(jobs)) if pooled else 0)
    # a raise ends its worker: one raising job per worker leaves the last job unreached
    assert workers.fork_map(checked_job, [(-1,)] * CPUS + [(2,)], 2 * CPUS + 1) == {}
    assert workers.fork_map(checked_job, [], 4) == {}


def test_cli_import_loads_no_pool_modules():
    """The pool modules cost set-up time and memory: importing the CLI loads
    neither, and neither does a census or a scan that forks its workers."""
    probe = "import sys, wieferich.cli; print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=package_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
    pooled = CPUS >= 2 and hasattr(os, "fork")
    for argv in (CENSUS_80, SCAN_200K):
        assert run_cli(argv)[2] == outcome(0, pooled)


def group_members(group: int) -> list[int]:
    """Live processes of the process group, from /proc."""
    members = []
    for entry in Path("/proc").iterdir():
        try:
            stat = (entry / "stat").read_text()
        except (OSError, ValueError):
            continue
        state, _, pgrp = stat.rpartition(")")[2].split()[:3]
        if int(pgrp) == group and state != "Z":
            members.append(int(entry.name))
    return members


@contextlib.contextmanager
def run_with_workers(argv, settle=0.5):
    """A CLI run in a session of its own, once it has forked a worker and
    `settle` seconds have passed for its workers to take their first jobs.

    Whatever is left of its process group is killed on the way out, so a
    failing test leaves no worker behind either.
    """
    proc = subprocess.Popen([sys.executable, "-m", "wieferich.cli", *argv], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=package_env(), start_new_session=True)
    try:
        deadline = time.monotonic() + 30
        while len(group_members(proc.pid)) < 2:
            if proc.poll() is not None or time.monotonic() > deadline:
                pytest.fail("the run never started a worker")
            time.sleep(0.02)
        time.sleep(settle)
        yield proc
    finally:
        for pid in group_members(proc.pid):
            os.kill(pid, signal.SIGKILL)
        proc.communicate(timeout=30)


def assert_group_empties(group: int, seconds: float = 5) -> None:
    deadline = time.monotonic() + seconds
    while group_members(group) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert group_members(group) == []


@needs_two_cpus
@needs_proc
@pytest.mark.parametrize("argv", [CENSUS_160, SCAN_1E7], ids=["census", "scan"])
def test_sigterm_leaves_no_worker(argv):
    with run_with_workers(argv) as proc:
        proc.terminate()
        assert proc.wait(timeout=30) == -signal.SIGTERM
        assert_group_empties(proc.pid)


@needs_two_cpus
@needs_proc
@pytest.mark.parametrize("argv", [CENSUS_160, SCAN_1E7], ids=["census", "scan"])
def test_sigint_prints_no_worker_traceback(argv):
    """Ctrl-C reaches the whole group: only the parent reports it."""
    with run_with_workers(argv) as proc:
        os.killpg(proc.pid, signal.SIGINT)
        sent = time.monotonic()
        proc.wait(timeout=30)
        # the workers are stopped, not waited for: their jobs take seconds at these sizes
        assert time.monotonic() - sent < 1.5
        assert_group_empties(proc.pid)
        _, stderr = proc.communicate(timeout=30)
    text = stderr.decode()
    assert text.count("Traceback (most recent call last)") == 1, text
    assert text.rstrip().endswith("KeyboardInterrupt")
    assert "ForkProcess" not in text and "_process_worker" not in text


@needs_two_cpus
@needs_proc
def test_workers_leave_sigint_to_the_parent():
    # census-gauss's workers live for about a second
    with run_with_workers(CENSUS_80, settle=0.1) as proc:
        for pid in group_members(proc.pid):
            if pid != proc.pid:
                os.kill(pid, signal.SIGINT)
        stdout, stderr = proc.communicate(timeout=60)
    assert (proc.returncode, stderr) == (0, b"")
    assert stdout == run_cli(CENSUS_80, pin=True)[0].removeprefix(b"output follows\n")
