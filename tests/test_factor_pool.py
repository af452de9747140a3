"""Census levels factored in fork workers: the same bytes as one CPU, the same
failures, and no process left behind."""

import contextlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from wieferich import cli

CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
needs_two_cpus = pytest.mark.skipif(CPUS < 2, reason="the pool needs two CPUs in the affinity mask")
needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="the pool forks its workers")
needs_proc = pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="lists processes through /proc")

CENSUS_80 = ["census", "-d", "1", "-a", "2,1", "--n-max", "80"]
CENSUS_160 = ["census", "-d", "1", "-a", "2,1", "--n-max", "160"]

# Runs cli.main(argv), pinned first to the lowest CPU of the mask when asked.
# A planted failure hits the factorization of one level's norm of 2 + i: it
# raises BudgetExhausted or InvariantViolation, or kills the worker running
# it, and notes in which process it struck.  One line on stdout precedes the
# census.  The last stderr line reports the exit code and whether the pool
# modules were loaded.
SCRIPT = """
import json, os, sys
pin, plant, argv = json.loads(sys.argv[1])
if pin:
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from wieferich import cli, cyclo, ideals, intfactor, qfield
if plant:
    kind, level, notes = plant
    target = cyclo.cyclotomic_eval(level, qfield.FieldSpec.from_d(1).element(2, 1)).abs_norm()
    parent, factor = os.getpid(), intfactor._factor_with_budget
    def planted(n, budget, depth):
        if n != target:
            return factor(n, budget, depth)
        in_worker = os.getpid() != parent
        with open(notes, "a") as handle:
            handle.write("worker\\n" if in_worker else "parent\\n")
        if kind == "die":
            if in_worker:
                os._exit(1)
            return factor(n, budget, depth)
        error = {"budget": ideals.BudgetExhausted, "invariant": qfield.InvariantViolation}[kind]
        raise error(f"planted failure at level {level}")
    intfactor._factor_with_budget = planted
# still in the buffer when the workers fork
print("census follows")
code = cli.main(argv)
sys.stdout.flush()
pool = "multiprocessing" in sys.modules or "concurrent.futures" in sys.modules
print(json.dumps({"exit": code, "pool": pool}), file=sys.stderr)
"""


def package_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("WIEFERICH_")}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(cli.__file__).parents[1]), env.get("PYTHONPATH")]))
    return env


def run_census(argv, pin=False, plant=None):
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
    pinned = run_census(argv, pin=True)
    free = run_census(argv)
    assert pinned[2] == {"exit": 0, "pool": False}
    assert free[2] == {"exit": 0, "pool": pooled}
    assert free[:2] == pinned[:2]
    assert pinned[0].count(b"\n") > 1


@needs_two_cpus
@pytest.mark.parametrize("kind, code, message", [
    ("budget", cli.EXIT_BUDGET, "error: planted failure at level 29"),
    ("invariant", cli.EXIT_VIOLATION, "invariant violation: planted failure at level 29"),
])
def test_worker_exception_gives_the_serial_exit_code_and_message(tmp_path, kind, code, message):
    runs = {}
    for pin in (True, False):
        notes = tmp_path / f"notes-{pin}"
        runs[pin] = run_census(CENSUS_80, pin, [kind, 29, str(notes)]), notes.read_text()
    (pinned, pinned_notes), (free, free_notes) = runs[True], runs[False]
    assert (pinned_notes, free_notes) == ("parent\n", "worker\n")
    assert pinned == (b"census follows\n", [message], {"exit": code, "pool": False})
    assert free == (b"census follows\n", [message], {"exit": code, "pool": True})


@needs_two_cpus
def test_levels_of_a_dead_worker_are_factored_in_process(tmp_path):
    """A worker killed mid-norm breaks the pool; the parent factors what is left."""
    notes = tmp_path / "notes"
    free = run_census(CENSUS_80, plant=["die", 29, str(notes)])
    assert notes.read_text() == "worker\nparent\n"
    assert free == run_census(CENSUS_80, pin=True)[:2] + ({"exit": 0, "pool": True},)


CENSUS_K2 = ["census", "-d", "1", "-a", "2,1", "-k", "2", "--n-max", "20"]


@pytest.fixture
def pools(monkeypatch):
    """The arguments of every pool a census starts, on a stand-in two-CPU mask."""
    import concurrent.futures

    started = []

    class Recorded(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            started.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorded)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    return started


def serial_census(monkeypatch, capsys, argv):
    with monkeypatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert cli.main(argv) == 0
    return capsys.readouterr()


@needs_fork
def test_pool_that_cannot_start_leaves_factoring_in_process(pools, monkeypatch, capsys):
    import concurrent.futures

    serial = serial_census(monkeypatch, capsys, CENSUS_K2)

    def unstartable(self, *args, **kwargs):
        raise OSError("no process can be started")

    monkeypatch.setattr(concurrent.futures.ProcessPoolExecutor, "submit", unstartable)
    assert cli.main(CENSUS_K2) == 0
    assert capsys.readouterr() == serial
    assert len(pools) == 1


@needs_fork
def test_no_fork_while_another_thread_runs(pools, monkeypatch, capsys):
    """A fork copies the locks other threads hold, so the census stays in one process."""
    import threading

    serial = serial_census(monkeypatch, capsys, CENSUS_K2)
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        assert cli.main(CENSUS_K2) == 0
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive()
    assert capsys.readouterr() == serial
    assert pools == []
    assert cli.main(CENSUS_K2) == 0
    assert capsys.readouterr() == serial
    assert len(pools) == 1


def test_cli_import_loads_no_pool_modules():
    """The pool's modules cost set-up time, so only a pooled census imports them."""
    probe = "import sys, wieferich.cli; print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=package_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


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
def census_with_workers(argv):
    """A census in a session of its own, once it has forked a worker.

    Whatever is left of its process group is killed on the way out, so a
    failing test leaves no worker behind either.
    """
    proc = subprocess.Popen([sys.executable, "-m", "wieferich.cli", *argv], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=package_env(), start_new_session=True)
    try:
        deadline = time.monotonic() + 30
        while len(group_members(proc.pid)) < 2:
            if proc.poll() is not None or time.monotonic() > deadline:
                pytest.fail("the census never started a worker")
            time.sleep(0.02)
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
def test_sigterm_to_the_census_leaves_no_worker():
    with census_with_workers(CENSUS_160) as proc:
        proc.terminate()
        assert proc.wait(timeout=30) == -signal.SIGTERM
        assert_group_empties(proc.pid)


@needs_two_cpus
@needs_proc
def test_sigint_prints_no_worker_traceback():
    """Ctrl-C reaches the whole group: only the parent reports it."""
    with census_with_workers(CENSUS_160) as proc:
        os.killpg(proc.pid, signal.SIGINT)
        sent = time.monotonic()
        proc.wait(timeout=30)
        # the workers are stopped, not waited for: their norms take seconds at these levels
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
    with census_with_workers(CENSUS_80) as proc:
        for pid in group_members(proc.pid):
            if pid != proc.pid:
                os.kill(pid, signal.SIGINT)
        stdout, stderr = proc.communicate(timeout=60)
    assert (proc.returncode, stderr) == (0, b"")
    assert stdout == run_census(CENSUS_80, pin=True)[0].removeprefix(b"census follows\n")
