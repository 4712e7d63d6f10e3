import os
import threading

import pytest


def pytest_configure(config):
    config._criteria_lines = []


@pytest.fixture(autouse=True)
def no_child_process_outlives_a_test():
    """Fail a test after which this process still has a child, running or
    unreaped: the process-level twin of the ``filterwarnings`` entry in
    pyproject.toml that fails the run when a helper thread raises. A mining
    helper that escaped its search would keep a CPU busy and hold this
    process's output pipes open."""
    yield
    if not hasattr(os, "WNOHANG"):
        return
    # Reap every exited child, so that one leak fails only its own test.
    leaked = []
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            break
        if pid == 0:
            leaked.append("one still running")
            break
        leaked.append(f"{pid} never reaped")
    if leaked:
        pytest.fail(f"child processes outlived the test: {', '.join(leaked)}")


@pytest.fixture(autouse=True)
def no_ecdsa_thread_outlives_a_test():
    """Fail a test after which a ``proxichain-ecdsa`` verify thread is still
    alive: the thread-level twin of ``no_child_process_outlives_a_test``. A
    split verify batch runs on a pool that must be shut down before
    ``identity.verify_many`` returns."""
    yield
    alive = [t.name for t in threading.enumerate() if t.name.startswith("proxichain-ecdsa")]
    if alive:
        pytest.fail(f"verify threads outlived the test: {', '.join(alive)}")


def _pipe_ends() -> int:
    """The pipe ends this process holds, from ``/proc/self/fd``."""
    count = 0
    for name in os.listdir("/proc/self/fd"):
        try:
            count += os.readlink(f"/proc/self/fd/{name}").startswith("pipe:")
        except OSError:  # the descriptor listdir itself used, now closed
            pass
    return count


@pytest.fixture(autouse=True)
def no_pipe_end_outlives_a_test():
    """Fail a test after which this process holds more pipe ends than
    before it: the descriptor-level twin of
    ``no_child_process_outlives_a_test``. A helper's pipe end left open
    would keep its peer from seeing end-of-file. Linux only."""
    if not os.path.isdir("/proc/self/fd"):
        yield
        return
    before = _pipe_ends()
    yield
    leaked = _pipe_ends() - before
    if leaked > 0:
        pytest.fail(f"{leaked} pipe end(s) outlived the test")


@pytest.fixture
def forked(monkeypatch):
    """The pids of every helper forked during the test."""
    pids = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


@pytest.fixture(scope="session")
def criteria_log(pytestconfig):
    """Collect one pass/fail line per acceptance criterion for the summary."""

    def log(line: str) -> None:
        pytestconfig._criteria_lines.append(line)
        print(line)

    return log


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "_criteria_lines", [])
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
