"""Shared pytest plumbing.

The acceptance tests register one (number, description, status) tuple per
criterion; this hook prints them after the run so the lines survive
output capture.
"""

import builtins
import multiprocessing
import threading

import numpy as np
import pytest

from fxppo import checkpoint

ACCEPTANCE_RESULTS = []


def left_to_right_sum(values):
    """Plain left-to-right float sum, the order the equity curve adds in."""
    total = 0.0
    for v in values:
        total += float(v)
    return total


def reachable_arrays(root):
    """Every ndarray reachable from ``root`` through instance attributes,
    containers and array bases."""
    seen, stack, found = set(), [root], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            found.append(obj)
            if obj.base is not None:
                stack.append(obj.base)
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)
        elif hasattr(obj, "__dict__"):
            stack.append(vars(obj))
    return found


class TextbookAdam:
    """Adam as the formula of Kingma and Ba's efficient form, with
    temporaries and one state per array, stepping each array of
    ``params`` in place: the reference for `fxppo.nn.Adam`, which steps
    one flat array."""

    def __init__(self, params, lr):
        self.params = params
        self.lr = lr
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.step_count = 0

    def step(self, grads):
        self.step_count += 1
        t, b1, b2, eps = self.step_count, 0.9, 0.999, 1e-8
        root_b2t = np.sqrt(1.0 - b2**t)
        step_size = self.lr * root_b2t / (1.0 - b1**t)
        eps_hat = eps * root_b2t
        for k, (p, g) in enumerate(zip(self.params, grads)):
            self.m[k] = b1 * self.m[k] + (1.0 - b1) * g
            self.v[k] = b2 * self.v[k] + (1.0 - b2) * (g * g)
            p -= step_size * (self.m[k] / (np.sqrt(self.v[k]) + eps_hat))


class _CutFile:
    """A file opened for writing whose first write stores half of its data
    and then raises, as a process stopped in the middle of a write would."""

    def __init__(self, fh, exc):
        self.fh = fh
        self.exc = exc

    def write(self, data):
        self.fh.write(bytes(data)[: len(data) // 2])
        raise self.exc

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.fh.close()


@pytest.fixture
def cut_writes(monkeypatch):
    """cut_writes(name, exc): from now on in this test, every file that
    ``fxppo.checkpoint`` opens for writing with ``name`` in its path is
    cut short by ``exc`` in its first write. ``monkeypatch.undo()`` ends it."""

    def install(name, exc):
        def cut_open(path, mode="r", *args, **kwargs):
            fh = builtins.open(path, mode, *args, **kwargs)
            return _CutFile(fh, exc) if name in str(path) and "w" in mode else fh

        monkeypatch.setattr(checkpoint, "open", cut_open, raising=False)

    return install


@pytest.fixture(autouse=True)
def no_thread_left_running():
    """Fails a test that leaves a thread or a child process running, such
    as a pool worker that its command did not join."""
    threads, children = set(threading.enumerate()), set(multiprocessing.active_children())
    yield
    left = [t.name for t in threading.enumerate() if t not in threads and t.is_alive()]
    left += [p.name for p in multiprocessing.active_children() if p not in children]
    assert not left, f"threads or child processes left running: {left}"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num, desc, status, detail in sorted(ACCEPTANCE_RESULTS):
        terminalreporter.write_line(f"criterion {num:2d}: {status}  {desc}{detail}")


def pytest_collection_modifyitems(config, items):
    # A file left open fails the test. The filters are marks rather than
    # ini settings so that they cover this directory only.
    for item in items:
        if item.path.is_relative_to(config.rootpath / "tests"):
            item.add_marker(pytest.mark.filterwarnings("error::ResourceWarning"))
            item.add_marker(
                pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning")
            )
