"""Fixtures shared by the test modules."""

import pytest

from consumerlab import harness


class RecordingPool:
    """A stand-in for `ProcessPoolExecutor` that runs the tasks in-process
    and records how it was made and shut down: no worker count asked for
    in a test that uses it starts a process."""

    def __init__(self, max_workers):
        self.max_workers = max_workers
        self.cancelled = False

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)

    def shutdown(self, wait=True, *, cancel_futures=False):
        self.cancelled = self.cancelled or cancel_futures


@pytest.fixture()
def recording_pool(monkeypatch):
    """Replace the pool of `harness.pool_map` with `RecordingPool`; the list
    returned gets every pool made, in order."""
    made = []

    def make(max_workers):
        made.append(RecordingPool(max_workers))
        return made[-1]
    monkeypatch.setattr(harness, "ProcessPoolExecutor", make)
    return made
