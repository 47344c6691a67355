"""Fixtures shared by the test modules."""

import signal
from contextlib import contextmanager

import pytest


@pytest.fixture
def time_limit():
    """time_limit(seconds) is a context manager that raises TimeoutError in
    its block once the block has run that long, so that a loop that never
    ends fails its test instead of hanging the suite (SIGALRM: POSIX)."""
    @contextmanager
    def limit(seconds):
        def expire(signum, frame):
            raise TimeoutError(f"still running after {seconds} s")
        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
    return limit
