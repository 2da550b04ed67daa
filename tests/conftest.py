import signal
import threading

import pytest

from helpers import make_a1

# Wall-clock limit per test: a hang (say, a radix run that never stops)
# fails the test instead of stalling the suite.
TEST_TIME_LIMIT_S = 300


@pytest.fixture
def a1():
    return make_a1()


@pytest.fixture(autouse=True)
def _time_limit():
    """Raise TimeoutError in a test still running after TEST_TIME_LIMIT_S.

    Uses SIGALRM, so it is armed only where ``signal.setitimer`` exists and
    the test runs on the main thread; elsewhere it does nothing.
    """
    on_main = threading.current_thread() is threading.main_thread()
    if not (hasattr(signal, "setitimer") and on_main):
        yield
        return

    def expire(signum, frame):
        raise TimeoutError(f"test still running after {TEST_TIME_LIMIT_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
