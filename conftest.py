"""A time limit on every test, so that a hang fails the suite instead of stalling it.

This file sits at the repository root so that it covers both test paths,
``tests/`` and ``perfbench/``.  Each test body runs under a SIGALRM timer of
``TEST_SECONDS``.  When it
expires, the test fails with its node id and the function it was in.  The
timer needs POSIX ``signal.setitimer`` and the main thread; elsewhere tests
run without it.  A block that sets its own, tighter timer
(``test_saturation.deadline``) restores this one when it ends.
"""

from __future__ import annotations

import signal
import threading

import pytest

# generous: the slowest test takes 8 to 11 s on a 2-core host
TEST_SECONDS = 120


class TimeLimitExceeded(BaseException):
    """Raised in a test that runs past ``TEST_SECONDS``.

    Not an ``Exception``, so that neither the code under test nor
    hypothesis catches it and goes on running, as with ``KeyboardInterrupt``.
    """


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    if not hasattr(signal, "setitimer") or threading.current_thread() is not threading.main_thread():
        return (yield)

    def expire(signum, frame):
        code = frame.f_code
        raise TimeLimitExceeded(
            f"{item.nodeid} still running after {TEST_SECONDS} s,"
            f" in {code.co_name} ({code.co_filename}:{frame.f_lineno})"
        )

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_SECONDS)
    try:
        return (yield)
    except TimeLimitExceeded as exc:
        # the message alone: the frame the signal interrupted may have no line
        # number, and pytest fails on such a traceback instead of reporting it
        pytest.fail(str(exc), pytrace=False)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
