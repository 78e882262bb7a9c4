"""A pytest plugin that fails each test that runs past ``LIMIT`` seconds.

    python -m pytest -p time_limit tests     (with tests/tools on sys.path)

A test past the limit gets ``TimeLimitExceeded`` raised inside it by a
``SIGALRM`` timer, so a planted fault that sends one test into a very long
loop fails that test, and pytest goes on to the next one.  The exception
derives from ``BaseException`` and from neither ``Exception`` nor pytest's
``Failed``: Hypothesis passes it through at once instead of shrinking it as
a failing example, and pytest records the test as failed.  The limit covers
the test's call, not its fixtures, and needs the main thread of a POSIX
process.
"""

import signal

import pytest

#: Seconds; the slowest Tier-1 test takes about 16 s unplanted.
LIMIT = 60


class TimeLimitExceeded(BaseException):
    """A test ran past ``LIMIT`` seconds."""


def _expire(signum, frame):
    raise TimeLimitExceeded("test ran past %s s" % LIMIT)


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, LIMIT)
    try:
        return (yield)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
