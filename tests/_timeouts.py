"""A guard that turns a hang into a test failure.

Not a test module (the leading underscore keeps pytest from collecting
it); import as ``from tests._timeouts import fails_within``.
"""

import contextlib
import signal


@contextlib.contextmanager
def fails_within(seconds):
    """Turn a hang of the block into a ``TimeoutError`` after ``seconds``."""
    if not hasattr(signal, "setitimer"):  # pragma: no cover - non-POSIX
        yield
        return

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
