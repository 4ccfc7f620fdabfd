"""DET-CLOCK fixture (clean): time comes from the simulator clock."""

from datetime import timedelta


def time():
    """A local helper that happens to be called ``time``."""
    return 0.0


def stamp(scheduler):
    started = scheduler.now
    deadline = started + 0.25
    grace = timedelta(seconds=1)
    return started, deadline, grace, time()
