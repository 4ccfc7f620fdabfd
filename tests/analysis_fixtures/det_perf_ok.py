"""DET-PERF fixture (clean): durations come from simulated time."""


def perf_counter(scheduler):
    """A local helper that happens to be called ``perf_counter``."""
    return scheduler.now


def measure(scheduler, run):
    t0 = perf_counter(scheduler)
    run()
    return scheduler.now - t0
