"""One hypothesis profile for every property test: derandomized, so each run
draws the same examples, with no deadline or example database. Each test
still sets its own `max_examples`. Without hypothesis the other tests still
collect."""

try:
    from hypothesis import HealthCheck, settings
except ImportError:
    pass
else:
    settings.register_profile("ttnsim", derandomize=True, deadline=None, database=None,
                              suppress_health_check=[HealthCheck.too_slow])
    settings.load_profile("ttnsim")
