"""Every Tier-1 run draws the same hypothesis cases: the loaded profile
is derandomised, so each test's examples come from a hash of the test,
not from a random seed, and a run's verdicts and time do not change from
run to run.  Each test keeps its own max_examples."""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True)
settings.load_profile("tier1")
