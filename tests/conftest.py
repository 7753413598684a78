"""Settings shared by the tier-1 suite.

Every Hypothesis test runs derandomized, with no example database: its
examples follow from the test itself, so two runs of the suite draw the same
ones, as the seeded statistical tests do.  Each test keeps its own example
count in its @settings.
"""

from hypothesis import settings

settings.register_profile("tier-1", derandomize=True, database=None)
settings.load_profile("tier-1")
