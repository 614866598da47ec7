"""Suite-wide settings for the hypothesis property tests.

The examples are derived from each test's source rather than drawn at
random, and none is stored between runs, so every run of the suite
checks the same configurations.  Property tests solve whole point
clouds, hence no per-example deadline.
"""

from hypothesis import settings

settings.register_profile(
    "perilps", deadline=None, derandomize=True, database=None, max_examples=10
)
settings.load_profile("perilps")
