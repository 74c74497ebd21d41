"""Hypothesis profiles.  Tier-1 runs "derandomized": every property draws the
same examples on every run, so a run's outcome depends on the code alone.
"fresh" draws new examples each run; select it with
`python -m pytest --hypothesis-profile=fresh`.  A test's own @settings (its
max_examples, its deadline) take precedence over either profile."""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.register_profile("fresh", derandomize=False)
settings.load_profile("derandomized")
