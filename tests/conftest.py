"""Hypothesis draws the same examples on every run, so two runs of tier-1
on one commit pass or fail together. Each test keeps its own
``max_examples``."""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
