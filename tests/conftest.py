"""Hypothesis runs derandomized so every Tier-1 run checks the same examples."""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, deadline=None, database=None)
settings.load_profile("tier1")
