"""Pytest configuration shared by every test module.

Hypothesis draws its examples from a seed derived from each test, so every
run of the suite tests the same examples; a failure reproduces on the next
run instead of depending on the draw.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")
