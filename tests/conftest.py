"""Hypothesis profiles: ``ci`` draws the same examples on every run, so a CI
failure reproduces; select it with ``--hypothesis-profile=ci``."""

from hypothesis import settings

settings.register_profile("ci", derandomize=True)
