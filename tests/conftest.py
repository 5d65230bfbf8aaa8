"""Shared test settings: every hypothesis property runs deterministically."""

from hypothesis import settings

settings.register_profile("tlsbath", derandomize=True, deadline=None)
settings.load_profile("tlsbath")
