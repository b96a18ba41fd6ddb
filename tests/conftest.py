"""Hypothesis profiles.  ``HYPOTHESIS_PROFILE=ci`` derandomizes the property
tests and prints a reproduction blob with each failure, so a red CI run
replays the same examples locally; without it hypothesis's defaults hold."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
