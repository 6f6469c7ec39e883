"""Test-suite settings: property tests draw the same examples on every run.

``HYPOTHESIS_PROFILE=ci`` selects the same settings with more examples.
"""

import os

from hypothesis import settings

settings.register_profile(
    "panelcal", derandomize=True, deadline=None, max_examples=40, database=None
)
settings.register_profile("ci", settings.get_profile("panelcal"), max_examples=200)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "panelcal"))
