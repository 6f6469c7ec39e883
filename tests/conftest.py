"""Test-suite settings: property tests draw the same examples on every run.

``HYPOTHESIS_PROFILE=ci`` selects the same settings with more examples.  A
test that asks for more examples than the active profile writes
``max(n, settings.default.max_examples)``, so its count is a floor: it never
draws fewer than the profile, nor fewer than ``n``.
"""

import os

from hypothesis import settings

settings.register_profile(
    "panelcal", derandomize=True, deadline=None, max_examples=40, database=None
)
settings.register_profile("ci", settings.get_profile("panelcal"), max_examples=200)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "panelcal"))
