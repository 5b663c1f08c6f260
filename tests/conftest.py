"""Shared test settings.

With the CI environment variable set, hypothesis draws the same examples on
every run, so a failure on a hosted runner replays locally with CI=1.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True)
if os.environ.get("CI"):
    settings.load_profile("ci")
