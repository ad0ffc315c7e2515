"""Shared test settings.

With ``CI`` set, hypothesis runs derandomized and keeps no example
database, so a failure seen in CI reproduces locally with ``CI=1``.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, database=None)
if os.environ.get("CI"):
    settings.load_profile("ci")
