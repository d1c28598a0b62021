"""Shared hypothesis configuration for the property suites."""

from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite",
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
    derandomize=True,
)
settings.load_profile("suite")

# the package emits no warnings: one attributed to a package module fails the
# test, while one from scipy.integrate.quad called by a test itself does not.
# Scoped to this directory; CI runs the suite and bench/test_harness.py under
# the same filter, given on their command lines.
_PACKAGE_WARNINGS = pytest.mark.filterwarnings(r"error::Warning:pulsetunnel\.")


def pytest_collection_modifyitems(items):
    here = Path(__file__).parent
    for item in items:
        if here in item.path.parents:
            item.add_marker(_PACKAGE_WARNINGS)
