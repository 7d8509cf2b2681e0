"""Fixtures shared across test modules."""

import pytest

from cvcluster import claims


@pytest.fixture(scope="session")
def claims_outcome():
    """One run of the whole claims suite, made before any test patches the
    package, for the tests that only read its report.  ``tests/test_claims.py``
    makes its own run under counting wrappers, and acceptance criterion 12 runs
    ``cvcluster claims`` in a subprocess."""
    return claims.run_claims()
