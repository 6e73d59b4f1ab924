"""Fixtures shared by the test modules."""

import pytest

from nodalcalc import sheaves


@pytest.fixture
def canonical_checks(monkeypatch):
    """The result of every ``sheaves._is_canonical`` call made while the test runs.

    True means a ``Multidegree`` was built from values already in canonical
    form and took the one-comparison path.
    """
    seen = []
    real = sheaves._is_canonical

    def recording(graph, values):
        seen.append(real(graph, values))
        return seen[-1]

    monkeypatch.setattr(sheaves, "_is_canonical", recording)
    return seen
