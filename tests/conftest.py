"""Fixtures shared by the test modules."""

import pytest

from nodalcalc import sheaves


@pytest.fixture
def canonical_checks(monkeypatch):
    """Whether the values of every ``Multidegree._derived`` call made while the test
    runs are canonical, as ``sheaves._is_canonical`` decides.

    ``_derived`` checks nothing, so each True confirms that a multidegree the
    library built itself holds by construction what the constructor would check.
    """
    seen = []
    real = sheaves.Multidegree._derived.__func__

    def recording(cls, graph, values):
        seen.append(sheaves._is_canonical(graph, values))
        return real(cls, graph, values)

    monkeypatch.setattr(sheaves.Multidegree, "_derived", classmethod(recording))
    return seen
