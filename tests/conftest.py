"""Fixtures shared by the test modules."""

import pytest

from nodalcalc import sheaves


def is_canonical(graph, values) -> bool:
    """Whether ``values`` is a tuple of ``(str, int)`` tuples keyed by exactly
    ``graph.vertex_ids``, in that order: the form every multidegree stores."""
    if type(values) is not tuple:
        return False
    keys = []
    for item in values:
        if (type(item) is not tuple or len(item) != 2
                or type(item[0]) is not str or type(item[1]) is not int):
            return False
        keys.append(item[0])
    return tuple(keys) == graph.vertex_ids


@pytest.fixture
def canonical_checks(monkeypatch):
    """Whether the values of every ``Multidegree._derived`` call made while the test
    runs are canonical, as ``is_canonical`` decides.

    ``_derived`` checks nothing, so each True confirms that a multidegree the
    library built itself holds by construction what the constructor would check.
    """
    seen = []
    real = sheaves.Multidegree._derived.__func__

    def recording(cls, graph, values):
        seen.append(is_canonical(graph, values))
        return real(cls, graph, values)

    monkeypatch.setattr(sheaves.Multidegree, "_derived", classmethod(recording))
    return seen
