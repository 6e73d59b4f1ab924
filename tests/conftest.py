"""Fixtures shared by the test modules."""

import pytest

from nodalcalc import sheaves


def registry_chains(mod):
    """The exceptional chains of a stable target's modification, read off its registry.

    Each modified edge (a, b) of the target, a <= b, gives the chain of its
    registry entry read from a; on a loop the smaller of its two readings is
    kept.  The chains are sorted by (left, right, vertices).
    """
    chains = []
    for e, chain in mod.chain_registry:
        a, b = mod.target.edge_ends[e]
        chains.append((a, min(chain, chain[::-1]) if a == b else chain, b))
    return sorted(chains, key=lambda c: (c[0], c[2], c[1]))


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
    """Whether every ``Multidegree._derived`` call made while the test runs hands
    over a dict whose items are canonical, as ``is_canonical`` decides, and the
    ``int`` sum of its values.

    ``_derived`` checks nothing, so each True confirms that a multidegree the
    library built itself holds by construction what the constructor would check.
    """
    seen = []
    real = sheaves.Multidegree._derived.__func__

    def recording(cls, graph, degrees, total):
        seen.append(type(degrees) is dict and is_canonical(graph, tuple(degrees.items()))
                    and type(total) is int and total == sum(degrees.values()))
        return real(cls, graph, degrees, total)

    monkeypatch.setattr(sheaves.Multidegree, "_derived", classmethod(recording))
    return seen
