import numpy as np
import pytest

from weakfrenet.errors import DegeneratePolygonal
from weakfrenet.polygonal import Polygonal3, sanitize


def random_polygonal(rng, n_min=5, n_max=10, closed=None):
    """Generic sanitized polygonal with no return points and >= 4 segments."""
    while True:
        m = int(rng.integers(n_min, n_max + 1))
        cl = bool(rng.integers(0, 2)) if closed is None else closed
        verts = rng.uniform(-1.0, 1.0, (m, 3))
        try:
            P = sanitize(Polygonal3(verts, closed=cl))
        except DegeneratePolygonal:
            continue
        if P.return_points or P.n_segments < 4:
            continue
        return P


@pytest.fixture
def frenet_calls(monkeypatch):
    """List of the polygonals that discrete_frenet is called on, through any
    module-level binding of it in the package."""
    from weakfrenet import cli, forces, polygonal, weak

    original = polygonal.discrete_frenet
    calls = []

    def counted(P, *args, **kwargs):
        calls.append(P)
        return original(P, *args, **kwargs)

    for module in (polygonal, weak, forces, cli):
        if getattr(module, "discrete_frenet", None) is original:
            monkeypatch.setattr(module, "discrete_frenet", counted)
    return calls


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def staircase():
    return sanitize(Polygonal3([[0, 0, 0], [1, 0, 0], [1, 1, 0], [1, 1, 1]]))


@pytest.fixture
def zigzag():
    return sanitize(
        Polygonal3([[0, 0, 0], [1, 0, 0], [1, 1, 0], [2, 1, 0], [2, 2, 0]])
    )


@pytest.fixture
def square():
    return sanitize(
        Polygonal3([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]], closed=True)
    )
