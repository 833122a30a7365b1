import os
from pathlib import Path

import pytest

from flatiso import catalog, flatcore

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture
def src_env():
    """The environment of a child interpreter, with this checkout's src first
    on PYTHONPATH, so that it imports the same flatiso whether or not the
    package is installed."""
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))


@pytest.fixture(scope="session")
def klein():
    return catalog.catalog_get("LT8").pvf


@pytest.fixture(scope="session")
def klein_matrices(klein):
    return flatcore.build_saito_matrices(klein)


@pytest.fixture(scope="session")
def perturbed_klein(klein):
    t1 = klein.ring.var(0)
    g = list(klein.g)
    g[2] = g[2] + t1 ** 7
    return flatcore.PotentialVF(ring=klein.ring, g=g, name="LT8-perturbed")


@pytest.fixture(scope="session")
def perturbed_lazy():
    """g3 += z^k t2^2 in the lazy rings of LT19 (k = 4) and LT14 (k = 10),
    by entry id.  The monomial has weight 2 = 1 + w3 in both, so T stays
    homogeneous."""
    def build(eid):
        pvf = catalog.catalog_get(eid).pvf
        ring = pvf.ring
        g = list(pvf.g)
        g[2] = g[2] + ring.zgen() ** {"LT19": 4, "LT14": 10}[eid] * ring.var(1) ** 2
        return flatcore.PotentialVF(ring=ring, g=g, name=f"{eid}-perturbed")
    return build


@pytest.fixture(scope="session")
def h3():
    return catalog.catalog_get("H3").pvf


@pytest.fixture(scope="session")
def h3p():
    return catalog.catalog_get("H3p").pvf


@pytest.fixture(scope="session")
def trivial_n2():
    """weights (1/2, 1), g = (t1 t2 + t1^3, t2^2/2 + 3/4 t1^4): B^(2) = I makes
    the single commutator vanish, so this is a solution."""
    from flatiso.ring import Ring
    ring = Ring(["1/2", "1"])
    t1, t2 = ring.gens()
    g = [t1 * t2 + t1 ** 3, t2 ** 2 / 2 + t1 ** 4 * 3 / 4]
    return flatcore.PotentialVF(ring=ring, g=g, name="n2-trivial")
