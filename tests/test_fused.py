"""Ring.fused_sum against chained RingElem arithmetic.

fused_sum forms a rational sum of products over one common denominator and
reduces it once.  It must be the same element as the chained sum, which
reduces every product and partial sum, on a plain ring
(LT8), an auto-cancelling extension (H3p, z-degree 4) and a lazy one (LT19,
z-degree 9), nonzero results included.
"""

import random
from fractions import Fraction as F

import pytest

from flatiso import catalog
from flatiso.flatcore import mat_commutator
from flatiso.ring import AUTO_CANCEL_BOUND, RingElem

ENTRIES = ("LT8", "H3p", "LT19")
SEEDS = range(6)


def _ring(eid):
    return catalog.catalog_get(eid).pvf.ring


def _coeff(rng):
    return F(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 6))


def _random_elem(ring, rng):
    """A few terms with rational coefficients; on an extension, z up to one
    past the relation degree over z^a rel_z^b with a, b in 0..2."""
    ztop = ring.ext.z_degree + 1 if ring.ext is not None else 0
    num = {}
    for _ in range(rng.randint(1, 4)):
        mono = (rng.randint(0, ztop),) + tuple(rng.randint(0, 2)
                                               for _ in range(ring.nvars))
        num[mono] = _coeff(rng)
    if ring.ext is None:
        return ring.from_raw(num)
    return ring.from_raw(num, rng.randint(0, 2), rng.randint(0, 2))


def _chained(ring, products):
    out = ring.zero()
    for c, *factors in products:
        term = ring.const(c)
        for f in factors:
            term = term * f
        out = out + term
    return out


def test_entries_cover_each_ring_kind():
    plain, auto, lazy = (_ring(eid) for eid in ENTRIES)
    assert plain.ext is None
    assert auto.ext.z_degree <= AUTO_CANCEL_BOUND < lazy.ext.z_degree


@pytest.mark.parametrize("eid", ENTRIES)
def test_random_sums_equal_chained_arithmetic(eid):
    ring = _ring(eid)
    for seed in SEEDS:
        rng = random.Random(f"{eid}-{seed}")
        products = [(_coeff(rng),) + tuple(_random_elem(ring, rng)
                                           for _ in range(rng.randint(1, 3)))
                    for _ in range(rng.randint(1, 4))]
        fused = ring.fused_sum(products)
        assert not fused.is_zero(), seed
        assert fused == _chained(ring, products), seed


@pytest.mark.parametrize("eid", ENTRIES)
def test_identities_vanish_exactly(eid):
    ring = _ring(eid)
    rng = random.Random(eid)
    for _ in range(4):
        a, b = _random_elem(ring, rng), _random_elem(ring, rng)
        i, j = rng.randrange(ring.nvars), rng.randrange(ring.nvars)
        c = _coeff(rng)
        assert ring.fused_sum([(c, a, b), (-c, b, a)]).is_zero()
        # mixed partials commute
        assert ring.fused_sum([(c, a.partial(i).partial(j)),
                               (-c, a.partial(j).partial(i))]).is_zero()
        # the product rule, over different denominators
        assert ring.fused_sum([(c, a.partial(i), b), (c, a, b.partial(i)),
                               (-c, (a * b).partial(i))]).is_zero()


def test_empty_and_zero_parts(h3p):
    ring = h3p.ring
    a = h3p.g[0]
    assert ring.fused_sum().is_zero()
    assert ring.fused_sum([(3, ring.zero(), a), (0, a, a),
                           (0, a), (2, ring.zero())]).is_zero()
    assert ring.fused_sum([(F(1, 2), a)]) == a * F(1, 2)


def test_commutator_equals_chained_matrix_products(perturbed_klein):
    from flatiso.flatcore import build_saito_matrices
    B = build_saito_matrices(perturbed_klein).Btilde
    n = len(B)
    com = mat_commutator(B[0], B[1])
    for r in range(n):
        for c in range(n):
            chained = B[0][r][0] * B[1][0][c] - B[1][r][0] * B[0][0][c]
            for k in range(1, n):
                chained = chained + B[0][r][k] * B[1][k][c] - B[1][r][k] * B[0][k][c]
            assert com[r][c] == chained
    assert any(not e.is_zero() for row in com for e in row)


def test_symbolic_catalog_pass_builds_few_elements(monkeypatch):
    """The 11-entry symbolic pass, parsing included, built 14,855 RingElems
    when every product and partial sum was reduced on its own."""
    monkeypatch.setattr(catalog, "_cache", {})
    built = 0
    init = RingElem.__init__

    def counting(self, *args, **kwargs):
        nonlocal built
        built += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(RingElem, "__init__", counting)
    assert all(catalog.catalog_verify(eid, "symbolic")["pass"] for eid in catalog.IDS)
    assert built <= 7500
