import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from flatiso import catalog
from flatiso.errors import DegreeOverflow, DivisionNotExact, RootCollision
from flatiso.ring import MAX_DEGREE, Ring, _grlex_key, _packing, _probe_points, track_root


@pytest.fixture(scope="module")
def plain():
    return Ring(["2/7", "3/7", "1"])


@pytest.fixture(scope="module")
def ext():
    # generator relation t2 + t1 z + z^4, weights of the great-icosahedral entry
    rel = {(0, 0, 1, 0): F(1), (1, 1, 0, 0): F(1), (4, 0, 0, 0): F(1)}
    return Ring(["3/5", "4/5", "1"], extension=rel, z_weight="1/5")


def random_elem(ring, rng, maxdeg=3, nterms=4, with_z=False):
    out = ring.zero()
    for _ in range(rng.randrange(1, nterms + 1)):
        c = F(rng.randrange(-6, 7), rng.randrange(1, 5))
        term = ring.const(c)
        for i in range(ring.nvars):
            term = term * ring.var(i) ** rng.randrange(0, maxdeg)
        if with_z and ring.ext is not None:
            term = term * ring.zgen() ** rng.randrange(0, ring.ext.z_degree + 2)
        out = out + term
    return out


# ---------------------------------------------------------------------------
# arithmetic and calculus
# ---------------------------------------------------------------------------

def test_partial_monomial(plain):
    t1, t2, t3 = plain.gens()
    assert (t1 * t3).partial(2) == t1


def test_partial_klein_g1(klein):
    t1 = klein.ring.var(0)
    assert klein.g[0].partial(2) == t1


def test_euler_weights(plain):
    t1, t2, t3 = plain.gens()
    assert (t1 * t3).euler() == (t1 * t3) * F(9, 7)
    assert (t1 + t3).weight() is None
    assert not (t1 + t3).is_homogeneous(1)


def test_euler_klein(klein):
    for j, gj in enumerate(klein.g):
        w = 1 + klein.weights[j]
        assert gj.euler() == gj * w
        assert gj.is_homogeneous(w)
    assert klein.g[2].is_homogeneous(2)


def test_zero_homogeneous_of_every_weight(plain):
    z = plain.zero()
    for w in (0, 1, F(5, 7)):
        assert z.is_homogeneous(w)


def test_eval_basic(plain, klein):
    t1, t2, t3 = plain.gens()
    assert (t1 * t3).eval((1, 0, 2)) == 2
    v = klein.g[0].eval((1, 1, 1))
    assert abs(v - F(11, 12)) < 1e-12


def test_extension_euler_and_reduction(ext):
    z = ext.zgen()
    t1, t2, t3 = ext.gens()
    assert z.euler() == z * F(1, 5)
    assert z ** 4 == -t2 - t1 * z
    assert z.is_homogeneous(F(1, 5))


def test_implicit_derivative_against_finite_difference(ext):
    dz = ext.zgen().partial(1)          # dz/dt2 = -1/(t1 + 4 z^3)
    pt = (1.0, 0.3, 0.0)
    z0 = ext.solve_z(pt, seed=-0.3)
    val = dz.eval(pt, z=z0)
    h = 1e-6
    zp = ext.solve_z((1.0, 0.3 + h, 0.0), seed=z0)
    zm = ext.solve_z((1.0, 0.3 - h, 0.0), seed=z0)
    assert abs(val - (zp - zm) / (2 * h)) < 1e-7
    assert abs(val + 1 / (1 + 4 * z0 ** 3)) < 1e-12


def test_degenerate_relation_rejected():
    # (z - t1)^2: rel_z shares the root z = t1, a zero divisor mod the relation
    rel = {(2, 0, 0): F(1), (1, 1, 0): F(-2), (0, 2, 0): F(1)}
    with pytest.raises(DivisionNotExact):
        Ring(["1/2", "1"], extension=rel, z_weight="1/2")


def test_squarefree_guard_is_exact():
    # (z - t1 + a t2)(z + t1 - a t2) is squarefree, but its discriminant
    # 4 (t1 - a t2)^2 vanishes at the first probe point: the guard must
    # accept it on a later point rather than reject it there
    p0 = _probe_points(2)[0]
    a = p0[0] / p0[1]
    rel = {(2, 0, 0): F(1), (0, 2, 0): F(-1), (0, 1, 1): 2 * a, (0, 0, 2): -a * a}
    ring = Ring(["1/2", "1/2"], extension=rel, z_weight="1/2")
    assert ring.ext.z_degree == 2
    # (z^3 - t1)^2 keeps the repeated cubic factor at every point
    sq = {(6, 0, 0): F(1), (3, 1, 0): F(-2), (0, 2, 0): F(1)}
    with pytest.raises(DivisionNotExact):
        Ring(["1/3", "1"], extension=sq, z_weight="1/9")


def test_catalog_relations_pass_squarefree_guard():
    for eid in catalog.catalog_list():
        ring = catalog.catalog_get(eid).pvf.ring
        if ring.ext is not None:
            again = Ring(ring.weights, extension=ring.ext.relation,
                         z_weight=ring.ext.z_weight)
            assert again == ring


def test_eval_root_seeds(ext):
    # at t1 = 1, t2 = 0 the relation is z(1 + z^3) = 0; seed 0 picks z = 0
    z = ext.zgen()
    assert abs(z.eval((1.0, 0.0, 0.0), z_seed=0.01)) < 1e-12


def test_root_collision_raises():
    # z^2 - t1: roots +-sqrt(t1) collide at t1 -> 0
    rel = {(2, 0, 0): F(1), (0, 1, 0): F(-1)}
    ring = Ring(["1/2", "1"], extension=rel, z_weight="1/4")
    with pytest.raises(RootCollision):
        ring.solve_z((1e-22, 0.0), seed=1e-11)


def test_track_root_continuation(ext):
    pts = [(1.0, 0.4 + 0.01 * k, 0.0) for k in range(21)]
    zs = track_root(ext, pts, seed=0.6134 + 0.8853j)
    for pt, zv in zip(pts, zs):
        coeffs = ext.rel_coeffs_at(pt)
        val = sum(c * zv ** k for k, c in enumerate(coeffs))
        assert abs(val) < 1e-9


# ---------------------------------------------------------------------------
# algebraic properties (randomized, fixed seeds)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("ring_name", ["plain", "ext"])
def test_product_rule_and_mixed_partials(ring_name, plain, ext):
    ring = plain if ring_name == "plain" else ext
    rng = random.Random(20240901)
    for _ in range(40):
        a = random_elem(ring, rng, with_z=True)
        b = random_elem(ring, rng, with_z=True)
        i = rng.randrange(ring.nvars)
        j = rng.randrange(ring.nvars)
        assert (a * b).partial(i) == a.partial(i) * b + a * b.partial(i)
        assert a.partial(i).partial(j) == a.partial(j).partial(i)


@pytest.mark.parametrize("ring_name", ["plain", "ext"])
def test_euler_termwise_matches_derivative_form(ring_name, plain, ext):
    ring = plain if ring_name == "plain" else ext
    rng = random.Random(7)
    for _ in range(25):
        a = random_elem(ring, rng, with_z=True)
        via_partials = ring.zero()
        for i, w in enumerate(ring.weights):
            via_partials = via_partials + ring.var(i) * a.partial(i) * w
        assert via_partials == a.euler()


def test_eval_is_ring_homomorphism(ext):
    rng = random.Random(99)
    pt = (1.1, 0.4, 0.7)
    z0 = ext.solve_z(pt, seed=0.6 + 0.9j)
    for _ in range(25):
        a = random_elem(ext, rng, with_z=True)
        b = random_elem(ext, rng, with_z=True)
        va, vb = a.eval(pt, z=z0), b.eval(pt, z=z0)
        scale = max(1.0, abs(va), abs(vb))
        assert abs((a + b).eval(pt, z=z0) - (va + vb)) < 1e-12 * scale
        assert abs((a * b).eval(pt, z=z0) - va * vb) < 1e-12 * scale * scale


def test_reduction_idempotent(ext):
    rng = random.Random(3)
    for _ in range(25):
        a = random_elem(ext, rng, with_z=True)
        again = ext.from_raw(dict(a.num), a.zden, a.dden)
        assert again.num == a.num and again.zden == a.zden and again.dden == a.dden


@settings(max_examples=60, deadline=None)
@given(st.integers(-40, 40), st.integers(-40, 40), st.integers(1, 5),
       st.integers(0, 3), st.integers(0, 3))
def test_distributivity_hypothesis(c1, c2, den, e1, e2):
    ring = Ring(["1/2", "1"])
    t1, t2 = ring.gens()
    a = t1 ** e1 * F(c1, den) + t2
    b = t2 ** e2 * F(c2, den) - t1
    c = t1 * t2 + F(c1, den)
    assert a * (b + c) == a * b + a * c


def test_division_rational_and_exact(plain):
    t1, t2, t3 = plain.gens()
    assert (t1 * t3) / t1 == t3
    assert (t1 * 2) / 2 == t1
    with pytest.raises(DivisionNotExact):
        (t1 + t3) / t2


def test_eval_ignores_seed_on_plain_ring(plain):
    t1, t2, t3 = plain.gens()
    assert (t1 * t3).eval((1, 0, 2), z_seed=0.3) == 2


def test_eval_missing_seed_raises(ext):
    with pytest.raises(ValueError):
        ext.zgen().eval((1.0, 0.4, 0.0))


# ---------------------------------------------------------------------------
# packed-key representation
# ---------------------------------------------------------------------------

exponents = st.integers(0, 40)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda n: st.lists(st.tuples(*[exponents] * (n + 1)), min_size=1, max_size=30)))
def test_packed_keys_sort_as_grlex(monos):
    pk = _packing(len(monos[0]) - 1)
    by_key = sorted(monos, key=pk.pack)
    assert by_key == sorted(monos, key=_grlex_key)
    assert [pk.unpack(pk.pack(m)) for m in monos] == monos


def _element_specs(ring):
    """Hypothesis strategy: terms (c, e_z, (e_t...)) and variables to differentiate by."""
    n = ring.nvars
    zmax = ring.ext.z_degree + 2 if ring.ext is not None else 0
    term = st.tuples(st.fractions(min_value=-50, max_value=50, max_denominator=12),
                     st.integers(0, zmax), st.tuples(*[st.integers(0, 3)] * n))
    return st.tuples(st.lists(term, min_size=1, max_size=4),
                     st.lists(st.integers(0, n - 1), max_size=2))


def _build(ring, spec):
    # differentiating brings z and rel_z denominators in extension rings
    terms, derivs = spec
    out = ring.zero()
    for c, ez, es in terms:
        x = ring.const(c)
        for i, e in enumerate(es):
            x = x * ring.var(i) ** e
        if ring.ext is not None:
            x = x * ring.zgen() ** ez
        out = out + x
    for i in derivs:
        out = out.partial(i)
    return out


@pytest.mark.parametrize("ring_name", ["plain", "ext"])
def test_from_raw_round_trips(ring_name, plain, ext):
    ring = plain if ring_name == "plain" else ext

    @settings(max_examples=60, deadline=None)
    @given(_element_specs(ring))
    def check(spec):
        x = _build(ring, spec)
        again = ring.from_raw(x.num, x.zden, x.dden)
        assert (again.num, again.zden, again.dden) == (x.num, x.zden, x.dden)
        assert again == x

    check()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, MAX_DEGREE), st.integers(0, MAX_DEGREE))
@example(MAX_DEGREE - 5, 5)
@example(MAX_DEGREE - 5, 6)
def test_product_past_field_width_raises(a, b):
    ring = Ring(["1/2", "1"])
    t1, t2 = ring.gens()
    x, y = t1 ** a, t2 ** b
    if a + b > MAX_DEGREE:
        with pytest.raises(DegreeOverflow):
            x * y
    else:
        assert (x * y).num == {(0, a, b): 1}


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda n: st.tuples(st.tuples(*[st.integers(0, 60)] * (n + 1)),
                        st.tuples(*[st.integers(0, 60)] * (n + 1)),
                        st.integers(-9, 9).filter(bool))))
def test_monomial_division_detects_negative_exponents(args):
    ma, mb, c = args
    pk = _packing(len(ma) - 1)
    q = pk.exact_div({pk.pack(ma): 6 * c}, {pk.pack(mb): 2 * c})
    if any(x < y for x, y in zip(ma, mb)):
        assert q is None
    else:
        (key, coeff), = q[0].items()
        assert key == pk.pack(tuple(x - y for x, y in zip(ma, mb)))
        assert F(coeff, q[1]) == 3


@pytest.mark.parametrize("eid", catalog.catalog_list())
def test_compiled_eval_matches_fraction_reference(eid):
    # the compiled form (exponent tuples, complex coefficients over the
    # denominator) against a term-by-term complex(Fraction) evaluation
    from flatiso import flatcore
    cat = catalog.catalog_get(eid)
    m = flatcore.build_saito_matrices(cat.pvf)
    ring = m.ring
    tprime = cat.default_path.points[0]
    pt = tuple(complex(p) for p in tprime) + (0j,) * (ring.nvars - len(tprime))
    zv = ring.solve_z(pt, cat.z_seed) if ring.ext is not None else 0j
    values = (zv,) + pt

    def reference(num):
        terms = []
        for mono, c in num.items():
            v = complex(c)
            for e, x in zip(mono, values):
                v *= x ** e
            terms.append(v)
        return sum(terms), sum(abs(v) for v in terms)

    for row in m.T0:
        for x in row:
            val, scale = reference(x.num)
            if x.zden:
                val /= zv ** x.zden
                scale /= abs(zv) ** x.zden
            if x.dden:
                d = reference(ring.ext.drel)[0] ** x.dden
                val, scale = val / d, scale / abs(d)
            assert abs(x.eval(pt, z=zv) - val) <= 1e-12 * scale
