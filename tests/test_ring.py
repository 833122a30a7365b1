import random
from fractions import Fraction as F
from functools import lru_cache
from math import lcm

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from flatiso import catalog, flatcore
from flatiso.errors import (DegreeOverflow, DivisionNotExact, InputError,
                            RootCollision)
from flatiso.numeric import (ROOT_SEPARATION, EvalStack, _poly_values,
                             certified_separation, newton_roots, rel_coeffs)
from flatiso.ring import (MAX_DEGREE, Ring, RingElem, _grlex_key, _normalized,
                          _p_lincomb, _packing, _probe_points)

from test_p6 import signed_minors


def root_near(ring, pt, seed):
    """Newton's zero of the relation at the full point pt, from seed."""
    return newton_roots(rel_coeffs(ring, [pt]), seed)[0]


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
    assert z.weight() is None


def fraction_weights(e):
    """The weights of e's monomials less the weight of its denominator, in
    Fractions: pk.unpack times the weights of (z, t1, ..., tn), and zden and
    dden times the weights of z and rel_z."""
    ring = e.ring
    ext = ring.ext
    zw = ext.z_weight if ext is not None else F(0)
    wden = e.zden * zw + e.dden * ext.drel_weight if ext is not None else F(0)
    weights = (zw,) + ring.weights
    return {sum(x * w for x, w in zip(ring._pk.unpack(k), weights)) - wden
            for k in e._t}


def weight_grid(ring):
    """b + w_i - w_j - w_k over b in -1..4 and w_i, w_j, w_k in 0, w_1..w_n
    (every weight the structure checks test, and many more), each also moved
    by 1/(2 Ring._wscale), which is no integer when scaled."""
    ws = (F(0),) + ring.weights
    grid = {b + wi - wj - wk for b in range(-1, 5)
            for wi in ws for wj in ws for wk in ws}
    return sorted(grid | {w + F(1, 2 * ring._wscale) for w in grid})


def assert_weight_tests_match_fractions(elems):
    """is_homogeneous agrees with the Fraction formula on every element and
    every weight of its ring's grid, given as a Fraction and, where it is
    an integer, as an int; the tally of (homogeneous, not homogeneous, not
    homogeneous at a non-integral scaled weight) verdicts."""
    tally = [0, 0, 0]
    for e in elems:
        fw, scale = fraction_weights(e), e.ring._wscale
        for w in weight_grid(e.ring):
            expected = fw <= {w}
            assert e.is_homogeneous(w) is expected, (e, w)
            if w.denominator == 1:
                assert e.is_homogeneous(int(w)) is expected, (e, w)
            integral = (w * scale).denominator == 1
            tally[0 if expected else 1 if integral else 2] += 1
    return tally


@pytest.mark.parametrize("eid", catalog.IDS)
def test_is_homogeneous_matches_the_fraction_formula(eid):
    # every C, B^(k), T, h and dh entry, over the weight grid
    m = flatcore.build_saito_matrices(catalog.catalog_get(eid).pvf)
    elems = [e for M in (m.C, m.T, *m.Btilde) for row in M for e in row]
    yes, no, off_lattice = assert_weight_tests_match_fractions(elems + [m.h, *m.dh])
    assert yes and no and off_lattice
    assert m.inhomogeneous_T_entries == []


def test_is_homogeneous_with_denominators_matches_the_fraction_formula(plain, ext):
    # elements over z^a rel_z^b on the lazy rings of LT19 and LT14, where
    # nothing cancels them, and on ext; the zero element of each ring
    elems = [plain.zero(), ext.zero(), ext.zgen().partial(1),
             ext.from_raw({(0, 1, 0, 0): 1}, zden=1),
             ext.from_raw({(0, 1, 0, 0): 1, (0, 0, 1, 0): 1}, zden=1, dden=1)]
    for eid in ("LT19", "LT14"):
        pvf = catalog.catalog_get(eid).pvf
        ring = pvf.ring
        elems.append(ring.zero())
        for a, b in ((1, 0), (0, 1), (2, 1)):
            quotients = [ring.from_raw(g.num, zden=a, dden=b) for g in pvf.g]
            elems += quotients + [quotients[0] + quotients[1], quotients[2].partial(0)]
    assert any(e.zden and e.dden for e in elems)
    assert any(e.zden and not e.dden for e in elems)
    assert any(e.dden and not e.zden for e in elems)
    yes, no, off_lattice = assert_weight_tests_match_fractions(elems)
    assert yes and no and off_lattice
    for e in elems:
        if e.is_zero():
            assert all(e.is_homogeneous(w) for w in weight_grid(e.ring))


def test_equality_and_its_negation(plain):
    # != is derived from __eq__, NotImplemented included
    t1, t2, _ = plain.gens()
    assert t1 != t2 and not t1 != t1
    assert plain.one() * 3 == 3 and not plain.one() * 3 != 3
    assert t1 != 1 and plain.const(F(1, 2)) != F(1, 3)
    assert not plain.const(F(1, 2)) != F(1, 2)
    assert t1.__eq__("t1") is NotImplemented
    assert t1 != "t1" and not t1 == "t1"


def test_rings_compare_by_weights_and_relation(plain, ext):
    assert plain == Ring(["2/7", "3/7", "1"])
    assert plain != Ring(["2/7", "3/7", "1", "1"])
    assert ext != Ring(ext.weights)
    assert ext == Ring(ext.weights, extension=ext.ext.relation, z_weight="1/5")
    assert plain.__eq__(plain.weights) is NotImplemented


def test_elementary_operations(plain):
    t1, t2, _ = plain.gens()
    assert not plain.zero() and t1
    assert 1 - t1 == -(t1 - 1)
    assert repr(t1 * t2 / 2) == "RingElem(1/2*t1*t2)"
    with pytest.raises(ValueError, match="negative exponent"):
        t1 ** -1


def test_indices_and_generators_are_checked(plain):
    with pytest.raises(IndexError):
        plain.var(3)
    with pytest.raises(IndexError):
        plain.var(0).partial(3)
    with pytest.raises(ValueError, match="no generator z"):
        plain.zgen()


def test_packing_refuses_bad_exponent_vectors():
    pk = _packing(2)
    with pytest.raises(ValueError, match="bad exponent vector"):
        pk.pack((0, 1))
    with pytest.raises(ValueError, match="bad exponent vector"):
        pk.pack((0, -1, 2))
    with pytest.raises(DegreeOverflow):
        pk.pack((0, MAX_DEGREE, 1))


def test_lazy_denominators_cancel_on_request():
    # LT19's relation z^9 + z^6 t2 + t1^6 makes t1^6 / z = -(z^8 + z^5 t2);
    # the lazy ring keeps the z until cancel() is asked for, and 1 / z has
    # nothing to cancel
    ring = catalog.catalog_get("LT19").pvf.ring
    assert ring.lazy
    e = ring.from_raw({(0, 6, 0, 0): 1}, zden=1)
    assert e.zden == 1
    c = e.cancel()
    assert (c.zden, c.dden) == (0, 0)
    assert c == -(ring.zgen() ** 8 + ring.zgen() ** 5 * ring.var(1)) == e
    inv = ring.from_raw({(0, 0, 0, 0): 1}, zden=1)
    assert inv._z_cancelled() is inv


def test_eval_basic(plain, klein):
    t1, t2, t3 = plain.gens()
    assert EvalStack(t1 * t3).eval_batch([(0, 1, 0, 2)])[0] == 2
    v = EvalStack(klein.g[0]).eval_batch([(0, 1, 1, 1)])[0]
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
    z0 = root_near(ext, pt, -0.3)
    val = EvalStack(dz).eval_batch([(z0,) + pt])[0]
    h = 1e-6
    zp = root_near(ext, (1.0, 0.3 + h, 0.0), z0)
    zm = root_near(ext, (1.0, 0.3 - h, 0.0), z0)
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


@pytest.mark.parametrize("rel, message", [
    ({(1, 0, 0): F(0)}, "empty relation"),
    ({(0, 1, 0): F(1)}, "relation does not involve z"),
    ({(2, 1, 0): F(1), (0, 0, 1): F(1)},
     "relation must have a rational leading coefficient in z"),
    ({(2, 0, 0): F(1), (1, 1, 0): F(1)},
     "relation must have a nonzero z-constant term"),
    ({(2, 0, 0): F(1), (0, 1, 0): F(1)}, "relation is not weighted homogeneous"),
], ids=["empty", "no-z", "leading-coefficient", "no-z-constant",
        "not-homogeneous"])
def test_relation_checks(rel, message):
    # z of weight 1/2 over weights (1/2, 1): z^2 + t1 z - t1^2 would pass
    with pytest.raises(InputError) as e:
        Ring(["1/2", "1"], extension=rel, z_weight="1/2")
    assert str(e.value) == message


def test_catalog_relations_pass_squarefree_guard():
    for eid in catalog.catalog_list():
        ring = catalog.catalog_get(eid).pvf.ring
        if ring.ext is not None:
            again = Ring(ring.weights, extension=ring.ext.relation,
                         z_weight=ring.ext.z_weight)
            assert again == ring


def z_tracker(ring, seed):
    # the path tracker on T0 = diag(z, 1, .., n - 1), whose first root is the
    # generator
    from flatiso import p6
    from test_p6 import structure
    n = ring.nvars
    diag = [ring.zgen()] + [ring.const(k) for k in range(1, n)]
    T0 = [[diag[i] if i == j else ring.zero() for j in range(n)]
          for i in range(n)]
    return p6.StructureSampler(structure(ring, T0), z_seed=seed)


def test_eval_root_seeds(ext):
    # at t1 = 1, t2 = 0 the relation is z(1 + z^3) = 0; seed 0 picks z = 0
    zv = z_tracker(ext, 0.01).track([(1.0, 0.0, 0.0)]).values[0, 0]
    assert abs(EvalStack(ext.zgen()).eval_batch([(zv, 1.0, 0.0, 0.0)])[0]) < 1e-12


def test_root_collision_raises():
    # z^2 - t1: roots +-sqrt(t1) collide at t1 -> 0
    rel = {(2, 0, 0): F(1), (0, 1, 0): F(-1)}
    ring = Ring(["1/2", "1"], extension=rel, z_weight="1/4")
    with pytest.raises(RootCollision):
        z_tracker(ring, 1e-11).track([(1e-22, 0.0)])


def test_z_continuation_satisfies_relation(ext):
    pts = [(1.0, 0.4 + 0.01 * k, 0.0) for k in range(21)]
    tracker = z_tracker(ext, 0.6134 + 0.8853j)
    zs = [tracker.track([pt]).values[0, 0] for pt in pts]
    for coeffs, zv in zip(rel_coeffs(ext, pts), zs):
        val = sum(c * zv ** k for k, c in enumerate(coeffs))
        assert abs(val) < 1e-9


def test_branch_jump_is_bisected(ext):
    # one coarse step on which Newton from the previous root lands on another
    # branch: the step (0.44) exceeds the gap at p1 (0.43), so the tracker
    # must bisect it and agree with a fine track of the same segment
    p0 = (4.985e-05 - 1.6874e-03j, 7.923e-03 + 6.164e-03j, 0.0)
    p1 = (-1.6600e-02 - 1.1566e-02j, -1.0701e-03 - 2.5849e-03j, 0.0)
    z0 = root_near(ext, p0, 0.18797 + 0.25638j)
    fine = z_tracker(ext, z0)
    for s in np.linspace(0.0, 1.0, 201):
        zf = fine.track([tuple(a + s * (b - a)
                               for a, b in zip(p0, p1))]).values[0, 0]
    assert abs(zf - (0.2986 + 0.0722j)) < 1e-3
    jumped = root_near(ext, p1, z0)
    assert abs(jumped - zf) > 0.3
    coarse = z_tracker(ext, z0)
    coarse.track([p0])
    assert abs(coarse.track([p1]).values[0, 0] - zf) < 1e-10
    values, roots, _ = z_tracker(ext, z0).track([p0, p1])
    assert abs(values[1, 0] - zf) < 1e-10
    assert abs(roots[1, 0] - zf) < 1e-10


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.floats(-2, 2), st.floats(-2, 2)), min_size=2, max_size=6,
                unique=True),
       st.integers(0, 5), st.floats(-0.01, 0.01))
def test_certified_separation_is_a_lower_bound(roots, pick, nudge):
    roots = np.array([complex(a, b) for a, b in roots])
    dists = np.abs(roots[:, None] - roots[None, :]) + np.eye(len(roots))
    assume(dists.min() > 1e-3)
    coeffs = np.poly(roots)[::-1]
    target = roots[pick % len(roots)]
    zv = newton_roots(coeffs[None], target + nudge * dists.min())[0]
    true = np.sort(np.abs(np.roots(coeffs[::-1]) - zv))[1]
    sep = certified_separation(coeffs[None], [zv])[0]
    assert sep <= true * (1 + 1e-9)


def test_certified_separation_reads_zero_at_a_multiple_root():
    # Newton stops about 1e-7 off a double root and 3e-5 off a triple root,
    # farther than the other root of the cluster lies, and np.roots splits a
    # double root: the bound is 0 there, not the distance from the iterate
    # to the cluster or the gap of the split
    for roots, seed in (([1e-11, -1e-11, 3.0], 1.0), ([0.0, 0.0, 0.0], 1.0),
                        ([2.0, 2.0, -1.0], 1.5)):
        coeffs = np.poly(roots)[::-1][None]
        zv = newton_roots(coeffs, seed)
        assert 1e-8 < abs(zv[0] - roots[0]) < 1e-4
        assert certified_separation(coeffs, zv)[0] < ROOT_SEPARATION
    # an exact double root, which np.roots splits by about 1e-8, polished
    # from one of its split roots
    coeffs = np.poly([1.0, 1.0, -2.0])[::-1][None]
    split = np.roots(coeffs[0][::-1])
    zv = newton_roots(coeffs, split[np.argmin(np.abs(split - 1))])
    assert certified_separation(coeffs, zv)[0] < ROOT_SEPARATION
    assert certified_separation([[-1.0, 1.0]], [1.0])[0] == np.inf


def test_newton_roots_takes_one_seed_per_row():
    # random cubics, row n seeded within 1/20 of its separation from one of
    # its roots: one call takes every row to the root its own seed is near
    rng = np.random.default_rng(7)
    count = 300
    roots = rng.normal(size=(count, 3)) + 1j * rng.normal(size=(count, 3))
    coeffs = np.array([np.poly(r)[::-1] for r in roots])
    want = np.array([np.roots(c[::-1]) for c in coeffs])
    pick = want[np.arange(count), rng.integers(0, 3, count)]
    gap = np.sort(np.abs(want - pick[:, None]), axis=1)[:, 1]
    seeds = pick + gap / 20 * np.exp(2j * np.pi * rng.random(count))
    got = newton_roots(coeffs, seeds)
    assert np.all(np.abs(got - pick) <= 1e-12 * np.maximum(1, np.abs(pick)))


def _bits(z):
    return np.asarray(z, dtype=complex).view(np.uint64)


def _newton_gathered(coeffs, seed):
    """The former newton_roots, which regathered the live rows by index at
    every step: the reference its results must equal bit for bit."""
    coeffs = np.asarray(coeffs, dtype=complex)
    tol = 1e-13 * np.maximum(1.0, np.abs(coeffs).max(axis=1, initial=0.0))
    c = np.ascontiguousarray(coeffs.T)
    z = np.array(np.broadcast_to(np.asarray(seed, dtype=complex), len(coeffs)))
    live = np.arange(len(coeffs))
    with np.errstate(all="ignore"):
        for _ in range(100):
            if not len(live):
                return z
            f, fp = _poly_values(c[:, live], z[live])
            done = np.abs(f) < tol[live]
            stuck = (fp == 0) & ~done
            z[live] -= np.where(fp == 0, 0, f / fp)
            z[live[stuck]] = np.nan
            live = live[~(done | stuck)]
        f, _ = _poly_values(c[:, live], z[live])
    z[live[~(np.abs(f) <= 1e4 * tol[live])]] = np.nan
    return z


def test_newton_roots_rows_leave_as_on_their_own():
    # cubics seeded from on a root to far off it finish at different steps,
    # so the live rows fall below half of the batch more than once and the
    # working arrays shrink; z^2 + 1 from 0 is stuck (f' = 0), z^3 - 1
    # from 1e300 overflows at its first step, z^3 - 2z + 2 from 0 cycles
    # 0, 1, 0, ... for all its steps, and a row with an infinite
    # coefficient has no finite iterate after its first step
    rng = np.random.default_rng(11)
    count = 240
    roots = rng.normal(size=(count, 3)) + 1j * rng.normal(size=(count, 3))
    coeffs = np.array([np.poly(r)[::-1] for r in roots])
    seeds = roots[:, 0] + np.geomspace(1e-16, 30, count) * np.exp(
        2j * np.pi * rng.random(count))
    seeds[0] = roots[0, 0]
    odd = np.array([[1, 0, 1, 0], [-1, 0, 0, 1], [2, -2, 0, 1],
                    [np.inf, 1, 0, 1]], dtype=complex)
    odd_seeds = np.array([0, 1e300, 0, 0.5], dtype=complex)
    base = newton_roots(coeffs, seeds)
    both = newton_roots(np.vstack([coeffs, odd]), np.append(seeds, odd_seeds))
    assert np.array_equal(_bits(both[:count]), _bits(base))
    alone = [newton_roots(c[None], s)[0] for c, s in
             zip(np.vstack([coeffs, odd]), np.append(seeds, odd_seeds))]
    assert np.array_equal(_bits(both), _bits(alone))
    assert np.array_equal(_bits(both), _bits(_newton_gathered(
        np.vstack([coeffs, odd]), np.append(seeds, odd_seeds))))
    assert np.isnan(both[count:]).all()
    assert not np.isnan(base).any()


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


@pytest.mark.parametrize("ring_name", ["plain", "ext"] + catalog.IDS)
def test_euler_termwise_matches_derivative_form(ring_name, plain, ext):
    # RingElem.euler is sum_k w_k t_k d/dt_k, on the fixture rings and on
    # every catalog ring, the lazy ones of LT19 and LT14 among them
    rings = {"plain": plain, "ext": ext}
    ring = rings.get(ring_name) or catalog.catalog_get(ring_name).pvf.ring
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
    row = [(root_near(ext, pt, 0.6 + 0.9j),) + pt]
    for _ in range(25):
        a = random_elem(ext, rng, with_z=True)
        b = random_elem(ext, rng, with_z=True)
        va, vb = EvalStack(a).eval_batch(row)[0], EvalStack(b).eval_batch(row)[0]
        scale = max(1.0, abs(va), abs(vb))
        assert abs(EvalStack(a + b).eval_batch(row)[0] - (va + vb)) < 1e-12 * scale
        assert abs(EvalStack(a * b).eval_batch(row)[0] - va * vb) < 1e-12 * scale * scale


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
    assert (t1 * 2) / 2 == t1
    assert (t1 * t3) / F(3, 4) == t1 * t3 * F(4, 3)
    with pytest.raises(ZeroDivisionError):
        t1 / 0
    with pytest.raises(TypeError):
        (t1 * t3) / t1


# ---------------------------------------------------------------------------
# quotient-ring division
# ---------------------------------------------------------------------------

def _laplace_det(pk, mat):
    if len(mat) == 1:
        return mat[0][0]
    acc = {}
    for j, entry in enumerate(mat[0]):
        if entry:
            minor = [row[:j] + row[j + 1:] for row in mat[1:]]
            acc = _p_lincomb(acc, 1, pk.mul(entry, _laplace_det(pk, minor)),
                             -1 if j % 2 else 1)
    return acc


def _cramer_quotient(ring, a, b):
    """Reference division in Q[t][z]/(rel): (q, den) with a = b q / den, or
    None.  Cramer's rule on the multiplication matrix of b, then a check that
    the solution, found over the fraction field, lies in the ring."""
    pk, d = ring._pk, ring.ext.z_degree
    cols, col_dens = [], []
    for j in range(d):
        bj, dj = ring._reduce(pk.shift(b, j * pk.zunit))
        cols.append(ring._z_slices(bj))
        col_dens.append(dj)
    mat = [[cols[j][i] for j in range(d)] for i in range(d)]
    det = _laplace_det(pk, mat)
    if not det:
        return None
    target = ring._z_slices(a)
    parts, den = [], 1
    for j in range(d):
        mat_j = [[target[i] if jj == j else mat[i][jj] for jj in range(d)]
                 for i in range(d)]
        r = pk.exact_div(_laplace_det(pk, mat_j), det)
        if r is None:
            return None
        parts.append((r[0], col_dens[j], r[1]))
        den = lcm(den, r[1])
    out = {}
    for j, (qj, dj, qdj) in enumerate(parts):
        out.update(pk.shift(qj, j * pk.zunit, dj * (den // qdj)))
    prod, pden = ring._reduce(pk.mul(out, b))
    if prod != {k: c * den * pden for k, c in a.items()}:
        return None
    return out, den


def _as_quotient(ring, r, x, u):
    """x / u as an element from raw (q, den) with x._t = u._t q / den."""
    if r is None:
        return None
    q, den = r
    return RingElem(ring, q, den * x._d) * u._d


def _raw_elems(ring):
    mono = st.tuples(st.integers(0, ring.ext.z_degree + 1),
                     *[st.integers(0, 2)] * ring.nvars)
    coeff = st.builds(F, st.integers(-6, 6).filter(bool), st.integers(1, 4))
    return st.dictionaries(mono, coeff, min_size=1, max_size=4).map(ring.from_raw)


# z-degrees 2, 3 and 4
QUOTIENT_ENTRIES = ("H3pp", "LT27", "H3p")
LAZY_ENTRIES = ("LT19", "LT14")


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(QUOTIENT_ENTRIES), st.sampled_from(("z", "rel_z", "other")),
       st.data())
def test_division_matches_cramer_reference(eid, unit, data):
    ring = catalog.catalog_get(eid).pvf.ring
    a = data.draw(_raw_elems(ring))
    if unit == "z":
        u = ring.zgen()
    elif unit == "rel_z":
        u = ring.from_raw(ring.ext.drel)
    else:
        u = data.draw(_raw_elems(ring))
        assume(ring._inverse(u._t)[1])          # not a zero divisor
    x = u * a
    assert not (x.zden or x.dden)
    assert _as_quotient(ring, ring._divide(x._t, ring._inverse(u._t)), x, u) == a
    assert _as_quotient(ring, _cramer_quotient(ring, x._t, u._t), x, u) == a
    if unit == "z":
        assert _as_quotient(ring, ring._z_divide(x._t), x, u) == a
    elif unit == "rel_z":
        assert _as_quotient(ring, ring._divide(x._t, ring._drel_inverse()), x, u) == a


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(QUOTIENT_ENTRIES), st.data())
def test_division_refuses_non_multiples_of_rel_z(eid, data):
    ring = catalog.catalog_get(eid).pvf.ring
    drel = ring.from_raw(ring.ext.drel)
    x = drel * data.draw(_raw_elems(ring)) + 1
    assert ring._divide(x._t, ring._drel_inverse()) is None
    assert _cramer_quotient(ring, x._t, drel._t) is None


# z-degrees 2, 3, 4, 9 and 16; the last two rings keep lazy denominators
SHIFT_ENTRIES = QUOTIENT_ENTRIES + ("LT19", "LT14")


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(SHIFT_ENTRIES), st.booleans(), st.data())
def test_z_shift_division_matches_adjugate_route(eid, multiple, data):
    # the shift route gives the quotient of the adjugate route, with its
    # terms in the same order, and refuses exactly what that refuses
    ring = catalog.catalog_get(eid).pvf.ring
    x = data.draw(_raw_elems(ring))
    if multiple:
        x = ring.zgen() * x
    shift = ring._z_divide(x._t)
    adjugate = ring._divide(x._t, ring._inverse({ring._pk.zunit: 1}))
    assert (shift is None) == (adjugate is None)
    if multiple:
        assert shift is not None
    if shift is not None:
        q, q_adj = _normalized(*shift), _normalized(*adjugate)
        assert q == q_adj and list(q[0]) == list(q_adj[0])


def _partial_by_the_quotient_rule(e, var, general=False):
    """The former RingElem.partial of an extension ring, along every
    variable: with N, D and R_i the integer numerator, rel_z and
    d(rel)/dt_i, and z' = -R_i / D,
    num' = z^ez D^eD (N_i D - N_z R_i) + a N R_i D^eD
           - b z^ez N (D_i D - D_z R_i)
    over s^(1+eD) times z^(a+ez) D^(b+1+eD), where ez = [a > 0] and
    eD = [b > 0]; with general, ez = eD = 1 whatever a and b (the general
    denominator z^(a+1) rel_z^(b+2))."""
    ring, pk, ext = e.ring, e.ring._pk, e.ring.ext
    slot = var + 1
    N, D, Ri = e._t, ext._drel, pk.partial(ext._rel, slot)
    a, b = e.zden, e.dden
    ez, eD = (1, 1) if general else (int(a > 0), int(b > 0))
    zkey = ez * pk.zunit
    num = _p_lincomb(pk.mul(pk.partial(N, slot), D), 1,
                     pk.mul(pk.partial(N, 0), Ri), -1)
    if eD:
        num = pk.mul(num, D)
    num = pk.shift(num, zkey)
    if a:
        NR = pk.mul(N, Ri)
        num = _p_lincomb(num, 1, pk.mul(NR, D) if eD else NR, a)
    if b:
        inner = _p_lincomb(pk.mul(pk.partial(D, slot), D), 1,
                           pk.mul(pk.partial(D, 0), Ri), -1)
        num = _p_lincomb(num, 1, pk.shift(pk.mul(N, inner), zkey), -b)
    return RingElem(ring, num, e._d * ext._scale ** (1 + eD), a + ez, b + 1 + eD)


@lru_cache(maxsize=None)
def _scaled_ring(eid, c):
    """The ring of a catalog entry with its relation multiplied by c, so that
    the integer relation is c's denominator times the stored one."""
    ring = catalog.catalog_get(eid).pvf.ring
    if c == 1:
        return ring
    return Ring(ring.weights, {m: c * v for m, v in ring.ext.relation.items()},
                ring.ext.z_weight)


# the cancelling rings of z-degrees 4, 2 and 3 and a lazy one (z-degree 9),
# as catalogued (integer relations) and with rational relations
PARTIAL_RINGS = (("H3p", 1), ("H3pp", 1), ("LT27", 1), ("LT27", F(5, 6)),
                 ("LT19", 1), ("LT19", F(2, 7)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(PARTIAL_RINGS), st.integers(0, 2), st.integers(0, 2),
       st.data())
def test_partial_matches_the_general_formula(spec, zden, dden, data):
    # the minimal denominators give the same element as the general one on
    # every ring; on a lazy ring the lift to the printed form
    # (flatcore._printed) has the general one's denominators and terms
    ring = _scaled_ring(*spec)
    e = ring.from_raw(data.draw(_raw_elems(ring)).num, zden, dden)
    for var in range(ring.nvars):
        got, want = e.partial(var), _partial_by_the_quotient_rule(e, var, general=True)
        assert got == want
        if ring.lazy:
            lifted = flatcore._printed(got, e)
            assert _denominators(lifted) == _denominators(want)
            assert lifted._t == want._t


def _denominators(e):
    return e.zden, e.dden, e._d


@pytest.mark.parametrize("eid", LAZY_ENTRIES)
def test_printed_c_carries_the_general_denominators(eid):
    # the serialized C of a lazy ring (flatcore.printed) has the general
    # formula's denominators and terms, from the g_j it differentiates,
    # while the structure the checks and the numerics read carries the
    # minimal gradient
    pvf = catalog.catalog_get(eid).pvf
    m = flatcore.build_saito_matrices(pvf)
    C = flatcore.printed(pvf, m).C
    n = m.n
    for i in range(n):
        for j in range(n):
            want = _partial_by_the_quotient_rule(pvf.g[j], i, general=True)
            assert _denominators(C[i][j]) == _denominators(want)
            assert C[i][j]._t == want._t
            assert m.C[i][j].dden <= 1


def _relation_vars(ring):
    """The 0-based indices of the variables the relation contains."""
    return [v for v in range(ring.nvars) if any(m[v + 1] for m in ring.ext.relation)]


@pytest.mark.parametrize("eid", LAZY_ENTRIES)
def test_partial_of_a_polynomial_on_a_lazy_ring_has_one_rel_z(eid):
    # the minimal rule holds on lazy rings too: along a variable the
    # relation contains, no z and one rel_z
    ring = catalog.catalog_get(eid).pvf.ring
    assert ring.lazy
    assert _relation_vars(ring) == [0, 1]
    rng = random.Random(11)
    for e in [random_elem(ring, rng, with_z=True) for _ in range(8)]:
        assert not (e.zden or e.dden)
        for var in _relation_vars(ring):
            d = e.partial(var)
            if not d.is_zero():
                assert (d.zden, d.dden) == (0, 1)


@pytest.mark.parametrize("eid", QUOTIENT_ENTRIES)
def test_partial_of_a_polynomial_divides_at_most_once(eid, monkeypatch):
    # with no denominator to differentiate, no z enters the new one and
    # rel_z enters once along t1 and t2, so cancelling it takes at most one
    # division; along t3, which the relation does not contain, nothing
    # enters and nothing is divided
    ring = catalog.catalog_get(eid).pvf.ring
    calls = {"_divide": 0, "_z_divide": 0}
    for name in calls:
        def counted(self, *args, _name=name, _orig=getattr(Ring, name)):
            calls[_name] += 1
            return _orig(self, *args)
        monkeypatch.setattr(Ring, name, counted)
    rng = random.Random(7)
    for _ in range(5):
        e = random_elem(ring, rng, with_z=True)
        assert not (e.zden or e.dden)
        for var in range(ring.nvars):
            before = dict(calls)
            e.partial(var)
            assert calls["_z_divide"] == before["_z_divide"]
            assert calls["_divide"] - before["_divide"] <= (var in _relation_vars(ring))


EXTENSION_ENTRIES = QUOTIENT_ENTRIES + LAZY_ENTRIES


def _partial_cases(eid):
    """g, C, every B^(k) and h of a catalog entry, and random elements over
    z^a rel_z^b for a, b in 0..2; each numerator has a constant term, which
    no nonconstant homogeneous polynomial divides, so z stays in them."""
    pvf = catalog.catalog_get(eid).pvf
    ring = pvf.ring
    m = flatcore.build_saito_matrices(pvf)
    elems = list(pvf.g) + [e for M in (m.C, *m.Btilde) for row in M for e in row]
    elems.append(m.h)
    rng = random.Random(53)
    for a in range(3):
        for b in range(3):
            raw = random_elem(ring, rng, with_z=True) + 1
            elems.append(ring.from_raw(raw.num, zden=a, dden=b))
    return elems


@pytest.mark.parametrize("eid", EXTENSION_ENTRIES)
def test_partial_equals_the_quotient_rule(eid):
    # along every variable, on every extension entry; the relation is free
    # of t3, so there no z and no rel_z enters the denominator
    elems = _partial_cases(eid)
    ring = elems[0].ring
    assert _relation_vars(ring) == [0, 1]
    assert [(e.zden, e.dden) for e in elems[-9:]] == [(a, b) for a in range(3)
                                                      for b in range(3)]
    for e in elems:
        for var in range(ring.nvars):
            assert e.partial(var) == _partial_by_the_quotient_rule(e, var), (eid, var)
        d = e.partial(ring.nvars - 1)
        assert d.zden <= e.zden and d.dden <= e.dden


@pytest.mark.parametrize("degree", [5, 10])
def test_rel_z_enters_along_a_variable_the_relation_contains(degree):
    # z^d + t1 z^(2d/5) + t3 with weights (3/5, 4/5, 1), z of weight 1/d:
    # z' = -1/rel_z along t3, so rel_z enters there as along t1, on a
    # cancelling ring (d = 5) and a lazy one (d = 10)
    rel = {(degree, 0, 0, 0): F(1), (2 * degree // 5, 1, 0, 0): F(1),
           (0, 0, 0, 1): F(1)}
    ring = Ring(["3/5", "4/5", "1"], extension=rel, z_weight=F(1, degree))
    assert ring.lazy is (degree > 8)
    assert _relation_vars(ring) == [0, 2]
    z = ring.zgen()
    dz = z.partial(2)
    assert (dz.zden, dz.dden) == (0, 1)
    assert dz * ring.from_raw(ring.ext.drel) == -1
    assert z.partial(1).is_zero()
    rng = random.Random(5)
    elems = [z * ring.var(0) + ring.var(1) ** 2]
    elems += [ring.from_raw(random_elem(ring, rng, with_z=True).num, zden=a, dden=b)
              for a in range(2) for b in range(2)]
    for e in elems:
        for var in range(ring.nvars):
            assert e.partial(var) == _partial_by_the_quotient_rule(e, var), var
    d = elems[0].partial(2)
    assert (d.zden, d.dden) == (0, 1)


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


@pytest.mark.parametrize("eid", ["H3p", "LT27", "LT19"])
def test_eval_divides_by_powers_of_z_and_rel_z(eid):
    # num / z^2 and num / rel_z built by Ring.from_raw, at the zero z of the
    # relation that Newton's method finds from the entry's z seed at the
    # first default-path point, against the closed form: num term by term
    # over z^2, and over rel_z, the z-derivative of the relation term by
    # term.  Neither denominator cancels, so eval_batch divides by z^2 and
    # by rel_z, which no element of a catalog structure makes it do for z
    cat = catalog.catalog_get(eid)
    ring = cat.pvf.ring
    row = (*cat.default_path.points[0], 0.7)
    z = complex(root_near(ring, row, cat.z_seed))
    values = (z, *row)
    num = {(1, 1, 0, 0): F(2, 3), (0, 0, 1, 1): F(-5, 7), (0, 0, 0, 0): F(1)}
    num_value = sum(complex(c) * np.prod([x ** e for x, e in zip(values, mono)])
                    for mono, c in num.items())
    rel_z = sum(complex(c * mono[0]) * z ** (mono[0] - 1)
                * np.prod([x ** e for x, e in zip(row, mono[1:])])
                for mono, c in ring.ext.relation.items() if mono[0])
    by_z, by_rel_z = ring.from_raw(num, zden=2), ring.from_raw(num, dden=1)
    assert (by_z.zden, by_rel_z.dden) == (2, 1)
    got = EvalStack([by_z, by_rel_z]).eval_batch([values])[:, 0]
    want = num_value / np.array([z ** 2, rel_z])
    assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))


def test_eval_batch_refuses_rows_of_another_width(plain):
    stack = EvalStack(plain.var(0))
    for rows in ([(0, 1, 2)], [(0, 1, 2, 3, 4)], [0, 1, 2, 3]):
        with pytest.raises(ValueError, match="expected rows of 4 values"):
            stack.eval_batch(rows)


@pytest.mark.parametrize("eid", catalog.catalog_list())
def test_compiled_eval_matches_fraction_reference(eid):
    # eval_batch along the whole default path, for every entry of T0, adj(T)
    # and dh (LT14 and LT19 carry z and rel_z denominators), against a
    # term-by-term complex(Fraction) evaluation, within 1e-12 of the sum of
    # the term magnitudes
    from flatiso import flatcore, p6
    cat = catalog.catalog_get(eid)
    m = flatcore.build_saito_matrices(cat.pvf)
    ring = m.ring
    sampler = p6.StructureSampler(m, z_seed=cat.z_seed)
    rows = []
    for tp in cat.default_path.points:
        zv = sampler.track([tp]).values[0, 0]
        rows.append((zv,) + tuple(tp) + (0.0,))

    def reference(num, values):
        terms = []
        for mono, c in num.items():
            v = complex(c)
            for e, x in zip(mono, values):
                v *= x ** e
            terms.append(v)
        return sum(terms), sum(abs(v) for v in terms)

    elems = [x for M in (m.T0, signed_minors(m.T)) for row in M for x in row] + list(m.dh)
    assert any(x.zden or x.dden for x in elems) == (eid in ("LT14", "LT19"))
    for x in elems:
        got = EvalStack(x).eval_batch(rows)
        for k, values in enumerate(rows):
            val, scale = reference(x.num, values)
            if x.zden:
                val /= values[0] ** x.zden
                scale /= abs(values[0]) ** x.zden
            if x.dden:
                d = reference(ring.ext.drel, values)[0] ** x.dden
                val, scale = val / d, scale / abs(d)
            assert abs(got[k] - val) <= 1e-12 * scale


@pytest.mark.parametrize("eid", catalog.catalog_list())
def test_batched_eval_matches_scalar(eid):
    # eval_batch along the whole default path against eval_batch on the one
    # row of each point, for every entry of T0, adj(T) and dh (LT14 and LT19
    # carry z and rel_z denominators), within 1e-12 of the sum of term
    # magnitudes
    import numpy as np
    from flatiso import flatcore, p6
    cat = catalog.catalog_get(eid)
    m = flatcore.build_saito_matrices(cat.pvf)
    ring = m.ring
    sampler = p6.StructureSampler(m, z_seed=cat.z_seed)
    pts = [tuple(tp) + (0.0,) for tp in cat.default_path.points]
    zs = [sampler.track([tp]).values[0, 0] for tp in cat.default_path.points]
    values = np.array([(z,) + pt for z, pt in zip(zs, pts)])

    def terms(num):
        # every term c * prod x^e of a {exponent tuple: Fraction} polynomial
        exps = np.array(list(num), dtype=float).reshape(len(num), ring.nvars + 1)
        coeffs = np.array([complex(c) for c in num.values()])
        return coeffs[:, None] * np.prod(values[None] ** exps[:, None], axis=2)

    elems = [x for M in (m.T0, signed_minors(m.T)) for row in M for x in row] + list(m.dh)
    assert any(x.zden or x.dden for x in elems) == (eid in ("LT14", "LT19"))
    for x in elems:
        scale = np.abs(terms(x.num)).sum(axis=0)
        if x.zden:
            scale /= np.abs(values[:, 0]) ** x.zden
        if x.dden:
            scale /= np.abs(terms(ring.ext.drel).sum(axis=0)) ** x.dden
        stack = EvalStack(x)
        got = stack.eval_batch(values)
        want = np.array([stack.eval_batch(row[None])[0] for row in values])
        assert got.shape == (len(values),)
        assert np.all(np.abs(got - want) <= 1e-12 * scale)



@pytest.mark.parametrize("eid", catalog.catalog_list())
def test_tracker_stack_matches_t0_and_h_compiled_alone(eid):
    # the tracker's one stack holds T0's entries row by row, then h's
    # t_n-coefficients, lowest first: along the default path and on single
    # rows it evaluates each bit for bit as T0 and h_coeffs compiled on
    # their own, rel_z denominators (LT14, LT19) included
    from flatiso import p6
    cat = catalog.catalog_get(eid)
    m = flatcore.build_saito_matrices(cat.pvf)
    n = m.n
    stack = m.T0_h_stack
    assert stack.shape == (n * n + n + 1,)
    T0, h = EvalStack(m.T0), EvalStack(m.h_coeffs)
    assert bool(stack._dden) == bool(T0._dden or h._dden) == (eid in ("LT14", "LT19"))
    values = p6.StructureSampler(m, z_seed=cat.z_seed).track(
        cat.default_path.points).values
    for rows in (values, values[:1], values[len(values) // 2][None], values[-1:]):
        got = stack.eval_batch(rows)
        assert got.shape == (n * n + n + 1, len(rows))
        assert np.array_equal(got[:n * n].reshape(n, n, -1), T0.eval_batch(rows))
        assert np.array_equal(got[n * n:], h.eval_batch(rows))

def per_element(num, zden, dden, ring, values):
    """An element at every row by the per-element kernel that the stacked one
    replaced: the terms of num in the order it holds them, multiplied slot by
    slot up to the element's own top exponent, one sum(axis=0), then
    z^zden and rel_z^dden."""
    import numpy as np
    exps = np.array(list(num), dtype=np.intp).reshape(len(num), ring.nvars + 1)
    acc = np.repeat(np.array([float(c) for c in num.values()],
                             dtype=complex)[:, None], len(values), axis=1)
    for s in range(exps.shape[1]):
        top = int(exps[:, s].max(initial=0))
        if top:
            acc *= np.vander(values[:, s], top + 1, increasing=True).T[exps[:, s]]
    val = acc.sum(axis=0)
    if zden:
        val /= values[:, 0] ** zden
    if dden:
        val /= per_element(ring.ext.drel, 0, 0, ring, values) ** dden
    return val


@pytest.mark.parametrize("eid", catalog.catalog_list())
def test_stacked_eval_is_bit_identical(eid):
    # T0, both dT0 matrices and adj(T) in one stack, and the stacks kept on
    # SaitoMatrices (T0's part of the tracker's), along the default path and on one row: bit for bit the
    # per-element values, identically zero entries and the z and rel_z
    # denominators of LT14 and LT19 included
    import numpy as np
    from flatiso import flatcore, p6
    cat = catalog.catalog_get(eid)
    m = flatcore.build_saito_matrices(cat.pvf)
    n = m.n
    mats = [m.T0, *m.dT0, signed_minors(m.T)]
    elems = [x for M in mats for row in M for x in row]
    assert any(x.is_zero() for x in elems)
    assert any(x.zden or x.dden for x in elems) == (eid in ("LT14", "LT19"))
    values = p6.StructureSampler(m, z_seed=cat.z_seed).track(
        cat.default_path.points).values
    stack = EvalStack(mats)
    assert stack.shape == (n + 1, n, n)
    for rows in (values, values[len(values) // 2][None]):
        want = np.array([per_element(x.num, x.zden, x.dden, m.ring, rows)
                         for x in elems])
        got = stack.eval_batch(rows)
        assert got.shape == (n + 1, n, n, len(rows))
        assert np.array_equal(got.reshape(want.shape), want)
        assert np.array_equal(m.T0_h_stack.eval_batch(rows)[:n * n],
                              want[:n * n])
        assert np.array_equal(m.dT0_stack.eval_batch(rows),
                              want[n * n:n ** 3].reshape(n - 1, n, n, -1))
        assert np.array_equal(np.array([EvalStack(x).eval_batch(rows) for x in elems]),
                              want)
