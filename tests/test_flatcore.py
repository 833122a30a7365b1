import functools
import itertools
import random
from fractions import Fraction as F

import pytest

from flatiso import catalog, exprio, flatcore
from flatiso.errors import (FlatIsoError, InputError, NoRescalingFound, NotMonic,
                            SchemaError)
from flatiso.flatcore import (PotentialVF, build_saito_matrices,
                              check_extended_wdvv, check_saito_relations,
                              frobenius_check, mat_commutator, mat_det,
                              mat_is_zero)
from flatiso.ring import RingElem


def test_klein_matrices(klein, klein_matrices):
    ring = klein.ring
    t = ring.gens()
    m = klein_matrices
    # row n of C is (t1, t2, t3)
    for j in range(3):
        assert m.C[2][j] == t[j]
    # B^(3) = I
    assert all((e - 1 if i == j else e).is_zero()
               for i, row in enumerate(m.Btilde[2]) for j, e in enumerate(row))
    # T11 = t1^2 t2 / 2 - t3
    assert m.T[0][0] == t[0] ** 2 * t[1] / 2 - t[2]
    # T entry weights 1 + w_j - w_i
    w = m.weights
    for i in range(3):
        for j in range(3):
            e = m.T[i][j]
            assert e.is_zero() or e.is_homogeneous(1 + w[j] - w[i])


def test_t11_matches_rational_evaluation(klein, klein_matrices):
    # independent oracle: T11 = -(1 + w1 - w1) dg1/dt1 at random rational points
    rng = random.Random(11)
    lhs = klein_matrices.T[0][0]
    rhs = -klein.g[0].partial(0)
    for _ in range(20):
        pt = tuple(F(rng.randrange(-9, 10), rng.randrange(1, 8)) for _ in range(3))
        assert lhs.subs_var(0, pt[0]).subs_var(1, pt[1]).subs_var(2, pt[2]) == \
            rhs.subs_var(0, pt[0]).subs_var(1, pt[1]).subs_var(2, pt[2])


def test_wdvv_all_pass(klein):
    rep = check_extended_wdvv(klein)
    assert rep.unit_ok and rep.homogeneity_ok and rep.commutators_ok
    assert rep.saito_relations_ok and rep.flat_normalization_ok
    assert rep.is_solution


def test_wdvv_trivial_n2(trivial_n2):
    rep = check_extended_wdvv(trivial_n2)
    assert rep.is_solution
    m = build_saito_matrices(trivial_n2)
    assert check_saito_relations(m)
    assert m.flat_normalized


def test_wdvv_perturbed_klein(perturbed_klein):
    rep = check_extended_wdvv(perturbed_klein)
    # t1^7 has weight 2 = 1 + w3, so homogeneity survives but commutators break
    assert rep.homogeneity_ok
    assert not rep.commutators_ok
    assert rep.failing_commutators() == [(1, 2)]
    m = build_saito_matrices(perturbed_klein)
    assert not check_saito_relations(m)


@pytest.mark.parametrize("eid", ["LT19", "LT14"])
def test_wdvv_perturbed_lazy_ring(perturbed_lazy, eid):
    # the same defect in a ring with lazy denominators, whose structure
    # holds the z-cancelled gradient
    pvf = perturbed_lazy(eid)
    assert pvf.ring.lazy
    assert (pvf.g[2] - catalog.catalog_get(eid).pvf.g[2]).weight() == 2
    rep = check_extended_wdvv(pvf)
    assert rep.unit_ok and rep.homogeneity_ok and rep.flat_normalization_ok
    assert rep.failing_commutators() == [(1, 2)]
    assert not rep.saito_relations_ok
    assert not rep.is_solution


def test_wdvv_inhomogeneous_reported_not_raised(klein):
    # t1^2 has weight 4/7 != 2 = 1 + w3, so T is inhomogeneous and no
    # SaitoMatrices can be built; the check reports instead of raising
    g = list(klein.g)
    g[2] = g[2] + klein.ring.var(0) ** 2
    rep = check_extended_wdvv(PotentialVF(ring=klein.ring, g=g))
    assert rep.unit_ok
    assert not rep.homogeneity_ok
    assert rep.failing_commutators() == [(1, 2)]
    assert rep.saito_relations_ok is False
    assert rep.flat_normalization_ok is False
    assert rep.matrices is None
    assert not rep.is_solution


def test_flat_normalization_hand_built(klein, klein_matrices):
    assert klein_matrices.flat_normalized
    # g_1 += 3 t3 t1 keeps g_1 homogeneous of weight 1 + w_1, and adds 3 t1
    # to C_31, so T_31 = -(2/7)(1 + 3) t1 breaks T_31 = -w_1 t1
    t1, t3 = klein.ring.var(0), klein.ring.var(2)
    g = [klein.g[0] + t3 * t1 * 3] + list(klein.g[1:])
    broken = build_saito_matrices(PotentialVF(ring=klein.ring, g=g))
    assert broken.T[2][0] == t1 * F(-8, 7)
    assert not broken.flat_normalized


def _structures(perturbed_klein, perturbed_lazy):
    """(pvf, whether it is a solution) for the 11 entries and the three
    perturbed controls."""
    cases = [(catalog.catalog_get(eid).pvf, True) for eid in catalog.IDS]
    return cases + [(perturbed_klein, False), (perturbed_lazy("LT19"), False),
                    (perturbed_lazy("LT14"), False)]


def test_multiplication_matrix_symmetry(perturbed_klein, perturbed_lazy):
    # B^(k)_ij = B^(i)_kj: both are the mixed second partial of g_j; and
    # closedness dB^(i)/dt_j = dB^(j)/dt_i, since mixed partials commute,
    # which check_saito_relations takes from how B is derived
    for pvf, _ in _structures(perturbed_klein, perturbed_lazy):
        m = build_saito_matrices(pvf)
        B, n = m.Btilde, m.n
        idx = list(itertools.product(range(n), repeat=3))
        assert all((B[k][i][j] - B[i][k][j]).is_zero() for k, i, j in idx), pvf.name
        assert all((B[i][r][c].partial(j) - B[j][r][c].partial(i)).is_zero()
                   for i, r, c in idx for j in range(i + 1, n)), pvf.name


def test_saito_relations_catalog_subset():
    for eid in ("H3", "LT26", "LT27"):
        pvf = catalog.catalog_get(eid).pvf
        m = build_saito_matrices(pvf)
        assert check_saito_relations(m)


@pytest.mark.parametrize("eid", catalog.IDS)
def test_printed_and_cancelled_structures_agree(eid):
    # the printed forms (on a lazy ring C lifted to the general
    # denominators, T and h derived from it) equal the z-cancelled
    # structure the checks read, entry by entry as ring elements; off lazy
    # rings they are its own objects
    pvf = catalog.catalog_get(eid).pvf
    m = build_saito_matrices(pvf)
    p = flatcore.printed(pvf, m)
    assert (p is m) is not m.ring.lazy
    pairs = [(x, y) for a, b in ((p.C, m.C), (p.T, m.T))
             for ra, rb in zip(a, b) for x, y in zip(ra, rb)]
    assert all(x == y for x, y in pairs + [(p.h, m.h)])


def test_homogeneity_ok_is_the_weight_test(klein, perturbed_klein):
    # is_homogeneous(1 + w_j) against the zero test of E g_j - (1 + w_j) g_j
    # it replaced, on the catalog, a homogeneous control and an
    # inhomogeneous one (t1^2 has weight 4/7, not 2 = 1 + w3)
    g = list(klein.g)
    g[2] = g[2] + klein.ring.var(0) ** 2
    inhomogeneous = PotentialVF(ring=klein.ring, g=g)
    cases = [(catalog.catalog_get(eid).pvf, True) for eid in catalog.IDS]
    cases += [(perturbed_klein, True), (inhomogeneous, False)]
    for pvf, expected in cases:
        w = pvf.weights
        by_weights = [gj.is_homogeneous(1 + wj) for gj, wj in zip(pvf.g, w)]
        by_euler = [(gj.euler() - gj * (1 + wj)).is_zero()
                    for gj, wj in zip(pvf.g, w)]
        assert by_weights == by_euler
        assert all(by_weights) is expected
        assert check_extended_wdvv(pvf).homogeneity_ok is expected


# ---------------------------------------------------------------------------
# the Euler identity T = -sum_k w_k t_k B^(k) behind check_saito_relations
# ---------------------------------------------------------------------------

def _direct_relations(m):
    """The structure relations formed entry by entry, the reference for
    check_saito_relations: (closedness and commutativity, [T, B^(i)] = 0,
    dT/dt_i + B^(i) + [B^(i), Binf] = 0)."""
    n, B, w = m.n, m.Btilde, m.weights
    fused_sum = m.ring.fused_sum
    rc = [(r, c) for r in range(n) for c in range(n)]
    closed = all((B[i][r][c].partial(j) - B[j][r][c].partial(i)).is_zero()
                 for i in range(n) for j in range(i + 1, n) for r, c in rc)
    commuting = all(mat_is_zero(x) for x in m.commutators.values())
    t_family = all(mat_is_zero(mat_commutator(m.T, B[i])) for i in range(n))
    dt_family = all(fused_sum([(1 + w[c] - w[r], B[i][r][c]),
                               (1, m.T[r][c].partial(i))]).is_zero()
                    for i in range(n) for r, c in rc)
    return closed and commuting, t_family, dt_family


def _homogeneous_b(m):
    """Every B^(i)_rc homogeneous of weight 1 + w_c - w_r - w_i."""
    w = m.weights
    return all(e.is_homogeneous(1 + w[c] - w[r] - w[i])
               for i, Bi in enumerate(m.Btilde)
               for r, row in enumerate(Bi) for c, e in enumerate(row))


def _euler_defects_vanish(m):
    """T + sum_k w_k t_k B^(k) = 0, entry by entry."""
    t, w, B = m.ring.gens(), m.weights, m.Btilde
    return all(m.ring.fused_sum([(1, e)] + [(w[k], t[k], B[k][r][c])
                                            for k in range(m.n)]).is_zero()
               for r, row in enumerate(m.T) for c, e in enumerate(row))


def _forms(mats):
    """Each entry of stacked matrices as stored: its terms in order, the
    integer denominator and the z and rel_z powers."""
    return [(list(e._t.items()), e._d, e.zden, e.dden)
            for M in mats for row in M for e in row]


def test_euler_identity_certifies_the_direct_families(perturbed_klein,
                                                      perturbed_lazy):
    for pvf, expected in _structures(perturbed_klein, perturbed_lazy):
        m = build_saito_matrices(pvf)
        assert _euler_defects_vanish(m), pvf.name
        # the same identity differentiated: dT0/dt_k = -(E + w_k) B^(k) is
        # stored as the partials of T0 are, term order and denominators too
        oracle = [[[e.partial(k) for e in row] for row in m.T0]
                  for k in range(m.n - 1)]
        assert _forms(m.dT0) == _forms(oracle), pvf.name
        assert _homogeneous_b(m), pvf.name
        first, t_family, dt_family = _direct_relations(m)
        # homogeneous B^(i) and closedness give the dT family on every
        # structure; the [T, B] family goes with the commutators
        assert dt_family and t_family is first, pvf.name
        assert check_saito_relations(m) is (first and t_family and dt_family)
        assert check_saito_relations(m) is expected, pvf.name


def test_perturbed_t_entry_fails_on_both_routes(klein_matrices, trivial_n2):
    # C_11 - (7/2) t1, the gradient of g_1 - (7/4) t1^2, adds t1 = -E(-(7/2) t1)
    # to T_11; B^(1)_11 gains the constant -7/2, which has weight 0, not
    # 1 + w_1 - w_1 - w_1 = 5/7, and [B^(1), B^(2)] no longer vanishes
    m = klein_matrices
    t1 = m.ring.var(0)
    C = [row[:] for row in m.C]
    C[0][0] = C[0][0] - t1 * F(7, 2)
    bad = flatcore.SaitoMatrices(ring=m.ring, C=C)
    assert bad.T[0][0] == m.T[0][0] + t1
    assert not _homogeneous_b(bad)
    assert _direct_relations(bad) == (False, False, False)
    assert not check_saito_relations(bad)
    # g1 += t1^2 on the n = 2 structure: T = -E C is not homogeneous, so
    # build_saito_matrices refuses g; B^(2) = I commutes, but
    # B^(1)_11 = 6 t1 + 2 is not homogeneous, so the weight test fails it,
    # as does the direct dT sum
    ring = trivial_n2.ring
    s1 = ring.var(0)
    g = [trivial_n2.g[0] + s1 ** 2, trivial_n2.g[1]]
    with pytest.raises(SchemaError):
        build_saito_matrices(PotentialVF(ring=ring, g=g))
    inhomogeneous = flatcore.SaitoMatrices(
        ring=ring, C=[[g[j].partial(i) for j in range(2)] for i in range(2)])
    assert _euler_defects_vanish(inhomogeneous)
    assert not _homogeneous_b(inhomogeneous)
    assert _direct_relations(inhomogeneous) == (True, True, False)
    assert not check_saito_relations(inhomogeneous)


# ---------------------------------------------------------------------------
# the commutators against B^(n) and the Euler row's trace defect, formed
# from the unit and flat-normalization defects
# ---------------------------------------------------------------------------

class _Direct(flatcore.SaitoMatrices):
    """A structure whose commutators, trace defects and flat-normalization
    verdict are formed directly: [B^(p), B^(q)] from the B^(k) themselves,
    V_k h - tr(B^(k)) h from every row of -T, and T_nj + w_j t_j tested
    entry by entry."""

    @functools.cached_property
    def commutators(self):
        B, n = self.Btilde, self.n
        return {(p + 1, q + 1): mat_commutator(B[p], B[q])
                for p in range(n) for q in range(p + 1, n)}

    @functools.cached_property
    def trace_defects(self):
        return [_direct_trace_defect(self, k) for k in range(self.n)]

    @functools.cached_property
    def flat_normalized(self):
        t, w = self.ring.gens(), self.weights
        return all((e + tj * wj).is_zero() for e, tj, wj in zip(self.T[-1], t, w))


def _direct_trace_defect(m, k):
    """sum_j (-T)_kj d_j h - tr(B^(k)) h, one fused sum."""
    return m.ring.fused_sum([(1, v, d) for v, d in zip(m.minus_T[k], m.dh)]
                            + [(-1, m.traces[k], m.h)])


def _unit_breaking(eid):
    """g_1 += t1 t3 / 5 on entry eid: homogeneous, since t1 t3 has weight
    1 + w_1, but B^(3)_11 gains 1/5, so B^(3) != I and h is not monic."""
    pvf = catalog.catalog_get(eid).pvf
    t1, t3 = pvf.ring.var(0), pvf.ring.var(2)
    return _with_g(pvf, 0, pvf.g[0] + t1 * t3 / 5)


def _defect_controls(perturbed_klein):
    """(name, pvf): the 11 entries, the perturbed-Klein control and the
    unit-breaking controls on LT8, H3 and LT19."""
    cases = [(eid, catalog.catalog_get(eid).pvf) for eid in catalog.IDS]
    return cases + [("LT8-perturbed", perturbed_klein)] + [
        (f"{eid}-unit-broken", _unit_breaking(eid)) for eid in ("LT8", "H3", "LT19")]


def _off_euler(cls):
    """(name, structure of class cls) whose row n of -T is not the Euler
    field while h stays monic of degree n and homogeneous of weight n.

    On n = 2, C = ((t2/2 + t1^2, t1^3), (2 t1, 2 t2)) over the weights
    (1/2, 1) has flat defect (-t1/2, -t2) and tr(B^(2)) = 5/2, so both
    terms of the Euler row's defect are nonzero.  On LT8 and LT19, t1 added
    to C_31 gives flat defect (-w_1 t1, 0, 0) and leaves B^(3) = I."""
    from flatiso.ring import Ring
    ring = Ring(["1/2", "1"])
    t1, t2 = ring.gens()
    out = [("n2", cls(ring=ring, C=[[t2 / 2 + t1 ** 2, t1 ** 3],
                                    [t1 * 2, t2 * 2]]))]
    for eid in ("LT8", "LT19"):
        m = build_saito_matrices(catalog.catalog_get(eid).pvf)
        C = [row[:] for row in m.C]
        C[2][0] = C[2][0] + m.ring.var(0)
        out.append((f"{eid}-off-euler", cls(ring=m.ring, C=C)))
    return out


def _entries(a):
    return [e for row in a for e in row]


def test_unit_side_commutators_are_the_direct_ones(perturbed_klein):
    # [B^(p), B^(n) - I] is [B^(p), B^(n)] as a ring element, entry by
    # entry, on structures that meet the unit condition and on those that
    # break it: the three controls, where both commutators against B^(3)
    # are nonzero, and the hand-built n = 2 structure, with B^(2) =
    # diag(1/2, 2)
    structures = [(name, flatcore._structure(pvf))
                  for name, pvf in _defect_controls(perturbed_klein)]
    structures += _off_euler(flatcore.SaitoMatrices)
    broken = []
    for name, m in structures:
        B, n = m.Btilde, m.n
        for p in range(n - 1):
            direct = mat_commutator(B[p], B[n - 1])
            assert all(x == y for x, y in zip(_entries(m.commutators[(p + 1, n)]),
                                              _entries(direct))), (name, p)
            if not mat_is_zero(direct):
                broken.append((name, p + 1))
    assert broken == [(f"{eid}-unit-broken", p) for eid in ("LT8", "H3", "LT19")
                      for p in (1, 2)] + [("n2", 1)]


def test_euler_row_defect_is_the_direct_one(perturbed_klein):
    # -sum_j flat_defect_j d_j h - (tr(B^(n)) - n) h is V_n h - tr(B^(n)) h
    # wherever h is defined; every homogeneous g that breaks the unit
    # condition breaks h's monic check, so the hand-built structures are
    # the ones with a nonzero flat defect
    for name, pvf in _defect_controls(perturbed_klein):
        m = flatcore._structure(pvf)
        if name.endswith("unit-broken"):
            assert not mat_is_zero(m.unit_defect)
            with pytest.raises(NotMonic, match="not monic"):
                m.trace_defects
            continue
        assert m.trace_defects[-1] == _direct_trace_defect(m, m.n - 1), name
    for name, m in _off_euler(flatcore.SaitoMatrices):
        n = m.n
        assert not all(e.is_zero() for e in m.flat_defect), name
        assert (m.traces[-1] == n) is (name != "n2"), name
        defect = m.trace_defects[-1]
        assert not defect.is_zero(), name
        assert defect == _direct_trace_defect(m, n - 1), name
        assert all(x == _direct_trace_defect(m, k)
                   for k, x in enumerate(m.trace_defects)), name


def _block(m):
    """catalog.logvf_block on m, or the error it raises."""
    try:
        block = catalog.logvf_block(m)
    except FlatIsoError as exc:
        return type(exc).__name__, str(exc)
    assert block["discriminant_weight"] == str(m.h.weight())
    return block


def _verdicts(pvf):
    rep = check_extended_wdvv(pvf)
    return (rep.unit_ok, rep.homogeneity_ok, rep.failing_commutators(),
            rep.saito_relations_ok, rep.flat_normalization_ok,
            _block(rep.matrices))


def test_defect_forms_keep_every_verdict(monkeypatch, perturbed_klein):
    # check_extended_wdvv and logvf_block read the same verdicts as on
    # structures that form every commutator and trace defect directly
    controls = _defect_controls(perturbed_klein)
    ours = [_verdicts(pvf) for _, pvf in controls]
    ours += [_block(m) for _, m in _off_euler(flatcore.SaitoMatrices)]
    monkeypatch.setattr(flatcore, "SaitoMatrices", _Direct)
    direct = [_verdicts(pvf) for _, pvf in controls]
    direct += [_block(m) for _, m in _off_euler(_Direct)]
    assert ours == direct
    assert [v[0] for v in ours[:15]] == [True] * 12 + [False] * 3
    assert [v[-1] for v in ours[12:15]] == [
        ("NotMonic", "det(-T) is not monic in the last variable")] * 3
    # the Euler row fails: on n = 2 its identities, on LT8 and LT19 its
    # long division, which only a nonzero trace defect runs
    assert ours[15]["identities_failed"] == ["euler_row", "v1_h", "vi_ratio_2"]
    assert ours[16:] == [("RowNotLogarithmic",
                          "row 2 is not a logarithmic vector field")] * 2


def test_t0_must_be_free_of_tn():
    # C = (2 t1) over the weight (1): T = -E C = -2 t1 and T + t1 I = -t1
    # keeps t_n, where C = (t1) gives T0 = 0
    from flatiso.ring import Ring
    ring = Ring(["1"])
    t1 = ring.var(0)
    assert flatcore.SaitoMatrices(ring=ring, C=[[t1]]).T0 == [[ring.zero()]]
    with pytest.raises(InputError, match="T \\+ t_n I is not free of t_n"):
        flatcore.SaitoMatrices(ring=ring, C=[[t1 * 2]]).T0


def test_component_count_must_match_the_variables(klein):
    with pytest.raises(SchemaError, match="2 components for 3 variables"):
        PotentialVF(ring=klein.ring, g=klein.g[:2])


def test_h_must_be_homogeneous():
    # C = diag(t2, t2 + t1) over the weights (1/2, 1): h = t2^2 + t1 t2 / 2
    # is monic of degree 2 in t2, and t1 t2 has weight 3/2, not 2
    from flatiso.ring import Ring
    ring = Ring(["1/2", "1"])
    t1, t2 = ring.gens()
    m = flatcore.SaitoMatrices(ring=ring, C=[[t2, ring.zero()],
                                             [ring.zero(), t2 + t1]])
    with pytest.raises(NotMonic, match="not weighted homogeneous of weight 2"):
        m.h


def test_rescaling_covariance(klein):
    # c_j g_j(c1^-1 t1, ..., t_n) is again a solution, for random rational c
    ring = klein.ring
    rng = random.Random(5)
    for _ in range(3):
        c = [F(rng.randrange(1, 6), rng.randrange(1, 4)) for _ in range(2)] + [F(1)]
        g2 = []
        for j, gj in enumerate(klein.g):
            e = gj
            out = ring.zero()
            for mono, coeff in e.num.items():
                scale = F(1)
                for i in range(2):
                    scale *= (F(1) / c[i]) ** mono[i + 1]
                out = out + ring.from_raw({mono: coeff * scale})
            g2.append(out * c[j])
        pvf2 = PotentialVF(ring=ring, g=g2, name="rescaled")
        assert check_extended_wdvv(pvf2).is_solution


# ---------------------------------------------------------------------------
# prepotential
# ---------------------------------------------------------------------------

def test_frobenius_h3_exact(h3):
    pre = frobenius_check(h3)
    assert pre is not None
    stored = exprio.parse_expr(h3.meta["prepotential"], h3.ring)
    assert (pre.F - stored).is_zero()
    assert pre.u == [F(1)] * 3
    assert pre.r == F(-3, 5)
    # EF = (1 - 2r) F
    assert pre.F.euler() == pre.F * (1 - 2 * pre.r)


def test_frobenius_klein_absent(klein):
    # 2/7 + 1 != 2 * 3/7: the weight pairing fails
    assert frobenius_check(klein) is None


def test_frobenius_n2_inconsistent(trivial_n2):
    # pairing holds trivially for n = 2 but no rescaling symmetrizes C
    with pytest.raises(NoRescalingFound):
        frobenius_check(trivial_n2)


def test_frobenius_nontrivial_rescaling(h3):
    # rescale the icosahedral field by c = (2, 3, 1): C stops being
    # persymmetric, and the search must recover pair products
    # u = (1, 2/9, 1) (normalized so u_3 = 1); F is exact although the
    # per-coordinate split would need sqrt(2)/3, which is not rational
    ring = h3.ring
    c = [F(2), F(3), F(1)]
    g2 = []
    for j, gj in enumerate(h3.g):
        out = ring.zero()
        for mono, coeff in gj.num.items():
            scale = F(1)
            for i in range(2):
                scale *= (F(1) / c[i]) ** mono[i + 1]
            out = out + ring.from_raw({mono: coeff * scale})
        g2.append(out * c[j])
    pvf2 = PotentialVF(ring=ring, g=g2, name="H3-rescaled")
    assert check_extended_wdvv(pvf2).is_solution
    pre = frobenius_check(pvf2)
    assert pre is not None
    assert pre.u == [F(1), F(2, 9), F(1)]
    for i in range(3):
        assert (pre.F.partial(i) - g2[2 - i] * pre.u[i]).is_zero()
    assert pre.F.euler() == pre.F * (1 - 2 * pre.r)


def _with_g(pvf, j, gj):
    g = list(pvf.g)
    g[j] = gj
    return PotentialVF(ring=pvf.ring, g=g)


def test_frobenius_needs_the_unit_row():
    # g = (t1^3, t2^2/2) over the weights (1/2, 1) has B^(2) = diag(0, 1):
    # C[1][1] = 3 t1^2 is no constant multiple of C[2][2] = t2
    from flatiso.ring import Ring
    ring = Ring(["1/2", "1"])
    t1, t2 = ring.gens()
    pvf = PotentialVF(ring=ring, g=[t1 ** 3, t2 ** 2 / 2])
    assert not check_extended_wdvv(pvf).unit_ok
    with pytest.raises(NoRescalingFound, match="C\\[1\\]\\[1\\]"):
        frobenius_check(pvf)


def test_frobenius_refuses_asymmetric_pair_products(h3):
    # 2 g_1 doubles column 1 of C, so u = (2, 2, 1), with u_1 != u_3
    with pytest.raises(NoRescalingFound, match="not symmetric"):
        frobenius_check(_with_g(h3, 0, h3.g[0] * 2))


def test_frobenius_refuses_a_form_that_is_not_closed(h3):
    # t1^8 has weight 8/5 = 1 + w2 and leaves the unit row and column 1 of
    # C alone, so u = (1, 1, 1), but d(g_2)/dt1 gains 8 t1^7 and the form
    # u_i g_{4-i} dt_i is no longer closed
    pvf = _with_g(h3, 1, h3.g[1] + h3.ring.var(0) ** 8)
    assert check_extended_wdvv(pvf).unit_ok
    with pytest.raises(NoRescalingFound, match="does not match"):
        frobenius_check(pvf)


def test_frobenius_negative_middle_pair_product():
    # A3 with t2 -> i t2: g = (t1 t3 - t2^2/2, t2 t3 + t1^2 t2/2,
    # t3^2/2 - t1 t2^2/2 + t1^4/12) over the weights (1/2, 3/4, 1) is a
    # flat structure with u = (1, -1, 1), whose split would need
    # c_2 = sqrt(-1)
    from flatiso.ring import Ring
    ring = Ring(["1/2", "3/4", "1"])
    t1, t2, t3 = ring.gens()
    g = [t1 * t3 - t2 ** 2 / 2, t2 * t3 + t1 ** 2 * t2 / 2,
         t3 ** 2 / 2 - t1 * t2 ** 2 / 2 + t1 ** 4 / 12]
    pvf = PotentialVF(ring=ring, g=g)
    assert check_extended_wdvv(pvf).is_solution
    pre = frobenius_check(pvf)
    assert pre.u == [F(1), F(-1), F(1)]
    assert pre.F == (t1 * t3 ** 2 - t2 ** 2 * t3) / 2 - t1 ** 2 * t2 ** 2 / 4 + t1 ** 5 / 60


def _random_matrix(ring, n, seed):
    """n x n over a plain ring, up to 3 random terms an entry; the first row
    has a zero entry from n = 3 on, whose cofactor mat_det skips."""
    rng = random.Random(seed)
    M = [[ring.from_raw({(0,) + tuple(rng.randint(0, 2) for _ in range(ring.nvars)):
                         F(rng.randint(-9, 9), rng.randint(1, 6))
                         for _ in range(rng.randint(1, 3))})
          for _ in range(n)] for _ in range(n)]
    if n >= 3:
        M[0][1] = ring.zero()
    return M


@pytest.mark.parametrize("size", [2, 3, 4, "LT19"])
def test_mat_det_oracle(klein, size):
    # the fused cofactor expansion agrees with the Leibniz formula formed by
    # chained RingElem arithmetic: generated matrices over LT8's plain ring
    # and LT19's -T on its lazy ring
    if size == "LT19":
        M = build_saito_matrices(catalog.catalog_get("LT19").pvf).minus_T
    else:
        M = _random_matrix(klein.ring, size, seed=size)
    n = len(M)
    ring = M[0][0].ring
    acc = ring.zero()
    for p in itertools.permutations(range(n)):
        sgn = 1
        for i in range(n):
            for j in range(i + 1, n):
                if p[i] > p[j]:
                    sgn = -sgn
        term = ring.one()
        for i in range(n):
            term = term * M[i][p[i]]
        acc = acc + term * sgn
    assert not acc.is_zero()
    assert acc == mat_det(M)


@pytest.mark.parametrize("eid", ["LT8", "LT19"])
def test_h_adjugate_and_traces_are_fused_sums(monkeypatch, eid):
    # Ring.fused_sum is the one route for a sum of products: forming h and
    # the traces, and testing the adj(T) entries of every PVI entry choice on
    # T0 (p6._linear_entry), multiplies no two elements by RingElem.__mul__
    from flatiso import p6
    m = build_saito_matrices(catalog.catalog_get(eid).pvf)
    mul, products = RingElem.__mul__, []

    def counting_mul(self, other):
        if isinstance(other, RingElem):
            products.append((self, other))
        return mul(self, other)

    monkeypatch.setattr(RingElem, "__mul__", counting_mul)
    for name in ("h", "traces"):
        getattr(m, name)
    for choice in itertools.permutations((1, 2, 3), 2):
        p6._linear_entry(m, (1, 2, 3), choice)
    assert products == []
