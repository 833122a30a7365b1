"""Acceptance criteria, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Tolerances are pinned here, not configurable:

    symbolic identities        exact (zero in the ring)
    eigen/residue identities   1e-10 .. 1e-12 as stated
    PVI / Schlesinger          1e-6
    trace constancy            1e-8
    middle-convolution         1e-8 recovery, 1e-6 invariance
"""

import random
import time
from fractions import Fraction as F

import numpy as np
import pytest

from flatiso import catalog, exprio, flatcore, isomono, logvf, midconv, p6
from flatiso.numeric import EvalStack
from flatiso.ring import Ring

ALL_IDS = catalog.catalog_list()


def report(criterion, ok, detail=""):
    line = f"{criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def built():
    out = {}
    for eid in ALL_IDS:
        e = catalog.catalog_get(eid)
        out[eid] = (e, flatcore.build_saito_matrices(e.pvf))
    return out


# ---------------------------------------------------------------------------
# A1: exact extended-WDVV verification for the whole corpus, < 60 s
# ---------------------------------------------------------------------------

def test_a1_exact_wdvv_catalog():
    t0 = time.time()
    for eid in ALL_IDS:
        pvf = catalog.catalog_get(eid).pvf
        rep = flatcore.check_extended_wdvv(pvf)
        assert rep.unit_ok, f"{eid}: unit condition"
        assert rep.homogeneity_ok, f"{eid}: homogeneity"
        for pq, defect in rep.commutators.items():
            assert flatcore.mat_is_zero(defect), f"{eid}: commutator {pq}"
    elapsed = time.time() - t0
    report("A1 exact extended-WDVV, all catalog entries",
           elapsed < 60.0, f"{elapsed:.1f}s (< 60s)")


# ---------------------------------------------------------------------------
# A2: Saito / logvf identities per entry
# ---------------------------------------------------------------------------

def test_a2_saito_logvf_identities(built):
    for eid, (e, m) in built.items():
        w = m.weights
        t = m.ring.gens()
        n = m.n
        for j in range(n):
            assert (m.T[n - 1][j] + t[j] * w[j]).is_zero(), f"{eid}: T_nj"
        h = m.h                       # raises unless monic of degree n
        assert h.is_homogeneous(n), f"{eid}: weight of h"
        assert all(v.is_zero() for v in m.trace_defects), f"{eid}: V_k h"
        c = logvf.saito_criterion(flatcore.mat_scale(m.T, F(-1)), h)
        assert c == 1, f"{eid}: Saito criterion c = {c}"
        # the logvf verb's block: every identity, the trace identity included
        assert catalog.logvf_block(m)["pass"], f"{eid}: logvf block"
    report("A2 Saito/logvf identities, all catalog entries", True)


# ---------------------------------------------------------------------------
# A3: prepotential reconstruction for the icosahedral entry
# ---------------------------------------------------------------------------

def test_a3_prepotential_reconstruction():
    pvf = catalog.catalog_get("H3").pvf
    pre = flatcore.frobenius_check(pvf)
    assert pre is not None
    expected = exprio.parse_expr(pvf.meta["prepotential"], pvf.ring)
    ok = (pre.F - expected).is_zero() and pre.F.num == expected.num
    report("A3 prepotential reconstruction (H3, term for term)", ok)


# ---------------------------------------------------------------------------
# A4: PVI extraction along the default paths
# ---------------------------------------------------------------------------

def test_a4_pvi_extraction(built):
    worst = {}
    for eid, (e, m) in built.items():
        t0 = time.time()
        lam = p6.default_lambda(e.pvf.ring.weights)
        samples = p6.extract_p6_solution(m, lam, e.p6_entry,
                                         e.default_path.points,
                                         z_seed=e.z_seed)
        assert len(samples.y) >= 20, f"{eid}: needs >= 20 samples"
        params = p6.p6_parameters(m, e.default_path.points[0], lam=lam,
                                  sampler=p6.StructureSampler(m, z_seed=e.z_seed),
                                  entry_choice=e.p6_entry)
        residual = p6.p6_residual(samples, params)
        snaps = isomono.snapshots_along(m, e.default_path.points, lam,
                                        z_seed=e.z_seed)
        spread = float(np.abs(snaps.traces - snaps.traces[0]).max())
        elapsed = time.time() - t0
        assert residual < 1e-6, f"{eid}: PVI residual {residual}"
        assert spread < 1e-8, f"{eid}: trace spread {spread}"
        assert elapsed < 30.0, f"{eid}: {elapsed:.1f}s"
        worst[eid] = residual
    top = max(worst.values())
    report("A4 PVI extraction, all entries, default paths", True,
           f"worst residual {top:.2e} < 1e-6")


# ---------------------------------------------------------------------------
# A5: Schlesinger residual along the default paths
# ---------------------------------------------------------------------------

def test_a5_schlesinger(built):
    worst = 0.0
    for eid, (e, m) in built.items():
        lam = p6.default_lambda(e.pvf.ring.weights)
        snaps = isomono.snapshots_along(m, e.default_path.points, lam,
                                        z_seed=e.z_seed)
        res = isomono.schlesinger_residual(snaps)
        assert res < 1e-6, f"{eid}: Schlesinger residual {res}"
        worst = max(worst, res)
    report("A5 Schlesinger residual, all entries", True,
           f"worst {worst:.2e} < 1e-6")


# ---------------------------------------------------------------------------
# A6: Jimbo-Miwa round trip
# ---------------------------------------------------------------------------

def test_a6_jm_roundtrip():
    rng = np.random.default_rng(20240901)
    th = tuple(rng.normal(0, 0.35, 3) + 1j * rng.normal(0, 0.1, 3))
    k2 = rng.normal(0, 0.35) + 1j * rng.normal(0, 0.1)
    k1 = -(k2 + sum(th))
    init = (2.1 + 0.4j, 0.3 + 0.1j, 1.0)
    ts, ys, zs, ks = isomono.integrate_p6_hamiltonian(th, (k1, k2), init,
                                                      2.0, 2.4, steps=400)
    params = p6.P6Params.from_thetas(th[0], th[1], th[2], k1 - k2)
    h = ts[1] - ts[0]
    pvi = 0.0
    for k in range(2, len(ts) - 2):
        y5 = ys[k - 2:k + 3]
        dy = (-y5[4] + 8 * y5[3] - 8 * y5[1] + y5[0]) / (12 * h)
        d2y = (-y5[4] + 16 * y5[3] - 30 * y5[2] + 16 * y5[1] - y5[0]) / (12 * h * h)
        pvi = max(pvi, abs(d2y - p6.pvi_rhs(ts[k], ys[k], dy, params)))
    assert pvi < 1e-6, f"PVI residual {pvi}"
    poles, residues = isomono.jm_residues(ts, ys, zs, ks, th, (k1, k2))
    # every step: tr A_i = theta_i, and A_inf = -(A_0 + A_1 + A_t) is
    # diag(kappa_1, kappa_2)
    traces = np.trace(residues, axis1=2, axis2=3)
    assert np.abs(traces - np.array(th)).max() < 1e-12
    Ainf = -residues.sum(axis=1)
    assert np.abs(Ainf - np.diag([k1, k2])).max() < 1e-12
    schles = isomono.stacked_schlesinger_residual(poles, residues, svals=ts)
    assert schles < 1e-6, f"2x2 Schlesinger residual {schles}"
    report("A6 Jimbo-Miwa round trip", True,
           f"pvi {pvi:.2e}, schlesinger {schles:.2e}, "
           "traces/diagonal at 1e-12 on every step")


# ---------------------------------------------------------------------------
# A7: middle-convolution round trip
# ---------------------------------------------------------------------------

def test_a7_midconv_roundtrip(built):
    worst_rec, worst_inv = 0.0, 0.0
    for eid, (e, m) in built.items():
        lam_w = list(e.pvf.ring.weights)
        mids = [len(e.default_path.points) // 4,
                len(e.default_path.points) // 2,
                3 * len(e.default_path.points) // 4]
        for pos in mids:
            pt = e.default_path.points[pos]
            snap, sys1, family = midconv.rank_one_from_structure(
                m, pt, lam_w, z_seed=e.z_seed)
            out = midconv.middle_convolution(sys1, -lam_w[-1])
            ginf = float(np.abs(np.sort_complex(out.Gamma_inf) -
                                np.sort_complex(np.array(lam_w, dtype=complex))).max())
            tr = float(np.abs(np.sort_complex(out.traces()) -
                              np.sort_complex(snap.traces)).max())
            assert ginf < 1e-8, f"{eid}: Gamma_inf error {ginf}"
            assert tr < 1e-8, f"{eid}: trace multiset error {tr}"
            for G in out.residues:
                s = np.linalg.svd(G, compute_uv=False)
                assert s[1] < 1e-8 * max(1.0, s[0]), f"{eid}: output rank"
                assert s[0] > 1e-10, f"{eid}: output residue vanishes"
            inv = midconv.invariant_subspace_check(sys1, -lam_w[-1],
                                                   family=family)
            assert inv.dim_K == 3, f"{eid}: K dim"
            assert inv.max_defect < 1e-6, f"{eid}: invariance {inv.max_defect}"
            worst_rec = max(worst_rec, ginf, tr)
            worst_inv = max(worst_inv, inv.max_defect)
    report("A7 middle-convolution round trip, 3 points per entry", True,
           f"recovery {worst_rec:.2e} < 1e-8, invariance {worst_inv:.2e} < 1e-6")


# ---------------------------------------------------------------------------
# A8: negative controls
# ---------------------------------------------------------------------------

def test_a8_negative_controls(built):
    e, m = built["LT8"]
    t1 = e.pvf.ring.var(0)
    g = list(e.pvf.g)
    g[2] = g[2] + t1 ** 7
    bad = flatcore.PotentialVF(ring=e.pvf.ring, g=g, name="LT8-perturbed")
    rep = flatcore.check_extended_wdvv(bad)
    assert rep.homogeneity_ok            # t1^7 has weight 2 = 1 + w3
    assert not rep.commutators_ok
    assert rep.failing_commutators() == [(1, 2)]

    lam = p6.default_lambda(e.pvf.ring.weights)
    snaps = isomono.snapshots_along(m, e.default_path.points, lam)
    frozen = snaps.residues.copy()
    frozen[:, 0] = frozen[0, 0]
    res = isomono.stacked_schlesinger_residual(
        snaps.z, frozen, svals=p6.path_parameter(snaps.values))
    assert res > 1e-3, f"frozen family residual only {res}"

    # a zero residue tangent leaves K fixed while the poles move
    pt = e.default_path.points[len(e.default_path.points) // 2]
    lam_w = list(e.pvf.ring.weights)
    _, sys1, (z_grad, dres) = midconv.rank_one_from_structure(
        m, pt, lam_w, z_seed=e.z_seed)
    inv = midconv.invariant_subspace_check(
        sys1, -lam_w[-1], family=(z_grad, np.zeros_like(dres)))
    assert inv.max_defect > 1e-3, f"zero tangent defect only {inv.max_defect}"
    report("A8 negative controls", True,
           f"perturbed commutator nonzero; frozen residual {res:.2e} > 1e-3; "
           f"zero-tangent invariance defect {inv.max_defect:.2e} > 1e-3")


# ---------------------------------------------------------------------------
# A9: randomized ring/parser properties, 1000 cases each, fixed seed
# ---------------------------------------------------------------------------

def _random_poly(ring, rng, nterms=3, maxdeg=3):
    out = ring.zero()
    for _ in range(rng.randrange(1, nterms + 1)):
        term = ring.const(F(rng.randrange(-9, 10) or 1, rng.randrange(1, 7)))
        for i in range(ring.nvars):
            term = term * ring.var(i) ** rng.randrange(0, maxdeg + 1)
        out = out + term
    return out


def test_a9_randomized_properties():
    ring = Ring(["2/7", "3/7", "1"])
    rng = random.Random(0xC0FFEE)
    for _ in range(1000):
        a, b = _random_poly(ring, rng), _random_poly(ring, rng)
        i = rng.randrange(3)
        assert (a * b).partial(i) == a.partial(i) * b + a * b.partial(i)
    rng = random.Random(0xC0FFEE + 1)
    for _ in range(1000):
        a = _random_poly(ring, rng)
        i, j = rng.randrange(3), rng.randrange(3)
        assert a.partial(i).partial(j) == a.partial(j).partial(i)
    rng = random.Random(0xC0FFEE + 2)
    for _ in range(1000):
        a = _random_poly(ring, rng)
        text = exprio.format_elem(a)
        back = exprio.parse_expr(text, ring)
        assert back.num == a.num and back.zden == a.zden and back.dden == a.dden
    rng = random.Random(0xC0FFEE + 3)
    pts = [(0.7, -0.4, 1.1), (0.2, 0.9, -0.8), (1.3, 0.5, 0.6)]
    for k in range(1000):
        a, b = _random_poly(ring, rng), _random_poly(ring, rng)
        row = [(0j,) + pts[k % 3]]
        va, vb = EvalStack(a).eval_batch(row)[0], EvalStack(b).eval_batch(row)[0]
        scale = max(1.0, abs(va)) * max(1.0, abs(vb))
        assert abs(EvalStack(a + b).eval_batch(row)[0] - (va + vb)) < 1e-12 * scale
        assert abs(EvalStack(a * b).eval_batch(row)[0] - va * vb) < 1e-12 * scale
    report("A9 randomized ring/parser properties", True,
           "4 x 1000 cases, fixed seeds")
