import json

import numpy as np
import pytest

from flatiso import catalog, cli, isomono as iso, midconv as mc, p6
from flatiso.errors import ConditionDViolation, ResonantLambda
from flatiso.flatcore import build_saito_matrices
from flatiso.numeric import EvalStack


def klein_rank_one(point=(1.0, 0.5)):
    e = catalog.catalog_get("LT8")
    m = build_saito_matrices(e.pvf)
    lam = list(e.pvf.ring.weights)
    return mc.rank_one_from_structure(m, point, lam, z_seed=e.z_seed)


def test_truncation_shapes_and_conditions():
    snap, sys1, family = klein_rank_one()
    assert sys1.n == 3
    assert all(G.shape == (2, 2) for G in sys1.residues)
    # (D4): residues sum to -Gamma_inf = -diag(w1 - 1, w2 - 1)
    total = sum(sys1.residues) + np.diag(sys1.Gamma_inf)
    assert np.abs(total).max() < 1e-12
    w = [float(x) for x in catalog.catalog_get("LT8").pvf.ring.weights]
    assert np.abs(sys1.Gamma_inf - np.array([w[0] - 1, w[1] - 1])).max() < 1e-12
    for G in sys1.residues:
        s = np.linalg.svd(G, compute_uv=False)
        assert s[1] < 1e-9 * max(1.0, s[0])


def test_truncation_rejects_rank_one_input():
    snap = iso.OkuboNumeric(Binf=np.array([0.5 + 0j]), values=None,
                            z=np.array([0.3 + 0j]), T0=np.array([[0.3 + 0j]]),
                            E=np.eye(1)[None],
                            residues=np.array([[[-0.5 + 0j]]]),
                            traces=np.array([-0.5 + 0j]))
    with pytest.raises(ConditionDViolation):
        mc.truncate_okubo(snap, z_grad=np.zeros((1, 1)))


def test_trace_near_one_violates_d3_when_built():
    # the bound is isomono.TRACE_GUARD, the one _check_residues applies to
    # the same condition; the system is checked once, when it is built
    lam = np.array([0.7 + 0j])
    a = 1 + 5e-7
    resid = [np.array([[a]]), np.array([[-0.7 - a]])]
    with pytest.raises(ConditionDViolation) as hit:
        mc.RankOneSystem(n=2, residues=resid, Gamma_inf=lam,
                         z=np.array([0.0 + 0j, 1.0 + 0j]),
                         z_grad=np.zeros((2, 0)))
    assert hit.value.condition == "D3"
    assert "trace of residue 1 is near +-1" in str(hit.value)


@pytest.mark.parametrize("lam, second, detail", [
    ([0.7, 0.0], -0.7, "Gamma_inf has a zero eigenvalue"),
    ([0.7, 0.3], -0.7 + 1e-6, "residues do not sum to -Gamma_inf"),
], ids=["zero-gamma", "residue-sum"])
def test_condition_d4_when_built(lam, second, detail):
    # a zero entry of Gamma_inf, or residues that miss -Gamma_inf by more
    # than TOLERANCES["residue_identities"], are D4, tested before the SVD
    lam = np.array(lam, dtype=complex)
    resid = [np.diag([second, 0]), np.diag([0, -lam[1]])]
    with pytest.raises(ConditionDViolation) as hit:
        mc.RankOneSystem(n=2, residues=resid, Gamma_inf=lam,
                         z=np.array([0.0 + 0j, 1.0 + 0j]),
                         z_grad=np.zeros((2, 0)))
    assert hit.value.condition == "D4"
    assert str(hit.value) == f"condition D4 violated: {detail}"


def test_middle_convolution_roundtrip():
    snap, sys1, family = klein_rank_one()
    lam_w = [complex(x) for x in catalog.catalog_get("LT8").pvf.ring.weights]
    out = mc.middle_convolution(sys1, -lam_w[2])
    # Gamma_inf = diag(w1, w2, 1) exactly by construction
    assert np.abs(np.sort_complex(out.Gamma_inf)
                  - np.sort_complex(np.array(lam_w))).max() < 1e-12
    # the residue-trace multiset matches the original snapshot
    assert np.abs(np.sort_complex(out.traces())
                  - np.sort_complex(snap.traces)).max() < 1e-8
    for G in out.residues:
        s = np.linalg.svd(G, compute_uv=False)
        assert s[1] < 1e-8 * max(1.0, s[0])
    total = sum(out.residues) + np.diag(out.Gamma_inf)
    assert np.abs(total).max() < 1e-10
    assert out.pivot_column >= 1


def test_resonant_lambda_rejected():
    snap, sys1, family = klein_rank_one()
    with pytest.raises(ResonantLambda):
        mc.middle_convolution(sys1, sys1.Gamma_inf[0])
    with pytest.raises(ResonantLambda):
        mc.middle_convolution(sys1, 0.0)


def test_invariance_check_rejects_a_resonant_lambda():
    # at lam on the spectrum ker M = {(u, u, u) : (Gamma_inf - lam) u = 0}
    # is not {0}; the check refuses such a lam, as middle_convolution does
    snap, sys1, family = klein_rank_one()
    with pytest.raises(ResonantLambda):
        mc.invariant_subspace_check(sys1, sys1.Gamma_inf[0], family)


def test_round_trip_takes_one_svd(monkeypatch):
    # the system's SVD, taken when truncate_okubo builds it, serves the
    # rank test, the factors, the kernels and the pseudo-inverses
    e = catalog.catalog_get("LT8")
    m = build_saito_matrices(e.pvf)
    lam = list(e.pvf.ring.weights)
    pts = e.default_path.points
    snap, sys1, family = mc.rank_one_from_structure(m, pts[len(pts) // 2],
                                                    lam, z_seed=e.z_seed)
    calls = {"svd": 0, "pinv": 0}

    def counted(name):
        real = getattr(np.linalg, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, call)

    counted("svd")
    counted("pinv")
    sys2 = mc.truncate_okubo(snap, z_grad=sys1.z_grad)
    mc.middle_convolution(sys2, -lam[-1])
    mc.invariant_subspace_check(sys2, -lam[-1], family=family)
    assert calls == {"svd": 1, "pinv": 0}


@pytest.mark.parametrize("eid", catalog.catalog_list())
def test_lift_does_not_follow_rounding(eid):
    # entries of equal modulus (|col| = (0.47, 1, 1) on LT8) cannot swap the
    # gauge pins: a few ulps on the residues move the lift by rounding only
    e = catalog.catalog_get(eid)
    m = build_saito_matrices(e.pvf)
    lam = list(m.weights)
    pts = e.default_path.points
    _, sys1, _ = mc.rank_one_from_structure(m, pts[len(pts) // 2], lam,
                                            z_seed=e.z_seed)
    base = mc.middle_convolution(sys1, -lam[-1]).residues
    for k in range(1, 9):
        scaled = mc.RankOneSystem(
            n=sys1.n, residues=sys1.residues * (1 + k * 2.0 ** -52),
            Gamma_inf=sys1.Gamma_inf, z=sys1.z, z_grad=sys1.z_grad)
        lifted = mc.middle_convolution(scaled, -lam[-1]).residues
        assert np.abs(lifted - base).max() < 1e-12, k


def test_invariant_subspaces():
    snap, sys1, family = klein_rank_one()
    rep = mc.invariant_subspace_check(sys1, -1.0, family=family)
    # dim K = n(n-2) = 3
    assert rep.dim_K == 3
    assert rep.max_defect < 1e-6


@pytest.mark.parametrize("eid", ["H3", "LT8", "LT19"])
def test_tangent_matches_oracles(eid):
    # root gradients against implicit differentiation of h, and the residue
    # tangent against central differences of re-tracked residues
    e = catalog.catalog_get(eid)
    m = build_saito_matrices(e.pvf)
    n = m.n
    lam = list(e.pvf.ring.weights)
    pts = e.default_path.points
    tp = pts[len(pts) // 2]
    snap, sys1, family = mc.rank_one_from_structure(m, tp, lam,
                                                    z_seed=e.z_seed)
    assert family.shape == (n, n, n - 1, n - 1)
    at_roots = [(snap.values[0],) + tuple(tp) + (zj,) for zj in snap.z]
    dh = EvalStack(m.dh).eval_batch(at_roots)
    for k in range(n - 1):
        want = -dh[k] / dh[n - 1]
        assert (np.abs(sys1.z_grad[:, k] - want).max()
                <= 1e-12 * np.abs(want).max())
    assert np.all(sys1.z_grad[:, n - 1] == -1)
    assert not family[n - 1].any()

    h = 1e-6
    shifted = [x - lam[-1] for x in lam]
    for k in range(n - 1):
        step = h * np.eye(n - 1)[k]
        path = [tuple(np.add(tp, -step)), tp, tuple(np.add(tp, step))]
        minus, _, plus = iso.snapshots_along(m, path, shifted,
                                             z_seed=e.z_seed)
        fd = ((plus.residues - minus.residues) / (2 * h))[:, :n - 1, :n - 1]
        assert np.abs(family[k] - fd).max() <= 1e-6 * np.abs(family[k]).max()


def test_invariance_at_multiple_points():
    e = catalog.catalog_get("LT8")
    m = build_saito_matrices(e.pvf)
    lam = list(e.pvf.ring.weights)
    for pt in ((1.0, 0.42), (1.0, 0.5), (1.0, 0.58)):
        snap, sys1, family = mc.rank_one_from_structure(m, pt, lam)
        rep = mc.invariant_subspace_check(sys1, -1.0, family=family)
        assert rep.max_defect < 1e-6


def rank_two_ratio(R):
    """Largest s_1 / max(1, s_0) over a stack of residues."""
    s = np.linalg.svd(R, compute_uv=False)
    return (s[..., 1] / np.maximum(1.0, s[..., 0])).max()


def test_residues_are_outer_products():
    # the Okubo residues -E_i Binf are rank one up to rounding on the
    # default paths (measured <= 3.3e-16), and so are their truncated
    # blocks and the lifted residues -P[:, j] P^{-1}[j, :] Gamma_inf
    for eid in catalog.catalog_list():
        e = catalog.catalog_get(eid)
        m = build_saito_matrices(e.pvf)
        lam = list(m.weights)
        pts = e.default_path.points
        snaps = iso.snapshots_along(m, pts, p6.default_lambda(m.weights),
                                    z_seed=e.z_seed)
        assert rank_two_ratio(snaps.residues) <= 1e-14, eid
        if eid not in ("H3", "LT8", "LT19"):
            continue
        _, sys1, _ = mc.rank_one_from_structure(m, pts[len(pts) // 2], lam,
                                                z_seed=e.z_seed)
        assert rank_two_ratio(sys1.residues) <= 1e-14
        out = mc.middle_convolution(sys1, -lam[-1])
        assert rank_two_ratio(out.residues) <= 1e-14


def count_inverses(monkeypatch):
    """The number of np.linalg.inv calls, kept in a one-entry list."""
    calls = [0]
    real = np.linalg.inv

    def counting(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "inv", counting)
    return calls


def test_no_matrix_is_inverted(monkeypatch):
    # the residues come from the projectors of T0 and the lift from the
    # inverse pair it has checked: a path's snapshots and a round trip
    # invert no matrix (4 and 1 calls through eigenvector frames)
    e = catalog.catalog_get("LT8")
    m = build_saito_matrices(e.pvf)
    lam = list(e.pvf.ring.weights)
    pts = e.default_path.points
    calls = count_inverses(monkeypatch)
    iso.snapshots_along(m, pts, lam, z_seed=e.z_seed)
    assert calls == [0]
    snap, sys1, family = mc.rank_one_from_structure(m, pts[len(pts) // 2],
                                                    lam, z_seed=e.z_seed)
    mc.middle_convolution(sys1, -lam[-1])
    mc.invariant_subspace_check(sys1, -lam[-1], family=family)
    assert calls == [0]


def test_n2_kernel_dimension():
    # two singular points, 1x1 residues: K has dimension n(n-2) = 0
    lam = np.array([0.7 + 0j])
    resid = [np.array([[-0.3 + 0j]]), np.array([[-0.4 + 0j]])]
    sys2 = mc.RankOneSystem(n=2, residues=resid, Gamma_inf=lam,
                            z=np.array([0.0 + 0j, 1.0 + 0j]),
                            z_grad=np.zeros((2, 0)))
    K = mc.kernel_stack_basis(sys2)
    assert K.shape[1] == 0


def test_json_bundles():
    snap, sys1, family = klein_rank_one()
    out = mc.middle_convolution(sys1, -1.0)
    # the midconv report's "result", through the CLI's JSON encoder
    blob = json.loads(json.dumps(mc.convolution_to_json(out),
                                 default=cli._json_value))
    assert len(blob["residues"]) == 3 and len(blob["residues"][0]) == 3
    assert blob["residues"][0][0][0] == [out.residues[0][0, 0].real,
                                         out.residues[0][0, 0].imag]
    assert blob["lambda"] == [-1.0, 0.0]
    assert blob["epsilon"] == [1.0, 0.0]
