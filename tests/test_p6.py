import re
from itertools import permutations

import numpy as np
import pytest

from flatiso import catalog, p6
from flatiso.errors import (EntryIdenticallyZero, InsufficientSamples,
                            PoleOnPath, RootCollision, RootNotConverged,
                            TrackingLost)
from flatiso.flatcore import build_saito_matrices, mat_adjugate


def entry_setup(eid):
    e = catalog.catalog_get(eid)
    m = build_saito_matrices(e.pvf)
    return e, m


def test_roots_of_h_vieta_klein():
    e, m = entry_setup("LT8")
    from flatiso.logvf import discriminant
    h = discriminant(m).h
    hc = h.coeffs_in(2)
    pt = (1.0, 1.0)
    roots = p6.StructureSampler(m).frame(pt)[0]
    from flatiso.numeric import EvalStack
    row = [(0j,) + pt + (0.0,)]
    # sum of roots = -coeff of t3^2; product = -constant coefficient (cubic)
    assert abs(sum(roots) + EvalStack(hc[2]).eval_batch(row)[0]) < 1e-12
    prod = roots[0] * roots[1] * roots[2]
    assert abs(prod + EvalStack(hc[0]).eval_batch(row)[0]) < 1e-10


def test_roots_ordering_and_continuation():
    e, m = entry_setup("LT8")
    _, (r1, r2), _ = p6.StructureSampler(m).frames([(1.0, 0.4), (1.0, 0.41)])
    assert list(np.argsort([x.real for x in r1])) == [0, 1, 2]
    assert np.abs(r2 - r1).max() < 0.1


def test_adjugate_entries_linear_in_t3():
    # the off-diagonal entries of h B^(3) have t3-degree <= 1, symbolically
    for eid in ("LT8", "H3", "LT30", "H3p"):
        e, m = entry_setup(eid)
        adj = mat_adjugate(m.T)
        for i in range(3):
            for j in range(3):
                if i != j:
                    assert adj[i][j].degree_in(2) <= 1


def test_entry_column_three_rejected():
    e, m = entry_setup("LT8")
    lam = p6.default_lambda(e.pvf.ring.weights)   # lambda_3 = 0
    with pytest.raises(EntryIdenticallyZero):
        p6.extract_p6_solution(m, lam, (1, 3), e.default_path.points)


def test_extraction_finite_and_regular():
    e, m = entry_setup("LT8")
    lam = p6.default_lambda(e.pvf.ring.weights)
    samples = p6.extract_p6_solution(m, lam, (1, 2), e.default_path.points,
                                     svals=e.path_svals)
    assert samples.s.shape == samples.t.shape == samples.y.shape == (41,)
    assert samples.points == e.default_path.points
    assert np.all(np.isfinite(samples.y))
    assert np.all(np.minimum(np.abs(samples.t), np.abs(samples.t - 1)) > 1e-3)


def test_residual_below_tolerance_and_sensitivity():
    e, m = entry_setup("LT8")
    lam = p6.default_lambda(e.pvf.ring.weights)
    samples = p6.extract_p6_solution(m, lam, (1, 2), e.default_path.points,
                                     svals=e.path_svals)
    params = p6.p6_parameters(m, e.default_path.points[0],
                              sampler=p6.StructureSampler(m))
    res = p6.p6_residual(samples, params)
    assert res < 1e-6
    # perturbing y by 1e-3 must blow the residual past 1e-4
    samples.y = samples.y + 1e-3
    res_bad = p6.p6_residual(samples, params)
    assert res_bad > 1e-4


def test_relabeling_roots_keeps_residual_small():
    # relabeling z_1 <-> z_2 changes the cross-ratios and the theta
    # assignment (theta_0' = r_2 etc.) but not the matrix entry or the
    # Okubo diagonal; the relabeled run must still satisfy PVI
    e, m = entry_setup("LT8")
    lam = p6.default_lambda(e.pvf.ring.weights)
    path = e.default_path.points
    values, roots, P = p6.frames_along(m, path)
    swap = [1, 0, 2]
    track = (values, roots[:, swap], P[:, :, swap])
    samples, _, res = p6.pvi_on_frames(m, lam, (1, 2), track, path,
                                       svals=e.path_svals)
    assert res < 1e-6
    # the relabeled t really is the 0 <-> 1 swapped cross-ratio
    plain = p6.extract_p6_solution(m, lam, (1, 2), e.default_path.points[:5],
                                   svals=e.path_svals[:5])
    t_plain, t_swapped = plain.t[0], samples.t[0]
    assert abs(t_swapped - (1 - t_plain)) < 1e-9


def test_weighted_scaling_invariance():
    # t_i -> c^(w_i d) t_i leaves the cross-ratios invariant (weight-zero data)
    e, m = entry_setup("LT8")
    lam = p6.default_lambda(e.pvf.ring.weights)
    samples = p6.extract_p6_solution(m, lam, (1, 2), e.default_path.points,
                                     svals=e.path_svals)
    c, d = 1.3, 7          # weights k/7: c^(w d) has integer exponents
    w = [float(x) for x in e.pvf.ring.weights]
    scaled_path = [(tp[0] * c ** (w[0] * d), tp[1] * c ** (w[1] * d))
                   for tp in e.default_path.points]
    scaled = p6.extract_p6_solution(m, lam, (1, 2), scaled_path,
                                    svals=e.path_svals)
    assert np.abs(samples.t - scaled.t).max() < 1e-10
    assert np.abs(samples.y - scaled.y).max() < 1e-10


def test_parameters_klein():
    e, m = entry_setup("LT8")
    params = p6.p6_parameters(m, e.default_path.points[0],
                              sampler=p6.StructureSampler(m))
    # theta_inf = w1 - w2 = -1/7
    assert abs(params.thetainf - (2 / 7 - 3 / 7)) < 1e-12
    # trace identity: sum r_i = -sum lambda_i (trace of -Binf under conjugation)
    lam = p6.default_lambda(e.pvf.ring.weights)
    assert abs(sum(params.r) + sum(complex(x) for x in lam)) < 1e-12
    # parameter dictionary consistency
    assert abs(params.alpha - 0.5 * (params.thetainf - 1) ** 2) < 1e-14
    assert abs(params.beta + 0.5 * params.theta0 ** 2) < 1e-14
    assert abs(params.gamma - 0.5 * params.theta1 ** 2) < 1e-14
    assert abs(params.delta - 0.5 * (1 - params.thetat ** 2)) < 1e-14


def test_parameters_constant_along_path():
    e, m = entry_setup("H3pp")
    sampler = p6.StructureSampler(m, z_seed=e.z_seed)
    p1 = p6.p6_parameters(m, e.default_path.points[0], sampler=sampler)
    p2 = p6.p6_parameters(m, e.default_path.points[-1], sampler=sampler)
    assert abs(np.array(p1.r) - np.array(p2.r)).max() < 1e-8


def test_pvi_limit_fixture_y_equals_t():
    # y = t with alpha = beta = gamma = 0, delta = 1/2 solves PVI as a limit:
    # rhs(t + eps) stays bounded and goes to 0 with eps
    params = p6.P6Params.from_thetas(0, 0, 0, 1)
    params.delta = 0.5
    params.alpha = params.beta = params.gamma = 0.0
    t = 2.3
    vals = [abs(p6.pvi_rhs(t, t + eps, 1.0, params))
            for eps in (1e-2, 1e-3, 1e-4)]
    assert vals[0] < 1e-1
    assert vals[2] < vals[0]
    assert vals[2] < 1e-3


def test_pvi_exact_family_sqrt_t():
    # y = sqrt(t) solves PVI whenever alpha + beta = 0, gamma + delta = 1/2
    params = p6.P6Params.from_thetas(0.5, 0.5, 0.5, 1.5)
    assert abs(params.alpha - 1 / 8) < 1e-15 and abs(params.beta + 1 / 8) < 1e-15
    assert abs(params.gamma - 1 / 8) < 1e-15 and abs(params.delta - 3 / 8) < 1e-15
    samples = sqrt_t_samples(np.linspace(2.0, 3.0, 101))
    res = p6.p6_residual(samples, params)
    assert res < 1e-9


def sqrt_t_samples(ts):
    """Samples of y = sqrt(t) with s = t, at complex t."""
    ts = np.asarray(ts, dtype=complex)
    return p6.P6Samples(s=ts.real, points=[(0, 0)] * len(ts), t=ts,
                        y=np.sqrt(ts))


def five_point_reference(vals, k, h):
    """First and second five-point central differences at point k, one
    point at a time."""
    a, b, c, d, e = (vals[k + j] for j in (-2, -1, 0, 1, 2))
    return ((-e + 8 * d - 8 * b + a) / (12 * h),
            (-e + 16 * d - 30 * c + 16 * b - a) / (12 * h * h))


def per_point_derivatives(samples):
    """dy/dt and d2y/dt2 at each interior sample by the chain rule from the
    per-point stencils of y and t along s."""
    s, t, y = (list(a) for a in (samples.s, samples.t, samples.y))
    h = s[1] - s[0]
    dy_dt, d2y_dt2 = [], []
    for k in range(2, len(s) - 2):
        dy, d2y = five_point_reference(y, k, h)
        dt, d2t = five_point_reference(t, k, h)
        dy_dt.append(dy / dt)
        d2y_dt2.append((d2y * dt - dy * d2t) / dt ** 3)
    return np.array(dy_dt), np.array(d2y_dt2)


def test_stacked_derivatives_match_per_point_chain_rule():
    # the sample route (y and t along s, then the chain rule to d/dt) on
    # LT8's default path and on the exact family y = sqrt(t), whose
    # derivatives are also known in closed form
    e, m = entry_setup("LT8")
    lam = p6.default_lambda(e.pvf.ring.weights)
    params = p6.p6_parameters(m, e.default_path.points[0],
                              sampler=p6.StructureSampler(m))
    lt8 = p6.extract_p6_solution(m, lam, (1, 2), e.default_path.points,
                                 svals=e.path_svals)
    family = sqrt_t_samples(np.linspace(2.0, 3.0, 101))
    for samples, pars in ((lt8, params),
                          (family, p6.P6Params.from_thetas(0.5, 0.5, 0.5, 1.5))):
        assert samples.dy_dt is None and samples.residual is None
        assert p6.p6_residual(samples, pars) < 1e-6
        want_d1, want_d2 = per_point_derivatives(samples)
        assert samples.dy_dt.shape == samples.d2y_dt2.shape == (len(samples.s) - 4,)
        assert samples.residual.shape == samples.dy_dt.shape
        for got, want in ((samples.dy_dt, want_d1), (samples.d2y_dt2, want_d2)):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    t = family.t[2:-2]
    assert np.abs(family.dy_dt - 0.5 / np.sqrt(t)).max() < 1e-8
    assert np.abs(family.d2y_dt2 + 0.25 * t ** -1.5).max() < 1e-8


def test_insufficient_samples():
    params = p6.P6Params.from_thetas(0, 0, 0, 1)
    few = sqrt_t_samples(2.0 + np.arange(4))
    with pytest.raises(InsufficientSamples):
        p6.p6_residual(few, params)


def test_csv_and_json_reports():
    e, m = entry_setup("LT8")
    lam = p6.default_lambda(e.pvf.ring.weights)
    samples = p6.extract_p6_solution(m, lam, (1, 2),
                                     e.default_path.points[:7],
                                     svals=e.path_svals[:7])
    csv = p6.samples_to_csv(samples)
    assert csv.splitlines()[0] == "s,t1,t2,t,y,dy,d2y,residual"
    assert len(csv.splitlines()) == 8
    params = p6.p6_parameters(m, e.default_path.points[0],
                              sampler=p6.StructureSampler(m))
    blob = p6.params_to_json(params)
    assert set(blob) >= {"theta", "alpha", "beta", "gamma", "delta", "r"}


def test_entry_survey_reports_all_six():
    e, m = entry_setup("LT8")
    lam = p6.default_lambda(e.pvf.ring.weights)
    track = p6.frames_along(m, e.default_path.points)
    survey = p6.survey_on_frames(m, lam, track, e.default_path.points,
                                 svals=e.path_svals)
    assert set(survey) == {"1,2", "2,1", "1,3", "3,1", "2,3", "3,2"}
    # the lambda_3 = 0 normalization kills column 3
    assert survey["1,3"] == {"error": "EntryIdenticallyZero"}
    assert survey["2,3"] == {"error": "EntryIdenticallyZero"}
    # the default branch satisfies its dictionary tightly; others are
    # reported without any equivalence assertion
    assert survey["1,2"]["residual"] < 1e-6
    assert survey["3,1"]["residual"] < 1e-4


def test_first_point_order_survives_rounding():
    # at the first LT27 point two roots are a conjugate pair whose real parts
    # agree to rounding; ulp-level changes of T0 must not swap their labels
    e, m = entry_setup("LT27")
    T0 = p6.StructureSampler(m, z_seed=e.z_seed).t0_matrix(e.default_path.points[0])
    base, _, _ = p6.ordered_eig(T0[None])
    rng = np.random.default_rng(0)
    for _ in range(20):
        bumped = T0 * (1 + 1e-15 * rng.choice([-1.0, 1.0], size=T0.shape))
        roots, _, _ = p6.ordered_eig(bumped[None])
        assert np.abs(roots - base).max() < 1e-9


def count_calls(monkeypatch, name):
    """The arguments of every call of StructureSampler.<name>, in order."""
    calls = []
    real = getattr(p6.StructureSampler, name)

    def counting(self, *args):
        calls.append(args)
        return real(self, *args)

    monkeypatch.setattr(p6.StructureSampler, name, counting)
    return calls


def test_eigenvalue_swap_is_bisected(monkeypatch):
    # T0 = [[0, t1], [t1, 0]] has roots +-t1; on the step t1: 1 -> -0.2 + i
    # the root 1 lies nearer -t1 than t1 at the far end, so nearest-neighbour
    # matching swaps the pair: the tracker must bisect the step and agree
    # with a fine track of the same segment
    from types import SimpleNamespace
    from flatiso.numeric import EvalStack
    from flatiso.ring import Ring
    ring = Ring(["1", "1"])
    t1, _ = ring.gens()
    m = SimpleNamespace(ring=ring, n=2,
                        T0_stack=EvalStack([[ring.zero(), t1], [t1, ring.zero()]]))
    p0, p1 = (1.0, 0.0), (-0.2 + 1j, 0.0)
    T0 = [[[0, p[0]], [p[0], 0]] for p in (p0, p1)]
    assert p6.ordered_eig(T0)[2] == 1          # the match into p1 is rejected
    w1 = np.linalg.eigvals(T0[1])
    nearest = w1[np.abs(w1 - np.array([[-1.0], [1.0]])).argmin(axis=1)]
    assert np.allclose(nearest, [-0.2 + 1j, 0.2 - 1j])
    bisections = count_calls(monkeypatch, "_bisect")
    _, roots, _ = p6.StructureSampler(m).frames([p0, p1])
    assert bisections
    fine = [(1.0 + s * (p1[0] - 1.0), 0.0) for s in np.linspace(0, 1, 201)]
    _, fine_roots, _ = p6.StructureSampler(m).frames(fine)
    assert np.abs(roots[1] - fine_roots[-1]).max() < 1e-12
    assert np.allclose(roots[1], [0.2 - 1j, -0.2 + 1j])


def count_frames(monkeypatch):
    calls = []
    real = p6.StructureSampler.frames

    def counting(self, path):
        calls.append(len(path))
        return real(self, path)

    monkeypatch.setattr(p6.StructureSampler, "frames", counting)
    return calls


def test_pvi_on_frames_reads_params_off_frame_zero():
    e, m = entry_setup("LT8")
    lam = p6.default_lambda(e.pvf.ring.weights)
    track = p6.frames_along(m, e.default_path.points)
    _, params, residual = p6.pvi_on_frames(m, lam, (1, 2), track,
                                           e.default_path.points,
                                           svals=e.path_svals)
    assert residual < 1e-6
    # the parameters read off frame 0 are those of a fresh sampler at path[0]
    fresh = p6.p6_parameters(m, e.default_path.points[0],
                             sampler=p6.StructureSampler(m), lam=lam)
    assert np.abs(np.array(params.r) - np.array(fresh.r)).max() < 1e-14


def test_entry_survey_matches_pvi_on_frames(monkeypatch):
    e, m = entry_setup("LT8")
    lam = p6.default_lambda(e.pvf.ring.weights)
    calls = count_frames(monkeypatch)
    path = e.default_path.points
    track = p6.frames_along(m, path)
    survey = p6.survey_on_frames(m, lam, track, path, svals=e.path_svals)
    for key, (i, j) in (("1,2", (1, 2)), ("2,1", (2, 1)), ("3,1", (3, 1))):
        _, _, residual = p6.pvi_on_frames(m, lam, (i, j), track, path,
                                          svals=e.path_svals)
        assert survey[key]["residual"] == residual
    assert calls == [len(path)]


def test_pvi_grid_residual_matches_per_point_stencils():
    rng = np.random.default_rng(4)
    ts = np.linspace(2.0, 2.4, 41)
    ys = 2.1 + 0.4j + 0.3 * ts ** 2 + 1e-3 * rng.normal(size=41)
    params = p6.P6Params.from_thetas(0.2, -0.1, 0.3 + 0.1j, 0.7)
    h = ts[1] - ts[0]
    want = 0.0
    for k in range(2, len(ts) - 2):
        dy, d2y = five_point_reference(ys, k, h)
        want = max(want, abs(d2y - p6.pvi_rhs(ts[k], ys[k], dy, params)))
    got = p6.pvi_grid_residual(ts, ys, params)
    assert abs(got - want) <= 1e-14 * want


def test_pvi_grid_residual_guards():
    params = p6.P6Params.from_thetas(0.2, -0.1, 0.3, 0.7)
    ts = np.linspace(2.0, 2.4, 9)
    with pytest.raises(InsufficientSamples):
        p6.pvi_grid_residual(ts[:4], ts[:4] + 1, params)
    bent = ts.copy()
    bent[5] += 1e-3
    with pytest.raises(ValueError, match="uniform"):
        p6.pvi_grid_residual(bent, ts + 1, params)
    on_pole = ts + 1
    on_pole[4] = 1.0                     # y = 1 at an interior point
    with pytest.raises(PoleOnPath, match=re.escape(f"t = {ts[4]}, y = (1+0j)")):
        p6.pvi_grid_residual(ts, on_pole, params)


def test_midconv_block_tracks_once(monkeypatch):
    # the residue tangent comes from the one tracked point, not from
    # re-tracking displaced points
    e, m = entry_setup("LT8")
    calls = count_frames(monkeypatch)
    pts = e.default_path.points
    catalog.midconv_block(m, pts[len(pts) // 2], z_seed=e.z_seed)
    assert calls == [1]


def _path_401(e):
    pts, _, z_seed = catalog.path_from_doc(dict(e.doc["default_path"], points=401))
    return pts, z_seed


def relation_coeffs_by_terms(ring, points):
    """The relation's coefficients in z at t-points by the loop over its
    terms that numeric.rel_coeffs replaced: each term's complex coefficient
    times its t-powers, slot by slot, added into its z-degree column."""
    pts = np.asarray(points, dtype=complex).reshape(-1, ring.nvars)
    out = np.zeros((len(pts), ring.ext.z_degree + 1), dtype=complex)
    for mono, c in ring.ext.relation.items():
        term = np.full(len(pts), complex(c))
        for s, e in enumerate(mono[1:]):
            if e:
                term *= pts[:, s] ** e
        out[:, mono[0]] += term
    return out


@pytest.mark.parametrize("eid", ["H3p", "H3pp", "LT27", "LT14", "LT19"])
def test_relation_coefficients_match_the_term_loop(eid):
    # the compiled z-slices at rows (0, t), along the path and point by
    # point, bit for bit the loop over the relation's terms
    from flatiso.numeric import rel_coeffs
    e, m = entry_setup(eid)
    pts = [p + (0.0,) for p in _path_401(e)[0]]
    want = relation_coeffs_by_terms(m.ring, pts)
    assert rel_coeffs(m.ring, pts).tobytes() == want.tobytes()
    one = np.array([rel_coeffs(m.ring, [p])[0] for p in pts])
    assert one.tobytes() == want.tobytes()


@pytest.mark.parametrize("eid", ["H3p", "H3pp", "LT27", "LT14", "LT19"])
def test_lockstep_matches_point_by_point_continuation(eid):
    # reference: Newton from the previous root at every point, one row at a
    # time, and the roots of T0 at those z by the complex driver
    from flatiso.numeric import newton_roots, rel_coeffs
    e, m = entry_setup(eid)
    pts, z_seed = _path_401(e)
    values, roots, _ = p6.StructureSampler(m, z_seed=z_seed).frames(pts)
    coeffs = rel_coeffs(m.ring, [p + (0.0,) for p in pts])
    ref, z = np.empty(len(pts), dtype=complex), z_seed
    for k, row in enumerate(coeffs):
        ref[k] = z = newton_roots(row[None], z)[0]
    assert np.all(np.abs(values[:, 0] - ref) <= 1e-13 * np.maximum(1, np.abs(ref)))
    ref_values = np.column_stack([ref, np.array(pts), np.zeros(len(pts))])
    want = np.linalg.eigvals(p6._matrix_rows(m.T0_stack, ref_values))
    nearest = np.take_along_axis(
        want, np.abs(want[:, None, :] - roots[:, :, None]).argmin(axis=2), axis=1)
    assert np.all(np.abs(roots - nearest)
                  <= 1e-11 * np.maximum(1, np.abs(nearest)))


def sqrt_sampler(z_seed, T0=None):
    """The tracker on z^2 = t1 with T0 = diag(z, 5), or with T0(ring, z)."""
    from types import SimpleNamespace
    from flatiso.numeric import EvalStack
    from flatiso.ring import Ring
    ring = Ring(["1", "1"], extension={(2, 0, 0): 1, (0, 1, 0): -1},
                z_weight="1/2")
    z = ring.zgen()
    T0 = (T0 or (lambda r, z: [[z, r.zero()], [r.zero(), r.const(5)]]))(ring, z)
    return p6.StructureSampler(
        SimpleNamespace(ring=ring, n=2, T0_stack=EvalStack(T0)), z_seed=z_seed)


def test_seed_with_no_newton_step_is_refused():
    # f'(0) = 0 for z^2 - t1: Newton cannot leave the seed at the first point
    with pytest.raises(RootNotConverged):
        sqrt_sampler(0.0).frames([(1.0, 0.0), (1.1, 0.0)])


def test_lockstep_restarts_where_newton_leaves_the_branch(monkeypatch):
    # z^2 = t1 once round the unit circle: Newton from z = 1 reaches -sqrt(t1)
    # past theta = pi, so the lockstep must restart there, not bisect
    from flatiso.numeric import certified_separation, rel_coeffs
    sampler = sqrt_sampler(1.0)
    ring = sampler.ring
    passes = count_calls(monkeypatch, "_pass")
    bisections = count_calls(monkeypatch, "_bisect")
    path = [(np.exp(1j * th), 0.0) for th in np.linspace(0, 2 * np.pi, 401)]
    z = sampler.frames(path)[0][:, 0]
    assert abs(z[-1] + 1) < 1e-12
    sep = certified_separation(rel_coeffs(ring, path), z)
    assert np.all(np.abs(np.diff(z))
                  < p6.STEP_FRACTION * np.minimum(sep[:-1], sep[1:]))
    assert len(passes) > 1 and bisections == []


def test_z_rejected_step_is_bisected_with_its_roots(monkeypatch):
    # T0 = [[0, z], [z, 0]] on z^2 = t1 has roots +-z.  On the one step
    # t1: 1 -> -1 + 0.1i, z turns by 87 degrees: Newton from z = 1 fails the
    # z rule and the roots' nearest-neighbour match across the step is
    # rejected, so z and the roots are continued together through the
    # bisection, and must agree with a fine track of the same segment
    from flatiso.numeric import certified_separation, newton_roots, rel_coeffs
    swap = lambda r, z: [[r.zero(), z], [z, r.zero()]]    # noqa: E731
    p0, p1 = (1.0, 0.0), (-1 + 0.1j, 0.0)
    coeffs = rel_coeffs(sqrt_sampler(1.0).ring, [p0, p1])
    z = newton_roots(coeffs[1:], 1.0)
    sep = certified_separation(coeffs, np.array([1.0, z[0]]))
    assert abs(z[0] - 1) >= p6.STEP_FRACTION * sep.min()
    fine = [(1.0 + s * (p1[0] - 1.0), 0.0) for s in np.linspace(0, 1, 401)]
    fine_values, fine_roots, _ = sqrt_sampler(1.0, swap).frames(fine)
    T0 = [[[0, zv], [zv, 0]] for zv in (1.0, fine_values[-1, 0])]
    assert p6.ordered_eig(T0)[2] == 1
    bisections = count_calls(monkeypatch, "_bisect")
    values, roots, _ = sqrt_sampler(1.0, swap).frames([p0, p1])
    assert bisections
    assert abs(values[1, 0] - fine_values[-1, 0]) < 1e-12
    assert np.abs(roots[1] - fine_roots[-1]).max() < 1e-12


def test_tracking_lost_past_max_bisections(monkeypatch):
    # with STEP_FRACTION 0 no step passes: the left half of the first step
    # is halved again MAX_BISECTIONS times, and then the track is given up
    monkeypatch.setattr(p6, "STEP_FRACTION", 0.0)
    passes = count_calls(monkeypatch, "_pass")
    with pytest.raises(TrackingLost):
        sqrt_sampler(1.0).frames([(1.0, 0.0), (1.1, 0.0)])
    # the path, its second point, then the second point and the halves
    # towards the first point, one per depth
    assert len(passes) == 2 + p6.MAX_BISECTIONS + 1
    assert passes[-1][1][0][0] - 1.0 == pytest.approx(0.1 / 2 ** p6.MAX_BISECTIONS)


def lapack_in_order(A, roots):
    """np.linalg.eig of the stack A, its columns put in the order of roots
    (the permutation that moves no root far, the first among ties)."""
    w, V = np.linalg.eig(A)
    perms = np.array(list(permutations(range(3))))
    far = np.abs(roots[:, None, :] - w[:, perms]).max(axis=2)
    k = perms[far.argmin(axis=1)]
    return np.take_along_axis(w, k, axis=1), np.take_along_axis(V, k[:, None], 2)


def assert_eig3_matches_lapack(A, lam=(1.0, 0.5, 0.0)):
    """_eig3 against np.linalg.eig: the roots within 1e-12 max(1, |root|)
    and the residues of the frames within 1e-10 of their largest entry."""
    A = np.asarray(A, dtype=complex)
    roots, P = p6._eig3(A, True)
    want, V = lapack_in_order(A, roots)
    assert np.all(np.abs(roots - want) <= 1e-12 * np.maximum(1, np.abs(want)))
    res, ref = p6.residues_from_frame(P, lam), p6.residues_from_frame(V, lam)
    assert np.abs(res - ref).max() <= 1e-10 * max(1.0, np.abs(ref).max())
    # the roots-only call returns the same roots bit for bit
    assert np.array_equal(p6._eig3(A, False)[0], roots)


def count_lapack(monkeypatch):
    """The sizes of the stacks passed to np.linalg.eig, in order."""
    calls = []
    real = np.linalg.eig

    def counting(A):
        calls.append(len(A))
        return real(A)

    monkeypatch.setattr(np.linalg, "eig", counting)
    return calls


def unitary_stack(rng, count):
    z = rng.normal(size=(count, 3, 3)) + 1j * rng.normal(size=(count, 3, 3))
    return np.linalg.qr(z)[0]


@pytest.mark.filterwarnings("error")
def test_eig3_matches_lapack_on_random_stacks(monkeypatch):
    rng = np.random.default_rng(3)
    real = rng.normal(size=(200, 3, 3))
    for A in (real, real + 1j * rng.normal(size=real.shape), 1e3 * real):
        lapack = count_lapack(monkeypatch)
        p6._eig3(A.astype(complex), True)
        assert sum(lapack) < len(A) // 20     # nearly every row closed form
        monkeypatch.undo()
        assert_eig3_matches_lapack(A)


@pytest.mark.filterwarnings("error")
def test_eig3_matches_lapack_where_the_cubic_is_ill_conditioned(monkeypatch):
    # the closed form cannot certify these rows, so LAPACK solves them:
    # frames with cond(P) = 1e3, a root pair 10 ROOT_SEPARATION apart and
    # scalar (derogatory) matrices
    rng = np.random.default_rng(4)
    count = 50
    lam = rng.normal(size=(count, 3)) + 1j * rng.normal(size=(count, 3))
    P = unitary_stack(rng, count) @ (
        np.array([1.0, 10 ** -1.5, 1e-3])[:, None] * unitary_stack(rng, count))
    assert np.allclose(np.linalg.cond(P), 1e3)
    pair = lam.copy()
    pair[:, 1] = pair[:, 0] + 10 * p6.ROOT_SEPARATION
    Q = unitary_stack(rng, count)
    stacks = [P @ (lam[..., None] * np.linalg.inv(P)),
              Q @ (pair[..., None] * np.swapaxes(Q.conj(), 1, 2)),
              (2.5 - 1j) * np.eye(3)[None].repeat(2, axis=0),
              np.zeros((1, 3, 3))]
    for A in stacks:
        lapack = count_lapack(monkeypatch)
        p6._eig3(A.astype(complex), True)
        assert sum(lapack) == len(A)
        monkeypatch.undo()
        assert_eig3_matches_lapack(A)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("eid", catalog.catalog_list())
def test_eig3_matches_lapack_on_catalog_paths(eid, monkeypatch):
    e, m = entry_setup(eid)
    lapack = count_lapack(monkeypatch)
    values, _, _ = p6.frames_along(m, e.default_path.points, z_seed=e.z_seed)
    assert not lapack                     # every row in closed form
    monkeypatch.undo()
    assert_eig3_matches_lapack(p6._matrix_rows(m.T0_stack, values),
                               p6.default_lambda(m.weights))


@pytest.mark.filterwarnings("error")
def test_path_into_a_triple_root_raises_root_collision():
    # LT8 at t' = 0 has T0 = 0, a triple root, at the last point
    e, m = entry_setup("LT8")
    path = [(1.0 - s, 0.4 * (1.0 - s)) for s in np.linspace(0, 1, 9)]
    for track in (p6.StructureSampler(m).frames, p6.StructureSampler(m).roots):
        with pytest.raises(RootCollision, match="path point 8"):
            track(path)


def test_closed_form_frames_and_roots_only_tracking():
    e, m = entry_setup("LT8")
    lam = p6.default_lambda(e.pvf.ring.weights)
    path = e.default_path.points
    sampler = p6.StructureSampler(m)
    values, roots, P = sampler.frames(path)
    # the tracked frames against LAPACK on the same stack
    want, V = lapack_in_order(p6._matrix_rows(m.T0_stack, values), roots)
    assert np.all(np.abs(roots - want) <= 1e-12 * np.maximum(1, np.abs(want)))
    res, res_c = p6.residues_from_frame(P, lam), p6.residues_from_frame(V, lam)
    assert np.abs(res - res_c).max() <= 1e-12 * max(1, np.abs(res_c).max())
    # roots only: the same roots, and the sampler continues identically
    fresh = p6.StructureSampler(m)
    only_values, only_roots = fresh.roots(path)
    assert np.array_equal(only_values, values)
    assert np.array_equal(only_roots, roots)
    for name in ("values", "seps", "T0", "roots"):
        assert np.array_equal(getattr(fresh._last, name),
                              getattr(sampler._last, name))
    more = [(p[0], p[1] + 0.01) for p in path[-3:]]
    for a, b in zip(sampler.frames(more), fresh.frames(more)):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("eid", catalog.catalog_list())
def test_one_evaluation_per_matrix(eid, monkeypatch):
    # a 401-point track is one lockstep pass: one Newton run on an extension
    # ring (none on a plain ring), T0 evaluated in one call over all points,
    # not one per entry, and no bisection; frame_tangent evaluates both dT0
    # matrices in one call
    from flatiso.numeric import EvalStack
    e, m = entry_setup(eid)
    pts, z_seed = _path_401(e)
    calls, newton = [], []
    stacked, newton_roots = EvalStack.eval_batch, p6.newton_roots

    def counting(self, values):
        calls.append((self, len(values)))
        return stacked(self, values)

    def counting_newton(coeffs, seed):
        newton.append(len(coeffs))
        return newton_roots(coeffs, seed)

    monkeypatch.setattr(EvalStack, "eval_batch", counting)
    monkeypatch.setattr(p6, "newton_roots", counting_newton)
    passes = count_calls(monkeypatch, "_pass")
    bisections = count_calls(monkeypatch, "_bisect")
    values, roots, P = p6.StructureSampler(m, z_seed=z_seed).frames(pts)
    assert calls == [(m.T0_stack, 401)]
    assert newton == ([] if m.ring.ext is None else [401])
    assert len(passes) == 1 and bisections == []
    calls.clear()
    lam = p6.default_lambda(e.pvf.ring.weights)
    p6.frame_tangent(m, values[200], roots[200], P[200], lam)
    assert calls == [(m.dT0_stack, 1)]
