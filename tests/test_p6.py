import re
from itertools import permutations

import numpy as np
import pytest

from flatiso import catalog, p6
from flatiso import isomono
from flatiso.errors import (DegenerateLinearEntry, EntryIdenticallyZero,
                            InputError, InsufficientSamples, PoleOnPath,
                            RootCollision, RootNotConverged, TrackingLost)
from flatiso.flatcore import (PotentialVF, SaitoMatrices, build_saito_matrices,
                              mat_det)
from flatiso.numeric import EvalStack
from flatiso.ring import Ring


def entry_setup(eid):
    e = catalog.catalog_get(eid)
    m = build_saito_matrices(e.pvf)
    return e, m


def structure(ring, T0):
    """What the tracker reads of a SaitoMatrices, for a ring matrix T0 free
    of t_n: T0, the t_n-coefficients of h = det(t_n - T0) and their one
    compiled stack, built as SaitoMatrices builds it."""
    from types import SimpleNamespace
    n = len(T0)
    t, zero = ring.var(n - 1), ring.zero()
    h = mat_det([[(t if i == j else zero) - e for j, e in enumerate(row)]
                 for i, row in enumerate(T0)])
    m = SimpleNamespace(ring=ring, n=n, T0=T0, h_coeffs=h.coeffs_in(n - 1))
    m.T0_h_stack = SaitoMatrices.T0_h_stack.func(m)
    return m


def T0_rows(m, values):
    """T0 (N, n, n) at rows (z, t1..tn), compiled on its own."""
    return np.moveaxis(EvalStack(m.T0).eval_batch(values), -1, 0)


def h_coeff_rows(m, values):
    """h's t_n-coefficients (N, n + 1) at rows (z, t1..tn), compiled on their
    own."""
    return EvalStack(m.h_coeffs).eval_batch(values).T


def h_rows(m, points):
    """h's t_n-coefficients (N, n + 1) at t'-points of a plain ring."""
    values = np.zeros((len(points), m.n + 1), dtype=complex)
    values[:, 1:len(points[0]) + 1] = points
    return h_coeff_rows(m, values)


def test_roots_of_h_vieta_klein():
    e, m = entry_setup("LT8")
    h = m.h
    hc = h.coeffs_in(2)
    pt = (1.0, 1.0)
    roots = p6.StructureSampler(m).track([pt]).z[0]
    row = [(0j,) + pt + (0.0,)]
    # sum of roots = -coeff of t3^2; product = -constant coefficient (cubic)
    assert abs(sum(roots) + EvalStack(hc[2]).eval_batch(row)[0]) < 1e-12
    prod = roots[0] * roots[1] * roots[2]
    assert abs(prod + EvalStack(hc[0]).eval_batch(row)[0]) < 1e-10


def test_roots_ordering_and_continuation():
    e, m = entry_setup("LT8")
    _, (r1, r2), _ = p6.StructureSampler(m).track([(1.0, 0.4), (1.0, 0.41)])
    # ascending real part; r1[1:] is a conjugate pair whose real parts agree
    # to rounding, ordered by imaginary part
    assert r1[0].real < r1[1].real - 0.5
    assert abs(r1[1].real - r1[2].real) < 1e-15 and r1[1].imag < r1[2].imag
    assert np.abs(r2 - r1).max() < 0.1


def signed_minors(T):
    """adj(T) of a 3x3 ring matrix by chained RingElem arithmetic: adj(T)_ij
    is the 2x2 minor of T without row j and column i, whose sign the cyclic
    order of the rows and columns it keeps carries."""
    def kept(a):
        return (a + 1) % 3, (a + 2) % 3
    return [[T[kept(j)[0]][kept(i)[0]] * T[kept(j)[1]][kept(i)[1]]
             - T[kept(j)[0]][kept(i)[1]] * T[kept(j)[1]][kept(i)[0]]
             for j in range(3)] for i in range(3)]


def test_adjugate_entries_linear_in_t3(perturbed_klein, perturbed_lazy):
    # the identity _linear_entry reads the PVI entry off: with T = T0 - t3 I,
    # adj(T)_ij = T0_ij t3 + (T0_ik T0_kj - T0_kk T0_ij), k the third index,
    # exactly on every off-diagonal entry of the 11 entries and of the three
    # perturbed controls.  On the entries T0 is m.T0, the tracker's, which
    # raises unless it is free of t3, so adj(T)_ij is linear in t3
    cases = [(catalog.catalog_get(eid).pvf, True) for eid in catalog.IDS]
    cases += [(perturbed_klein, False), (perturbed_lazy("LT19"), False),
              (perturbed_lazy("LT14"), False)]
    for pvf, entry in cases:
        m = build_saito_matrices(pvf)
        t3 = pvf.ring.var(2)
        T0 = [[e + t3 if i == j else e for j, e in enumerate(row)]
              for i, row in enumerate(m.T)]
        if entry:
            assert T0 == m.T0
        adj = signed_minors(m.T)
        for i, j in permutations(range(3), 2):
            k = 3 - i - j
            assert adj[i][j] == (T0[i][j] * t3 + T0[i][k] * T0[k][j]
                                 - T0[k][k] * T0[i][j]), (pvf.name, i, j)


def toy_structure():
    """weights (1/5, 3/5, 1) and g = (t1 t3, t2 t3, t3^2/2 + t1^10), whose
    T0 = [[0, 0, -18 t1^9], [0, 0, 0], [-t1/5, -3 t2/5, 0]] has zero
    off-diagonal entries of both kinds."""
    ring = Ring(["1/5", "3/5", "1"])
    t1, t2, t3 = ring.gens()
    return build_saito_matrices(PotentialVF(
        ring=ring, g=[t1 * t3, t2 * t3, t3 ** 2 / 2 + t1 ** 10], name="toy"))


@pytest.mark.parametrize("choice, error, want", [
    ((1, 2), DegenerateLinearEntry, "entry (1,2) has no t_3 term"),
    ((2, 1), EntryIdenticallyZero, "adj(T)[2][1] is identically zero"),
    ((2, 3), EntryIdenticallyZero, "adj(T)[2][3] is identically zero"),
    ((1, 3), None, (0, 2, 1)),
    ((3, 1), None, (2, 0, 1)),
    ((3, 2), None, (2, 1, 0)),
])
def test_linear_entry_exact_branches(choice, error, want):
    # T0_ij = 0 with T0_ik T0_kj = 0 is an entry identically zero, T0_ij = 0
    # alone an entry with no t3 term, each with its message; the others give
    # their 0-based indices (i, j, k)
    m = toy_structure()
    lam = (1, 2, 3)
    if error is None:
        assert p6._linear_entry(m, lam, choice) == want
        return
    with pytest.raises(error) as info:
        p6._linear_entry(m, lam, choice)
    assert str(info.value) == want


def test_entry_column_three_rejected():
    e, m = entry_setup("LT8")
    lam = p6.default_lambda(e.pvf.ring.weights)   # lambda_3 = 0
    with pytest.raises(EntryIdenticallyZero):
        p6.extract_p6_solution(m, lam, (1, 3), e.default_path.points)


def test_extraction_finite_and_regular():
    e, m = entry_setup("LT8")
    lam = p6.default_lambda(e.pvf.ring.weights)
    samples = p6.extract_p6_solution(m, lam, (1, 2), e.default_path.points)
    assert samples.s.shape == samples.t.shape == samples.y.shape == (41,)
    assert np.array_equal(samples.points, e.default_path.points)
    assert np.array_equal(samples.s, [tp[1].real for tp in e.default_path.points])
    assert np.all(np.isfinite(samples.y))
    assert np.all(np.minimum(np.abs(samples.t), np.abs(samples.t - 1)) > 1e-3)


def test_residual_below_tolerance_and_sensitivity():
    e, m = entry_setup("LT8")
    lam = p6.default_lambda(e.pvf.ring.weights)
    samples = p6.extract_p6_solution(m, lam, (1, 2), e.default_path.points)
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
    snaps = isomono.snapshots_along(m, path, lam)
    swap = [1, 0, 2]
    relabeled = isomono.OkuboNumeric(
        snaps.Binf, snaps.values, snaps.z[:, swap], snaps.T0, snaps.E[:, swap],
        snaps.residues[:, swap], snaps.traces[:, swap])
    samples, _, defects = p6.pvi_on_frames(m, (1, 2), relabeled)
    assert defects[2].max() < 1e-6
    # the relabeled t really is the 0 <-> 1 swapped cross-ratio
    plain = p6.extract_p6_solution(m, lam, (1, 2), e.default_path.points[:5])
    t_plain, t_swapped = plain.t[0], samples.t[0]
    assert abs(t_swapped - (1 - t_plain)) < 1e-9


def test_weighted_scaling_invariance():
    # t_i -> c^(w_i d) t_i leaves the cross-ratios invariant (weight-zero data)
    e, m = entry_setup("LT8")
    lam = p6.default_lambda(e.pvf.ring.weights)
    samples = p6.extract_p6_solution(m, lam, (1, 2), e.default_path.points)
    c, d = 1.3, 7          # weights k/7: c^(w d) has integer exponents
    w = [float(x) for x in e.pvf.ring.weights]
    scaled_path = [(tp[0] * c ** (w[0] * d), tp[1] * c ** (w[1] * d))
                   for tp in e.default_path.points]
    scaled = p6.extract_p6_solution(m, lam, (1, 2), scaled_path)
    assert np.abs(samples.t - scaled.t).max() < 1e-10
    assert np.abs(samples.y - scaled.y).max() < 1e-10


def test_path_parameter_is_t2_of_the_tracked_rows():
    # perfbench passes the t2 values of its np.linspace path as svals; the
    # default reads the same values off the tracked rows, so its PVI and
    # Schlesinger results are bit-identical either way
    e, m = entry_setup("LT27")
    lam = p6.default_lambda(e.pvf.ring.weights)
    dp = e.doc["default_path"]
    t2 = np.linspace(dp["t2_start"], 0.3 * dp["t2_start"] + 0.7 * dp["t2_end"],
                     61)
    pts = [(dp["t1"], s) for s in t2]
    params = p6.p6_parameters(m, pts[0], lam=lam,
                              sampler=p6.StructureSampler(m, z_seed=e.z_seed))
    plain = p6.extract_p6_solution(m, lam, e.p6_entry, pts, z_seed=e.z_seed)
    given = p6.extract_p6_solution(m, lam, e.p6_entry, pts, z_seed=e.z_seed,
                                   svals=t2)
    assert np.array_equal(plain.s, t2)
    assert p6.p6_residual(plain, params) == p6.p6_residual(given, params)
    for name in ("t", "y"):
        assert np.array_equal(getattr(plain, name), getattr(given, name))
    for a, b in zip(p6._sample_defects(plain, params),
                    p6._sample_defects(given, params)):
        assert np.array_equal(a, b)
    snaps = isomono.snapshots_along(m, pts, lam, z_seed=e.z_seed)
    assert (isomono.schlesinger_residual(snaps)
            == isomono.schlesinger_residual(snaps, svals=t2))


def test_path_fixed_in_t2_is_a_zero_step():
    # a path that moves in t1 alone tracks, but its parameter t2 does not
    # move, and the stencils reject the zero step instead of dividing by it
    e, m = entry_setup("LT8")
    lam = p6.default_lambda(e.pvf.ring.weights)
    pts = [(1.0 + 0.01 * k, 0.5) for k in range(9)]
    samples = p6.extract_p6_solution(m, lam, (1, 2), pts)
    params = p6.p6_parameters(m, pts[0], sampler=p6.StructureSampler(m))
    with pytest.raises(InputError, match="nonzero step"):
        p6.p6_residual(samples, params)
    with pytest.raises(InputError, match="nonzero step"):
        isomono.schlesinger_residual(isomono.snapshots_along(m, pts, lam))


def test_extraction_needs_n_3(trivial_n2):
    m = build_saito_matrices(trivial_n2)
    with pytest.raises(InputError, match="needs n = 3"):
        p6.extract_p6_solution(m, [0.5, 0.0], (1, 2), [(1.0,)])


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
    lt8 = p6.extract_p6_solution(m, lam, (1, 2), e.default_path.points)
    family = sqrt_t_samples(np.linspace(2.0, 3.0, 101))
    for samples, pars in ((lt8, params),
                          (family, p6.P6Params.from_thetas(0.5, 0.5, 0.5, 1.5))):
        assert p6.p6_residual(samples, pars) < 1e-6
        dy_dt, d2y_dt2, residual = p6._sample_defects(samples, pars)
        want_d1, want_d2 = per_point_derivatives(samples)
        assert dy_dt.shape == d2y_dt2.shape == (len(samples.s) - 4,)
        assert residual.shape == dy_dt.shape
        for got, want in ((dy_dt, want_d1), (d2y_dt2, want_d2)):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    t = family.t[2:-2]                  # the family is the last pair
    assert np.abs(dy_dt - 0.5 / np.sqrt(t)).max() < 1e-8
    assert np.abs(d2y_dt2 + 0.25 * t ** -1.5).max() < 1e-8


def test_insufficient_samples():
    params = p6.P6Params.from_thetas(0, 0, 0, 1)
    few = sqrt_t_samples(2.0 + np.arange(4))
    with pytest.raises(InsufficientSamples):
        p6.p6_residual(few, params)


def synthetic_track(T0, z):
    """A Track of n = 3 on the rows T0 (N, 3, 3) and roots z (N, 3), with
    t_2 = 0.1 k at row k."""
    values = np.zeros((len(z), 4), dtype=complex)
    values[:, 1], values[:, 2] = 1.0, 0.1 * np.arange(len(z))
    return p6.Track(values, np.asarray(z, dtype=complex),
                    np.asarray(T0, dtype=complex))


def test_samples_on_names_the_first_bad_point():
    # entry (1, 2): alpha = T0_12, beta = T0_13 T0_32 - T0_33 alpha; the
    # PVI solution is the zero -beta/alpha, cross-ratio normalized
    T0 = np.tile(np.arange(1.0, 10.0).reshape(3, 3), (4, 1, 1))
    z = np.tile([0.0, 1.0, 2.5 + 0.5j], (4, 1))
    samples = p6._samples_on((0, 1, 2), synthetic_track(T0, z))
    assert np.allclose(samples.y, -(3 * 8 - 9 * 2) / 2)
    assert np.allclose(samples.t, 2.5 + 0.5j)
    # |alpha| < 1e-12 max(1, |beta|): the t_3-coefficient vanishes
    T0[2, 0, 1] = 1e-12 * abs(T0[2, 0, 2] * T0[2, 2, 1]) / 2
    with pytest.raises(DegenerateLinearEntry, match="at path point 2$"):
        p6._samples_on((0, 1, 2), synthetic_track(T0, z))
    # z_3 = z_1 puts the cross-ratio t at 0, one point earlier
    z[1, 2] = z[1, 0]
    with pytest.raises(RootCollision, match="t hits 0/1 at path point 1$"):
        p6._samples_on((0, 1, 2), synthetic_track(T0, z))


def test_t_constant_along_s_is_not_t_regular():
    s = np.linspace(0.0, 0.8, 9)
    samples = p6.P6Samples(s=s, points=np.zeros((9, 2)),
                           t=np.full(9, 2.0 + 0j), y=0.3 + 0.1 * s)
    params = p6.P6Params.from_thetas(0.2, -0.1, 0.3, 0.7)
    with pytest.raises(DegenerateLinearEntry, match=re.escape(
            f"dt/ds vanishes at s = {s[2]}; path is not t-regular")):
        p6.p6_residual(samples, params)


def test_t0_matrix_follows_the_track():
    # successive t0_matrix calls continue one point at a time; the track
    # of the whole path evaluates the rows together, equal up to rounding
    e, m = entry_setup("LT19")
    pts = e.default_path.points
    sampler = p6.StructureSampler(m, z_seed=e.z_seed)
    one_by_one = np.array([sampler.t0_matrix(pt) for pt in pts])
    T0 = p6.StructureSampler(m, z_seed=e.z_seed).track(pts).T0
    assert (np.abs(one_by_one - T0).max(axis=(1, 2))
            <= 1e-12 * np.abs(T0).max(axis=(1, 2))).all()


def test_csv_and_json_reports():
    e, m = entry_setup("LT8")
    lam = p6.default_lambda(e.pvf.ring.weights)
    samples = p6.extract_p6_solution(m, lam, (1, 2),
                                     e.default_path.points[:7])
    params = p6.p6_parameters(m, e.default_path.points[0],
                              sampler=p6.StructureSampler(m))
    csv = p6.samples_to_csv(samples, p6._sample_defects(samples, params))
    assert csv.splitlines()[0] == "s,t1,t2,t,y,dy,d2y,residual"
    assert len(csv.splitlines()) == 8
    blob = p6.params_to_json(params)
    assert set(blob) >= {"theta", "alpha", "beta", "gamma", "delta", "r"}


def test_csv_does_not_depend_on_p6_residual_running_first():
    # samples_to_csv writes the defects it is given, and p6_residual writes
    # nothing to the samples
    e, m = entry_setup("LT8")
    lam = p6.default_lambda(e.pvf.ring.weights)
    params = p6.p6_parameters(m, e.default_path.points[0],
                              sampler=p6.StructureSampler(m))
    samples = p6.extract_p6_solution(m, lam, (1, 2), e.default_path.points)
    before = p6.samples_to_csv(samples, p6._sample_defects(samples, params))
    residual = p6.p6_residual(samples, params)
    assert (p6.samples_to_csv(samples, p6._sample_defects(samples, params))
            == before)
    rows = [line.split(",") for line in before.splitlines()[1:]]
    assert all(row[5:] == ["", "", ""] for row in rows[:2] + rows[-2:])
    assert all(cell for row in rows[2:-2] for cell in row[5:])
    assert max(float(row[7]) for row in rows[2:-2]) == float(f"{residual:.6g}")


def test_entry_survey_reports_all_six():
    e, m = entry_setup("LT8")
    lam = p6.default_lambda(e.pvf.ring.weights)
    snaps = isomono.snapshots_along(m, e.default_path.points, lam)
    survey = p6.survey_on_frames(m, snaps)
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
    sampler = p6.StructureSampler(m, z_seed=e.z_seed)
    sampler.z_at(e.default_path.points[0])
    first = sampler._last[0]
    coeffs = h_coeff_rows(m, first.values)
    base = p6.ordered_eig(coeffs, first.T0)[0]
    rng = np.random.default_rng(0)
    for _ in range(20):
        bumped = coeffs * (1 + 1e-15 * rng.choice([-1.0, 1.0], size=coeffs.shape))
        roots = p6.ordered_eig(bumped, first.T0)[0]
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


def test_one_step_rule_decides_z_and_the_roots(monkeypatch):
    # on H3p's default path (z-degree 4) the steps of z (one zero per row)
    # and of the roots of T0 (a row of zeros) are decided by _steps_ok
    e, m = entry_setup("H3p")
    assert m.ring.ext.z_degree == 4
    ranks = []
    real = p6._steps_ok

    def recording(prev, new, sep_prev, sep_new):
        ranks.append(np.ndim(new))
        return real(prev, new, sep_prev, sep_new)

    monkeypatch.setattr(p6, "_steps_ok", recording)
    p6.StructureSampler(m, z_seed=e.z_seed).track(e.default_path.points)
    assert set(ranks) == {1, 2}


def test_ordered_eig_accepts_up_to_the_first_step_the_rule_rejects():
    # roots +-x and 5 of h = (t^2 - x^2)(t - 5): the step x: 0.98 -> 0.9
    # moves -x by 0.08, far below 1/4 of its true separation 1.8 but not
    # below 1/4 of its certified one (0.30), so it is rejected
    xs = [1.0, 0.98, 0.9, 0.89]
    coeffs = np.array([[5 * x * x, -x * x, -5, 1] for x in xs], dtype=complex)
    T0 = np.array([[[0, x, 0], [x, 0, 0], [0, 0, 5]] for x in xs], dtype=complex)
    roots, sep, accepted, checked = p6.ordered_eig(coeffs, T0)
    assert np.allclose(roots, [[-x, x, 5] for x in xs])
    assert np.all(sep < 2 * np.abs(roots[:, :1] - roots[:, 1:2]))
    ok = p6._steps_ok(roots[:-1], roots[1:], sep[:-1], sep[1:])
    assert list(ok) == [True, False, True] and (accepted, checked) == (2, 3)
    rest, _, count, _ = p6.ordered_eig(coeffs[1:], T0[1:],
                                       (roots[:1], sep[:1], T0[:1]))
    assert count == 1 and np.allclose(rest, roots[1:])


def test_eigenvalue_swap_is_bisected(monkeypatch):
    # T0 = [[0, t1], [t1, 0]] has roots +-t1 (h = t2^2 - t1^2); on the step
    # t1: 1 -> -0.2 + i the root 1 lies nearer -t1 than t1 at the far end,
    # and each root moves 1.6, far past a quarter of its separation: the
    # tracker must bisect the step and agree with a fine track of the same
    # segment
    from flatiso.ring import Ring
    ring = Ring(["1", "1"])
    t1, _ = ring.gens()
    m = structure(ring, [[ring.zero(), t1], [t1, ring.zero()]])
    p0, p1 = (1.0, 0.0), (-0.2 + 1j, 0.0)
    T0 = [[[0, p[0]], [p[0], 0]] for p in (p0, p1)]
    assert p6.ordered_eig(h_rows(m, [p0, p1]), np.array(T0))[2] == 1
    bisections = count_calls(monkeypatch, "_bisect")
    _, roots, _ = p6.StructureSampler(m).track([p0, p1])
    assert bisections
    fine = [(1.0 + s * (p1[0] - 1.0), 0.0) for s in np.linspace(0, 1, 201)]
    _, fine_roots, _ = p6.StructureSampler(m).track(fine)
    assert np.abs(roots[1] - fine_roots[-1]).max() < 1e-12
    assert np.allclose(roots[1], [0.2 - 1j, -0.2 + 1j])


def count_tracks(monkeypatch):
    calls = []
    real = p6.StructureSampler.track

    def counting(self, path):
        calls.append(len(path))
        return real(self, path)

    monkeypatch.setattr(p6.StructureSampler, "track", counting)
    return calls


def test_pvi_on_frames_reads_params_off_frame_zero():
    e, m = entry_setup("LT8")
    lam = p6.default_lambda(e.pvf.ring.weights)
    snaps = isomono.snapshots_along(m, e.default_path.points, lam)
    _, params, defects = p6.pvi_on_frames(m, (1, 2), snaps)
    assert defects[2].max() < 1e-6
    # the parameters read off frame 0 are those of a fresh sampler at path[0]
    fresh = p6.p6_parameters(m, e.default_path.points[0],
                             sampler=p6.StructureSampler(m), lam=lam)
    assert np.abs(np.array(params.r) - np.array(fresh.r)).max() < 1e-14


def test_entry_survey_matches_pvi_on_frames(monkeypatch):
    e, m = entry_setup("LT8")
    lam = p6.default_lambda(e.pvf.ring.weights)
    calls = count_tracks(monkeypatch)
    path = e.default_path.points
    snaps = isomono.snapshots_along(m, path, lam)
    survey = p6.survey_on_frames(m, snaps)
    for key, (i, j) in (("1,2", (1, 2)), ("2,1", (2, 1)), ("3,1", (3, 1))):
        _, _, defects = p6.pvi_on_frames(m, (i, j), snaps)
        assert survey[key]["residual"] == defects[2].max()
    assert calls == [len(path)]


def test_pvi_grid_residual_matches_per_point_stencils():
    # y' is given at the grid points and y'' is its five-point first
    # difference
    rng = np.random.default_rng(4)
    ts = np.linspace(2.0, 2.4, 41)
    ys = 2.1 + 0.4j + 0.3 * ts ** 2 + 1e-3 * rng.normal(size=41)
    dys = 0.6 * ts + 1e-3 * rng.normal(size=41)
    params = p6.P6Params.from_thetas(0.2, -0.1, 0.3 + 0.1j, 0.7)
    h = ts[1] - ts[0]
    want = 0.0
    for k in range(2, len(ts) - 2):
        d2y, _ = five_point_reference(dys, k, h)
        want = max(want, abs(d2y - p6.pvi_rhs(ts[k], ys[k], dys[k], params)))
    got = p6.pvi_grid_residual(ts, ys, dys, params)
    assert abs(got - want) <= 1e-14 * want


def test_pvi_grid_residual_guards():
    params = p6.P6Params.from_thetas(0.2, -0.1, 0.3, 0.7)
    ts = np.linspace(2.0, 2.4, 9)
    with pytest.raises(InsufficientSamples):
        p6.pvi_grid_residual(ts[:4], ts[:4] + 1, ts[:4], params)
    bent = ts.copy()
    bent[5] += 1e-3
    with pytest.raises(ValueError, match="uniform"):
        p6.pvi_grid_residual(bent, ts + 1, ts, params)
    on_pole = ts + 1
    on_pole[4] = 1.0                     # y = 1 at an interior point
    with pytest.raises(PoleOnPath, match=re.escape(f"t = {ts[4]}, y = (1+0j)")):
        p6.pvi_grid_residual(ts, on_pole, ts, params)
    # y = t up to an imaginary part far below the rounding of y: on the pole
    near_pole = (ts + 1).astype(complex)
    near_pole[4] = ts[4] + 1e-30j
    with pytest.raises(PoleOnPath, match=re.escape(f"t = {ts[4]}, y = ")):
        p6.pvi_grid_residual(ts, near_pole, ts, params)


def test_midconv_block_tracks_once(monkeypatch):
    # the residue tangent comes from the one tracked point, not from
    # re-tracking displaced points
    e, m = entry_setup("LT8")
    calls = count_tracks(monkeypatch)
    pts = e.default_path.points
    catalog.midconv_block(m, pts[len(pts) // 2], z_seed=e.z_seed)
    assert calls == [1]


def _path_401(e):
    pts, z_seed = catalog.path_from_doc(dict(e.doc["default_path"], points=401))
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
    values, roots, _ = p6.StructureSampler(m, z_seed=z_seed).track(pts)
    coeffs = rel_coeffs(m.ring, [p + (0.0,) for p in pts])
    ref, z = np.empty(len(pts), dtype=complex), z_seed
    for k, row in enumerate(coeffs):
        ref[k] = z = newton_roots(row[None], z)[0]
    assert np.all(np.abs(values[:, 0] - ref) <= 1e-13 * np.maximum(1, np.abs(ref)))
    ref_values = np.column_stack([ref, np.array(pts), np.zeros(len(pts))])
    want = np.linalg.eigvals(T0_rows(m, ref_values))
    nearest = np.take_along_axis(
        want, np.abs(want[:, None, :] - roots[:, :, None]).argmin(axis=2), axis=1)
    assert np.all(np.abs(roots - nearest)
                  <= 1e-11 * np.maximum(1, np.abs(nearest)))


def sqrt_structure(T0=None):
    """The structure on z^2 = t1 with T0 = diag(z, 5), or with T0(ring, z)."""
    from flatiso.ring import Ring
    ring = Ring(["1", "1"], extension={(2, 0, 0): 1, (0, 1, 0): -1},
                z_weight="1/2")
    z = ring.zgen()
    T0 = (T0 or (lambda r, z: [[z, r.zero()], [r.zero(), r.const(5)]]))(ring, z)
    return structure(ring, T0)


def sqrt_sampler(z_seed, T0=None):
    """The tracker on sqrt_structure(T0)."""
    return p6.StructureSampler(sqrt_structure(T0), z_seed=z_seed)


def test_seed_with_no_newton_step_is_refused():
    # f'(0) = 0 for z^2 - t1: Newton cannot leave the seed at the first point
    with pytest.raises(RootNotConverged):
        sqrt_sampler(0.0).track([(1.0, 0.0), (1.1, 0.0)])


def test_lockstep_restarts_where_newton_leaves_the_branch(monkeypatch):
    # z^2 = t1 once round the unit circle: Newton from z = 1 reaches -sqrt(t1)
    # past theta = pi, so the lockstep must restart there, not bisect
    from flatiso.numeric import certified_separation, rel_coeffs
    sampler = sqrt_sampler(1.0)
    ring = sampler.ring
    passes = count_calls(monkeypatch, "_pass")
    bisections = count_calls(monkeypatch, "_bisect")
    path = [(np.exp(1j * th), 0.0) for th in np.linspace(0, 2 * np.pi, 401)]
    z = sampler.track(path)[0][:, 0]
    assert abs(z[-1] + 1) < 1e-12
    sep = certified_separation(rel_coeffs(ring, path), z)
    assert np.all(np.abs(np.diff(z))
                  < p6.STEP_FRACTION * np.minimum(sep[:-1], sep[1:]))
    assert len(passes) > 1 and bisections == []


def test_z_rejected_step_is_bisected_with_its_roots(monkeypatch):
    # T0 = [[0, z], [z, 0]] on z^2 = t1 has roots +-z.  On the one step
    # t1: 1 -> -1 + 0.1i, z turns by 87 degrees: Newton from z = 1 fails the
    # z rule and the roots' step (h = t2^2 - z^2) is rejected too, so z
    # and the roots are continued together through the
    # bisection, and must agree with a fine track of the same segment
    from flatiso.numeric import certified_separation, newton_roots, rel_coeffs
    swap = lambda r, z: [[r.zero(), z], [z, r.zero()]]    # noqa: E731
    p0, p1 = (1.0, 0.0), (-1 + 0.1j, 0.0)
    coeffs = rel_coeffs(sqrt_sampler(1.0).ring, [p0, p1])
    z = newton_roots(coeffs[1:], 1.0)
    sep = certified_separation(coeffs, np.array([1.0, z[0]]))
    assert abs(z[0] - 1) >= p6.STEP_FRACTION * sep.min()
    fine = [(1.0 + s * (p1[0] - 1.0), 0.0) for s in np.linspace(0, 1, 401)]
    fine_values, fine_roots, _ = sqrt_sampler(1.0, swap).track(fine)
    zs = (1.0, fine_values[-1, 0])
    h = np.array([[-zv * zv, 0, 1] for zv in zs], dtype=complex)
    assert p6.ordered_eig(h, np.array([[[0, zv], [zv, 0]] for zv in zs]))[2] == 1
    bisections = count_calls(monkeypatch, "_bisect")
    values, roots, _ = sqrt_sampler(1.0, swap).track([p0, p1])
    assert bisections
    assert abs(values[1, 0] - fine_values[-1, 0]) < 1e-12
    assert np.abs(roots[1] - fine_roots[-1]).max() < 1e-12


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the gap rule tests only the ends of a step, so a "
                   "near-crossing inside it swaps the labels")
def test_near_crossing_inside_one_step_keeps_the_labels():
    # T0 = [[0, 1], [t1^2, 0]] has the roots +-t1 (h = t2^2 - t1^2); on the
    # one step t1: 1 -> -1 + 0.02i they come within 0.02 of each other at
    # the midpoint but are 2 apart at both ends.  The first-order seed
    # (exact for a diagonal T0) starts each root 0.02 from the other's
    # continuation, Newton lands there, below a quarter of its certified
    # separation (0.11), and the step passes with the labels swapped; a
    # 401-point track of the same segment is the reference
    from flatiso.ring import Ring
    ring = Ring(["1", "1"])
    t1 = ring.gens()[0]
    m = structure(ring, [[ring.zero(), ring.const(1)], [t1 ** 2, ring.zero()]])

    def roots_at_end(path):
        return p6.StructureSampler(m).track(path)[1][-1]

    p0, p1 = (1.0, 0.0), (-1 + 0.02j, 0.0)
    fine = [(1.0 + s * (p1[0] - 1.0), 0.0) for s in np.linspace(0, 1, 401)]
    assert np.abs(roots_at_end(fine) - [1 - 0.02j, -1 + 0.02j]).max() < 1e-12
    assert np.abs(roots_at_end([p0, p1]) - roots_at_end(fine)).max() < 1e-12


def test_tracking_lost_past_max_bisections(monkeypatch):
    # with STEP_FRACTION 0 no step passes: the left half of the first step
    # is halved again MAX_BISECTIONS times, and then the track is given up
    monkeypatch.setattr(p6, "STEP_FRACTION", 0.0)
    passes = count_calls(monkeypatch, "_pass")
    with pytest.raises(TrackingLost):
        sqrt_sampler(1.0).track([(1.0, 0.0), (1.1, 0.0)])
    # the path, its second point, then the second point and the halves
    # towards the first point, one per depth
    assert len(passes) == 2 + p6.MAX_BISECTIONS + 1
    assert passes[-1][1][0][0] - 1.0 == pytest.approx(0.1 / 2 ** p6.MAX_BISECTIONS)


def test_tracking_lost_past_the_pass_budget(monkeypatch):
    # the one step t1: 1 -> -1 + 0.1i on z^2 = t1 needs about a hundred
    # passes of bisection; past the budget the track is given up
    monkeypatch.setattr(p6, "MAX_BISECTION_PASSES", 8)
    passes = count_calls(monkeypatch, "_pass")
    with pytest.raises(TrackingLost, match="more than 8 passes"):
        sqrt_sampler(1.0).track([(1.0, 0.0), (-1 + 0.1j, 0.0)])
    # the path, its second point, then the budget
    assert len(passes) == 2 + 8


def lapack_in_order(A, roots):
    """np.linalg.eig of the stack A, its columns put in the order of roots
    (the permutation that moves no root far, the first among ties)."""
    w, V = np.linalg.eig(A)
    perms = np.array(list(permutations(range(A.shape[-1]))))
    far = np.abs(roots[:, None, :] - w[:, perms]).max(axis=2)
    k = perms[far.argmin(axis=1)]
    return np.take_along_axis(w, k, axis=1), np.take_along_axis(V, k[:, None], 2)


def count_lapack(monkeypatch):
    """The sizes of the stacks passed to np.linalg.eigvals, in order."""
    calls = []
    real = np.linalg.eigvals

    def counting(A):
        calls.append(len(A))
        return real(A)

    monkeypatch.setattr(np.linalg, "eigvals", counting)
    return calls


def unitary_stack(rng, count):
    z = rng.normal(size=(count, 3, 3)) + 1j * rng.normal(size=(count, 3, 3))
    return np.linalg.qr(z)[0]


def ill_conditioned_stacks():
    """Stacks with ill-conditioned roots: frames with cond(P) = 1e3, a root
    pair 10 ROOT_SEPARATION apart (the pair stack), and scalar (derogatory)
    matrices."""
    rng = np.random.default_rng(4)
    count = 50
    lam = rng.normal(size=(count, 3)) + 1j * rng.normal(size=(count, 3))
    P = unitary_stack(rng, count) @ (
        np.array([1.0, 10 ** -1.5, 1e-3])[:, None] * unitary_stack(rng, count))
    assert np.allclose(np.linalg.cond(P), 1e3)
    pair = lam.copy()
    pair[:, 1] = pair[:, 0] + 10 * p6.ROOT_SEPARATION
    Q = unitary_stack(rng, count)
    return [P @ (lam[..., None] * np.linalg.inv(P)),
            Q @ (pair[..., None] * np.swapaxes(Q.conj(), 1, 2)),
            (2.5 - 1j) * np.eye(3)[None].repeat(2, axis=0),
            np.zeros((1, 3, 3))]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("eid", catalog.catalog_list())
def test_tracked_poles_are_the_eigenvalues_of_T0(eid):
    # the tracker finds the poles as the t_n-roots of h, with no
    # eigensolver; np.linalg.eigvals of the Track's T0, the stack its rows
    # evaluate to, is the reference only
    e, m = entry_setup(eid)
    for points in (41, 401):
        pts, z_seed = catalog.path_from_doc(
            dict(e.doc["default_path"], points=points))
        values, roots, T0 = p6.StructureSampler(m, z_seed=z_seed).track(pts)
        assert np.array_equal(T0, T0_rows(m, values))
        want, _ = lapack_in_order(T0, roots)
        assert np.all(np.abs(roots - want) <= 1e-12 * np.maximum(1, np.abs(want)))


def test_closed_form_roots_tracking(monkeypatch):
    # a fresh sampler (first row from np.roots, no z_seed): the Track's T0
    # is the stack its rows evaluate to, its roots are zeros of h's
    # closed-form t_n-coefficients to rounding, found with no eigensolver,
    # and agree with LAPACK
    e, m = entry_setup("LT8")
    lapack = count_lapack(monkeypatch)
    values, roots, T0 = p6.StructureSampler(m).track(e.default_path.points)
    assert lapack == []
    monkeypatch.undo()
    assert np.array_equal(T0, T0_rows(m, values))
    terms = h_coeff_rows(m, values)[:, None, :] * (
        roots[..., None] ** np.arange(m.n + 1))
    assert np.all(np.abs(terms.sum(-1)) <= 1e-14 * np.abs(terms).sum(-1))
    want, _ = lapack_in_order(T0, roots)
    assert np.all(np.abs(roots - want) <= 1e-12 * np.maximum(1, np.abs(want)))


def test_a_close_pair_raises_eigenvalue_collision():
    # T0 = diag(t1, 1): continued from t1 = 0 to a pair 10 ROOT_SEPARATION
    # apart, closer than h's coefficients resolve in double precision, so
    # the certified separation reads 0 and the rejected step names the
    # collision at once
    from flatiso.errors import EigenvalueCollision
    from flatiso.ring import Ring
    ring = Ring(["1", "1"])
    t1 = ring.gens()[0]
    m = structure(ring, [[t1, ring.zero()], [ring.zero(), ring.const(1)]])
    end = (1 + 10 * p6.ROOT_SEPARATION, 0.0)
    with pytest.raises(EigenvalueCollision, match="path point 1"):
        p6.StructureSampler(m).track([(0.0, 0.0), end])


@pytest.mark.filterwarnings("error")
def test_path_into_a_triple_root_raises_root_collision():
    # LT8 at t' = 0 has T0 = 0, a triple root, at the last point
    e, m = entry_setup("LT8")
    path = [(1.0 - s, 0.4 * (1.0 - s)) for s in np.linspace(0, 1, 9)]
    with pytest.raises(RootCollision, match="path point 8"):
        p6.StructureSampler(m).track(path)


def test_path_into_a_double_root_raises_root_collision():
    # z^2 = t1 continued from t1 = 1: Newton stops about 1e-7 off the pair at
    # t1 = 1e-22 (and at t1 = 0), farther than the pair's own gap, so the
    # certified separation there reads 0 and the rejected step names it
    with pytest.raises(RootCollision, match="at path point 1"):
        sqrt_sampler(1.0).track([(1.0, 0.0), (1e-22, 0.0)])
    with pytest.raises(RootCollision, match="at path point 2"):
        sqrt_sampler(1.0).track([(1.0, 0.0), (0.5, 0.0), (0.0, 0.0)])


@pytest.mark.filterwarnings("error")
def test_h_past_the_float_range_is_a_blow_up():
    # at t1 = 1e50 LT8's T0 is finite but h's coefficients overflow
    from flatiso.errors import BlowUp
    e, m = entry_setup("LT8")
    with pytest.raises(BlowUp, match="h is not finite at path point 0"):
        p6.StructureSampler(m).track([(1e50, 0.1)])


def test_each_collision_is_named_where_the_tracker_finds_it():
    # z^2 = t1 at t1 = 1e-22 puts the two roots of the relation 2e-11
    # apart: a RootCollision through snapshots_along, not renamed; a root
    # gap of T0 is an EigenvalueCollision, straight from the tracker
    from flatiso.errors import EigenvalueCollision
    m = sqrt_structure()
    with pytest.raises(RootCollision, match="generator roots closer") as exc:
        isomono.snapshots_along(m, [(1e-22, 0.0)], (0.5, 0.0), z_seed=1e-11)
    assert not isinstance(exc.value, EigenvalueCollision)
    e, m = entry_setup("LT8")
    path = [(1.0 - s, 0.4 * (1.0 - s)) for s in np.linspace(0, 1, 9)]
    with pytest.raises(EigenvalueCollision, match="path point 8"):
        p6.StructureSampler(m).track(path)


def frame_projectors(V):
    """P[:, i] P^{-1}[i, :] of stacked eigenvector frames V (N, n, n): the
    projectors through an inverted frame, the construction that
    p6.projectors replaced, kept here as the reference."""
    return np.einsum("Nai,Nib->Niab", V, np.linalg.inv(V))


def assert_projectors_match_frames(T0, roots, lam, tol=1e-12):
    """The residues -E_i diag(lam) of p6.projectors against those of
    LAPACK's frames within tol of the largest residue entry, point by
    point."""
    _, V = lapack_in_order(T0, roots)
    got = -p6.projectors(T0, roots) * lam
    ref = -frame_projectors(V) * lam
    err = np.abs(got - ref).max(axis=(1, 2, 3))
    assert np.all(err <= tol * np.abs(ref).max(axis=(1, 2, 3)))


@pytest.mark.parametrize("eid", catalog.catalog_list())
def test_projector_residues_match_lapack_frames_on_catalog_paths(eid):
    # the residues of snapshots_along against np.linalg.eig frames on the
    # same T0 stack, and the projectors sum to the identity within rounding
    # of their size (LT30's reach 334; measured <= 6.3e-16 of it)
    e, m = entry_setup(eid)
    lam = np.array([complex(x) for x in p6.default_lambda(m.weights)])
    snaps = isomono.snapshots_along(m, e.default_path.points, lam,
                                    z_seed=e.z_seed)
    T0 = T0_rows(m, snaps.values)
    assert np.array_equal(snaps.residues, -p6.projectors(T0, snaps.z) * lam)
    assert_projectors_match_frames(T0, snaps.z, lam)
    size = np.maximum(1, np.abs(snaps.E).max(axis=(1, 2, 3)))
    defect = np.abs(snaps.E.sum(axis=1) - np.eye(3)).max(axis=(1, 2))
    assert np.all(defect <= 2e-15 * size)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_projector_residues_match_lapack_frames_on_random_stacks(n):
    rng = np.random.default_rng(n)
    for scale in (1e-3, 1.0, 1e3):
        A = scale * (rng.normal(size=(200, n, n))
                     + 1j * rng.normal(size=(200, n, n)))
        lam = rng.normal(size=n) + 1j * rng.normal(size=n)
        assert_projectors_match_frames(A, np.linalg.eigvals(A), lam)
        # a common shift of the spectrum, far from the spread of the roots
        A = A + 30 * scale * np.eye(n)
        assert_projectors_match_frames(A, np.linalg.eigvals(A), lam)


def test_projector_error_tracks_lapack_frames_as_cond_grows():
    # T0 = P diag(z) P^{-1} with cond(P) up to 1e6: the error of the
    # projector residues against the exact -P[:, i] P^{-1}[i, :] diag(lam)
    # is at most twice that of LAPACK's frames, above a rounding floor of
    # 1e-14: forming T0 dominates both (about 1e-16 cond(P)^2); at
    # cond(P) = 1 both stay at rounding level, the projectors' 2 to 5
    # times the frames'
    rng = np.random.default_rng(5)
    count = 50
    for cond in (1.0, 1e2, 1e3, 1e4, 1e6):
        z = rng.normal(size=(count, 3)) + 1j * rng.normal(size=(count, 3))
        lam = rng.normal(size=3) + 1j * rng.normal(size=3)
        U, W = unitary_stack(rng, count), unitary_stack(rng, count)
        sv = np.logspace(0, -np.log10(cond), 3)
        P = (U * sv) @ W
        Pinv = (np.swapaxes(W.conj(), 1, 2) / sv) @ np.swapaxes(U.conj(), 1, 2)
        T0 = P @ (z[..., None] * Pinv)
        exact = -np.einsum("Nai,Nib->Niab", P, Pinv) * lam
        roots = np.linalg.eigvals(T0)
        _, V = lapack_in_order(T0, roots)
        scale = np.abs(exact).max()
        got = np.abs(-p6.projectors(T0, roots) * lam - exact).max() / scale
        ref = np.abs(-frame_projectors(V) * lam - exact).max() / scale
        assert got <= max(2 * ref, 1e-14), cond


def test_projectors_on_a_close_pair_against_mpmath():
    # on the pair stack (roots 10 ROOT_SEPARATION apart) both routes stand
    # about eps / gap from the projectors of the same float matrices taken
    # to 50 digits; the projectors' error is at most 4 times the frames'
    mp = pytest.importorskip("mpmath")
    T0 = ill_conditioned_stacks()[1]
    roots = np.linalg.eigvals(T0)
    _, V = lapack_in_order(T0, roots)
    ref = np.empty(T0.shape[:1] + (3, 3, 3), dtype=complex)
    with mp.workdps(50):
        for k, A in enumerate(T0):
            w, R = mp.eig(mp.matrix(A.tolist()))
            L = mp.inverse(R)
            for i, r in enumerate(roots[k]):
                j = int(np.argmin([abs(complex(x) - r) for x in w]))
                ref[k, i] = [[complex(R[a, j] * L[j, b]) for b in range(3)]
                             for a in range(3)]
    frames = np.abs(frame_projectors(V) - ref).max()
    assert 1e-10 < frames < 1e-6
    assert np.abs(p6.projectors(T0, roots) - ref).max() <= 4 * frames


def eigen_perturbation_tangent(m, snap, lam):
    """(dz, dB) of the residues -P E_i P^{-1} diag(lam) by first-order
    eigen-perturbation of a LAPACK frame P: with X = P^{-1} (dT0/dt_k) P,
    dz = diag X and dP = P Y, Y_ij = X_ij / (z_j - z_i) off the diagonal;
    then dB_i = -P [Y, E_i] P^{-1} diag(lam).  Along t_n, dz = -1 and
    dB = 0.  The formula that projector_tangent replaced, kept here as the
    reference."""
    n = m.n
    T0 = T0_rows(m, snap.values[None])
    P = lapack_in_order(T0, snap.z[None])[1][0]
    Pinv = np.linalg.inv(P)
    X = Pinv @ m.dT0_stack.eval_batch(snap.values[None])[..., 0] @ P
    gap = snap.z - snap.z[:, None]
    np.fill_diagonal(gap, 1)
    Y = X / gap * (1 - np.eye(n))
    PinvL = Pinv * np.array([complex(x) for x in lam])
    dB = np.zeros((n, n, n, n), dtype=complex)
    dB[:n - 1] = (np.einsum("kai,ib->kiab", -(P @ Y), PinvL)
                  + np.einsum("ai,kib->kiab", P, Y @ PinvL))
    dz = np.full((n, n), -1, dtype=complex)
    dz[:, :n - 1] = np.diagonal(X, axis1=1, axis2=2).T
    return dz, dB


@pytest.mark.parametrize("eid", catalog.catalog_list())
def test_projector_tangent_matches_eigen_perturbation(eid):
    e, m = entry_setup(eid)
    lam = p6.default_lambda(m.weights)
    pts = e.default_path.points
    snap = isomono.snapshots_along(m, [pts[len(pts) // 2]], lam,
                                   z_seed=e.z_seed)[0]
    dz, dB = p6.projector_tangent(m, snap, lam)
    want_dz, want_dB = eigen_perturbation_tangent(m, snap, lam)
    assert np.abs(dz - want_dz).max() <= 1e-12 * np.abs(want_dz).max()
    assert np.abs(dB - want_dB).max() <= 1e-12 * np.abs(want_dB).max()


@pytest.mark.parametrize("eid", catalog.catalog_list())
def test_one_evaluation_per_matrix(eid, monkeypatch):
    # a 401-point track is one lockstep pass and no bisection: Newton runs
    # once for z on an extension ring and once for the poles, all three
    # labels of every row, and T0 and h's coefficients are evaluated in one
    # call of their one stack over all points, not one per entry or per
    # matrix.  No eigensolver runs, and np.roots only on the first row.
    # projector_tangent evaluates both dT0 matrices in one call.  The only
    # other evaluations are the relation's: its coefficients in z once per
    # pass, and rel_z once inside a call whose stack divides by it
    from flatiso.numeric import _relation_forms
    e, m = entry_setup(eid)
    pts, z_seed = _path_401(e)
    calls, newton, roots = [], [], []
    stacked, newton_roots, np_roots = EvalStack.eval_batch, p6.newton_roots, np.roots

    def counting(self, values):
        calls.append((self, len(values)))
        return stacked(self, values)

    def counting_newton(coeffs, seed):
        newton.append(len(coeffs))
        return newton_roots(coeffs, seed)

    def counting_roots(p):
        roots.append(len(p) - 1)
        return np_roots(p)

    monkeypatch.setattr(EvalStack, "eval_batch", counting)
    monkeypatch.setattr(p6, "newton_roots", counting_newton)
    monkeypatch.setattr(np, "roots", counting_roots)
    lapack = count_lapack(monkeypatch)
    passes = count_calls(monkeypatch, "_pass")
    bisections = count_calls(monkeypatch, "_bisect")
    lam = p6.default_lambda(e.pvf.ring.weights)
    snaps = isomono.snapshots_along(m, pts, lam, z_seed=z_seed)
    assert len(passes) == 1 and bisections == []
    ext = m.ring.ext is not None
    slices, drel = _relation_forms(m.ring) if ext else (None, None)

    def then_rel_z(stack, count):
        return [(drel, count)] if stack._dden else []
    assert calls == ([(slices, 401)] if ext else []) + [
        (m.T0_h_stack, 401)] + then_rel_z(m.T0_h_stack, 401)
    assert newton == ([] if m.ring.ext is None else [401]) + [3 * 401]
    assert roots == [3] and lapack == []
    calls.clear()
    p6.projector_tangent(m, snaps[200], lam)
    assert calls == [(m.dT0_stack, 1)] + then_rel_z(m.dT0_stack, 1)
