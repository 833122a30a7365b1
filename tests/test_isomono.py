import json
import re

import numpy as np
import pytest

from flatiso import catalog, cli, isomono as iso, p6
from flatiso.errors import (BlowUp, DegenerateTheta, EigenvalueCollision,
                            InputError, InsufficientSamples, PoleAtY,
                            PoleOnPath, RankViolation, ResonantLambda,
                            RootCollision, StepUnderflow)
from flatiso.flatcore import build_saito_matrices
from flatiso.isomono import (integrate_p6_hamiltonian, jm_residues,
                             monodromy_on_loop, schlesinger_residual,
                             snapshots_along)


def entry_setup(eid):
    e = catalog.catalog_get(eid)
    return e, build_saito_matrices(e.pvf)


def snapshot_at(m, point, lam, **kwargs):
    """The residue snapshot at one point, from a one-point path."""
    return snapshots_along(m, [point], lam, **kwargs)[0]


# ---------------------------------------------------------------------------
# residue decomposition
# ---------------------------------------------------------------------------

def test_residue_rank_one_n1():
    from flatiso.ring import Ring
    from flatiso.flatcore import PotentialVF
    ring = Ring(["1"])
    m = PotentialVF(ring=ring, g=[ring.var(0) ** 2 / 2])    # C = (t1)
    snap = snapshot_at(m, (0.3,), [0.4])
    assert abs(snap.residues[0][0, 0] + 0.4) < 1e-14
    assert abs(snap.traces[0] + 0.4) < 1e-14


def test_residue_sum_and_rank_catalog():
    rng = np.random.default_rng(2)
    for eid in ("LT8", "H3", "LT26"):
        e, m = entry_setup(eid)
        lam = p6.default_lambda(e.pvf.ring.weights)
        for _ in range(5):
            pt = (1.0, 0.45 + 0.1 * rng.random())
            snap = snapshot_at(m, pt, lam)
            total = sum(snap.residues) + np.diag(snap.Binf)
            assert np.abs(total).max() < 1e-12
            for b in snap.residues:
                s = np.linalg.svd(b, compute_uv=False)
                assert s[1] < 1e-9 * max(1.0, s[0])


def test_missing_seed_is_an_input_error():
    # the extension ring cannot start tracking z without a seed; that is
    # bad input, not an eigenvalue collision
    e, m = entry_setup("LT14")
    with pytest.raises(ValueError, match="z seed"):
        snapshot_at(m, e.default_path.points[0],
                    p6.default_lambda(e.pvf.ring.weights))


# ---------------------------------------------------------------------------
# monodromy loops
# ---------------------------------------------------------------------------

def one_pole_snapshot(B):
    """An n = 2 snapshot whose connection is B / z: one pole at 0."""
    B = np.asarray(B, dtype=complex)
    return iso.OkuboNumeric(Binf=np.zeros(2), values=None, z=np.array([0j]),
                            T0=np.zeros((2, 2)), E=np.eye(2)[None],
                            residues=B[None], traces=np.array([np.trace(B)]))


def counted_connection(monkeypatch):
    """Patch okubo_z_system to record how many points each call evaluates."""
    points = []
    connection = iso.okubo_z_system

    def counted(snapshot):
        A = connection(snapshot)
        return lambda z: points.append(np.size(z)) or A(z)

    monkeypatch.setattr(iso, "okubo_z_system", counted)
    return points


def test_one_pole_loop_is_exp_of_the_residue():
    # B nilpotent: exp(2 pi i B) = I + 2 pi i B exactly
    B = np.array([[0, 1], [0, 0]])
    M = monodromy_on_loop(one_pole_snapshot(B), center=0.0, radius=1.0)
    assert np.abs(M - (np.eye(2) + 2j * np.pi * B)).max() < 1e-14
    b = np.array([0.3, -0.7 + 0.2j])
    M = monodromy_on_loop(one_pole_snapshot(np.diag(b)), center=0.1, radius=0.5)
    assert np.abs(M - np.diag(np.exp(2j * np.pi * b))).max() < 1e-12


def test_trivial_loop_monodromy():
    e, m = entry_setup("LT8")
    snap = snapshot_at(m, (1.0, 0.5),
                       p6.default_lambda(e.pvf.ring.weights))
    center = snap.z.real.max() + 9.0
    M = monodromy_on_loop(snap, center=center, radius=0.5)
    assert np.abs(M - np.eye(3)).max() < 1e-8


def test_loop_monodromy_matches_local_exponents():
    e, m = entry_setup("LT8")
    snap = snapshot_at(m, (1.0, 0.5),
                       p6.default_lambda(e.pvf.ring.weights))
    rad = 0.25 * min(abs(snap.z[0] - snap.z[1]), abs(snap.z[0] - snap.z[2]))
    M = monodromy_on_loop(snap, center=snap.z[0], radius=rad)
    got = np.sort(np.abs(np.linalg.eigvals(M)))
    expected = np.sort(np.abs(np.exp(2j * np.pi
                                     * np.linalg.eigvals(snap.residues[0]))))
    assert np.abs(got - expected).max() < 1e-6


def test_loop_closes_without_endpoint_sliver():
    # the summed steps of this loop land about 1.7e-14 short of 2 pi, a sliver
    # no step-doubling test can accept; the last step must absorb it
    from scipy.optimize import linear_sum_assignment
    e, m = entry_setup("H3")
    snap = snapshot_at(m, e.default_path.points[0],
                       p6.default_lambda(e.pvf.ring.weights))
    near = min(abs(snap.z[0] - z) for z in snap.z[1:])
    M = monodromy_on_loop(snap, center=snap.z[0], radius=0.15 * near)
    got = np.linalg.eigvals(M)
    want = np.exp(2j * np.pi * np.linalg.eigvals(snap.residues[0]))
    cost = np.abs(got[:, None] - want[None, :])
    rows, cols = linear_sum_assignment(cost)
    assert cost[rows, cols].max() < 1e-8


def test_loop_connection_evaluations(monkeypatch):
    e, m = entry_setup("LT8")
    snap = snapshot_at(m, (1.0, 0.5),
                       p6.default_lambda(e.pvf.ring.weights))
    rad = 0.25 * min(abs(snap.z[0] - snap.z[1]), abs(snap.z[0] - snap.z[2]))
    points = counted_connection(monkeypatch)
    monodromy_on_loop(snap, center=snap.z[0], radius=rad)
    assert sum(points) <= 500


@pytest.mark.parametrize("eid", catalog.catalog_list())
def test_loop_monodromy_every_root(eid):
    from scipy.optimize import linear_sum_assignment
    e, m = entry_setup(eid)
    snap = snapshot_at(m, e.default_path.points[0],
                       p6.default_lambda(e.pvf.ring.weights),
                       z_seed=e.z_seed)
    for r, zr in enumerate(snap.z):
        near = min(abs(zr - z) for k, z in enumerate(snap.z) if k != r)
        want = np.exp(2j * np.pi * np.linalg.eigvals(snap.residues[r]))
        for frac in (0.15, 0.35):
            M = monodromy_on_loop(snap, center=zr, radius=frac * near)
            cost = np.abs(np.linalg.eigvals(M)[:, None] - want[None, :])
            rows, cols = linear_sum_assignment(cost)
            assert cost[rows, cols].max() < 1e-8, (r, frac)


def test_loop_through_a_root_is_pole_on_path(monkeypatch):
    # the circle |z - (z_1 + r)| = r passes through the root z_1
    e, m = entry_setup("LT8")
    snap = snapshot_at(m, (1.0, 0.5),
                       p6.default_lambda(e.pvf.ring.weights))
    rad = 0.25 * min(abs(snap.z[0] - snap.z[1]), abs(snap.z[0] - snap.z[2]))
    points = counted_connection(monkeypatch)
    with pytest.raises(PoleOnPath):
        monodromy_on_loop(snap, center=snap.z[0] + rad, radius=rad)
    assert points == []


def test_loop_near_a_root_stops_within_budget(monkeypatch):
    # 1e-9 r from a root the step count the gap asks for passes the budget
    import time
    e, m = entry_setup("LT8")
    snap = snapshot_at(m, (1.0, 0.5),
                       p6.default_lambda(e.pvf.ring.weights))
    rad = 0.25 * min(abs(snap.z[0] - snap.z[1]), abs(snap.z[0] - snap.z[2]))
    points = counted_connection(monkeypatch)
    start = time.perf_counter()
    with pytest.raises(StepUnderflow, match="connection evaluations"):
        monodromy_on_loop(snap, center=snap.z[0] + rad * (1 + 1e-9),
                          radius=rad)
    assert time.perf_counter() - start < 0.5
    assert sum(points) <= iso.MAX_CONNECTION_EVALS


@pytest.mark.parametrize("center, radius", [
    (complex("nan"), 0.1), (complex("inf"), 0.1), (1 + 1j * np.nan, 0.1),
    (0.0, float("nan")), (0.0, float("inf")), (0.0, -0.1), (0.0, 0.0),
    (0.0, 0.5 + 0j), (0.0, np.complex128(0.5)),
    (None, 0.1), ("0", 0.1), ([0.0], 0.1), (np.array([0.0, 1.0]), 0.1),
    (True, 0.1), (0.0, True)])
def test_loop_input_is_checked_before_any_evaluation(monkeypatch, center,
                                                     radius):
    # a negative radius would run the loop from the opposite base point; a
    # complex one, even with a zero imaginary part, is not a radius; a
    # center that is not a number, a list or a vector included, and a bool
    # for either are refused too
    points = counted_connection(monkeypatch)
    with pytest.raises(InputError, match="finite"):
        monodromy_on_loop(one_pole_snapshot(np.eye(2)), center=center,
                          radius=radius)
    assert points == []


def lt8_loop():
    """(snapshot, center, radius) of a loop around LT8's first root."""
    e, m = entry_setup("LT8")
    snap = snapshot_at(m, (1.0, 0.5), p6.default_lambda(e.pvf.ring.weights))
    rad = 0.25 * min(abs(snap.z[0] - snap.z[1]), abs(snap.z[0] - snap.z[2]))
    return snap, snap.z[0], rad


def test_first_two_levels_are_one_evaluation(monkeypatch):
    # N0 and 2 N0 steps from one call of the connection on 12 N0 points,
    # each later doubling from a call of its own
    snap, center, rad = lt8_loop()
    gap = np.abs(np.abs(snap.z - center) - rad).min()
    n0 = max(16, int(np.ceil(2 * np.pi * rad / gap)))
    points = counted_connection(monkeypatch)
    monodromy_on_loop(snap, center=center, radius=rad)
    assert points == [12 * n0] + [4 * n0 * 2 ** k
                                  for k in range(2, len(points) + 1)]


def test_levels_from_one_call_match_one_call_each():
    snap, center, rad = lt8_loop()
    A = iso.okubo_z_system(snap)
    for n0 in (16, 37):
        both, F = iso._loop_propagators(A, center, rad, [n0, 2 * n0])
        one, _ = iso._loop_propagators(A, center, rad, [n0])
        two, F2 = iso._loop_propagators(A, center, rad, [2 * n0])
        assert np.array_equal(both[0], one[0])
        assert np.array_equal(both[1], two[0])
        assert np.array_equal(F, F2)


def stage_value_propagators(A, center, radius, N):
    """The step propagators of the collocation solved step by step for the
    stage values: Y_j = I + h sum_l a_jl F_l Y_l, Phi = I + h sum_j b_j F_j
    Y_j, with F = A dz/dtheta at the Gauss-Legendre nodes."""
    a, b, c, h = iso._GL_A, iso._GL_B, iso._GL_C, 2 * np.pi / N
    e = np.exp(1j * h * (np.arange(N)[:, None] + c)).ravel()
    F = A(center + radius * e) * (1j * radius * e)[:, None, None]
    n, out = F.shape[-1], []
    for Fs in F.reshape(N, 4, n, n):
        L = np.eye(4 * n) - h * np.block([[a[j, l] * Fs[l] for l in range(4)]
                                          for j in range(4)])
        Y = np.linalg.solve(L, np.tile(np.eye(n), (4, 1))).reshape(4, n, n)
        out.append(np.eye(n) + h * sum(b[j] * Fs[j] @ Y[j] for j in range(4)))
    return np.array(out)


@pytest.mark.parametrize("eid", catalog.catalog_list())
def test_stage_derivatives_match_stage_values(eid):
    e, m = entry_setup(eid)
    snap = snapshot_at(m, e.default_path.points[0],
                       p6.default_lambda(e.pvf.ring.weights),
                       z_seed=e.z_seed)
    A = iso.okubo_z_system(snap)
    for r, zr in enumerate(snap.z):
        rad = 0.25 * min(abs(zr - z) for k, z in enumerate(snap.z) if k != r)
        got, _ = iso._loop_propagators(A, zr, rad, [16, 32])
        for N, Phi in zip((16, 32), got):
            want = stage_value_propagators(A, zr, rad, N)
            assert np.abs(Phi - want).max() <= 1e-14 * np.abs(want).max()


def test_cli_and_a_loop_leave_scipy_out(src_env):
    # scipy is a development dependency only: the CLI and the loop run
    # without it
    import subprocess
    import sys
    probe = ("import sys, numpy as np, flatiso.cli\n"
             "from flatiso import isomono as iso\n"
             "B = np.array([[0.3, 1], [0, -0.2]], dtype=complex)\n"
             "snap = iso.OkuboNumeric(Binf=np.zeros(2), values=None, "
             "z=np.array([0j]), T0=np.zeros((2, 2)), E=np.eye(2)[None], "
             "residues=B[None], traces=np.zeros(1))\n"
             "iso.monodromy_on_loop(snap, center=0.0, radius=1.0)\n"
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True, env=src_env)
    assert out.stdout.strip() == "[]"


def per_point_snapshots(m, path, lam, z_seed):
    """(roots, residues, traces) point by point: T0 and its roots one point
    at a time, continued from the point before, one np.linalg.eig per point
    with the columns of its frame P put in the order of the roots (the
    nearest eigenvalue), and -P E_i P^{-1} Binf as matrix products."""
    sampler = p6.StructureSampler(m, z_seed=z_seed)
    Lam = np.diag([complex(x) for x in lam])
    out = []
    for tp in path:
        _, (roots,), (T0,) = sampler.track([tp])
        w, V = np.linalg.eig(T0)
        P = V[:, np.abs(w[None] - roots[:, None]).argmin(axis=1)]
        res = []
        for i in range(m.n):
            E = np.zeros((m.n, m.n))
            E[i, i] = 1.0
            res.append(-P @ E @ np.linalg.inv(P) @ Lam)
        out.append((roots, res, np.array([np.trace(b) for b in res])))
    return out


@pytest.mark.parametrize("eid", catalog.catalog_list())
def test_snapshots_along_matches_per_point(eid):
    e, m = entry_setup(eid)
    lam = p6.default_lambda(e.pvf.ring.weights)
    path = e.default_path.points
    snaps = snapshots_along(m, path, lam, z_seed=e.z_seed)
    ref = per_point_snapshots(m, path, lam, e.z_seed)
    # one record with a leading point axis
    n = m.n
    assert len(snaps) == len(ref) == len(path)
    assert snaps.residues.shape == (len(path), n, n, n)
    assert snaps.traces.shape == (len(path), n)
    assert snaps.values.shape[0] == snaps.z.shape[0] == snaps.E.shape[0]
    for snap, (roots, res, traces) in zip(snaps, ref):
        assert np.abs(snap.z - roots).max() <= 1e-12 * max(1.0, np.abs(roots).max())
        assert max(np.abs(a - b).max() for a, b in zip(snap.residues, res)) <= 1e-12
        assert np.abs(snap.traces - traces).max() <= 1e-12
    # a point is that row of every stack; a slice is a sub-path
    k = len(path) // 2
    snap = snaps[k]
    for name in ("values", "z", "E", "residues", "traces"):
        assert np.array_equal(getattr(snap, name), getattr(snaps, name)[k])
    assert snap.Binf is snaps.Binf
    half = snaps[::2]
    assert len(half) == (len(path) + 1) // 2
    assert np.array_equal(half.residues, snaps.residues[::2])
    assert [s.z[0] for s in half] == list(snaps.z[::2, 0])
    # a point snapshot is what a loop reads
    far = np.abs(snap.z[1:] - snap.z[0]).min()
    M = monodromy_on_loop(snap, center=snap.z[0], radius=far / 4)
    want = np.exp(2j * np.pi * np.linalg.eigvals(snap.residues[0]))
    assert np.abs(np.sort_complex(np.linalg.eigvals(M))
                  - np.sort_complex(want)).max() < 1e-6
    # the Schlesinger residual reads the stacks as they are
    assert (schlesinger_residual(snaps)
            == iso.stacked_schlesinger_residual(
                snaps.z, snaps.residues, p6.path_parameter(snaps.values)))


def test_path_into_root_collision_raises():
    # LT8 at t' = 0 has T0 = 0: all three roots meet at the last point
    e, m = entry_setup("LT8")
    path = [(1.0 - s, 0.4 * (1.0 - s)) for s in np.linspace(0, 1, 9)]
    with pytest.raises(EigenvalueCollision, match="path point 8"):
        snapshots_along(m, path, p6.default_lambda(e.pvf.ring.weights))


def test_resonance_guard_reaches_every_integer():
    # lambda_1 - lambda_3 = 12 + 1e-7 lies within TRACE_GUARD of 12: a
    # resonance of the Okubo eigenvalues, with no root involved
    e, m = entry_setup("LT8")
    with pytest.raises(ResonantLambda, match="of the integer 12$") as hit:
        snapshots_along(m, e.default_path.points, (12 + 1e-7, 0.5, 0.0))
    assert not isinstance(hit.value, RootCollision)
    assert iso._integer_gap(np.array([0, 11 + 1e-7, 0.3])) == (
        f"lambda_1 - lambda_2 within {iso.TRACE_GUARD} of the integer -11")
    assert iso._integer_gap(np.array([12.5, 0, 0.3])) is None


def test_trace_near_one_is_named_at_its_point():
    # residues summing to -diag(lam) at three points; the trace of the
    # first is 1 + 5e-7, within TRACE_GUARD of 1, at the middle point only
    lam = np.array([0.5, 0.25])
    x = np.array([0.3, 1 + 5e-7, 0.3])
    residues = np.zeros((3, 2, 2, 2))
    residues[:, 0, 0, 0], residues[:, 0, 0, 1] = x, 0.2
    residues[:, 1] = -np.diag(lam) - residues[:, 0]
    points = [(1.0, 0.4), (1.0, 0.5), (1.0, 0.6)]
    with pytest.raises(RankViolation, match=re.escape(
            f"trace r_1 within {iso.TRACE_GUARD} of +-1 at {points[1]}")):
        iso._check_residues(lam, residues, points)
    traces = iso._check_residues(lam, residues[::2], points[::2])
    assert traces.tolist() == np.trace(residues[::2], axis1=2,
                                       axis2=3).tolist()


def test_residues_at_another_lambda_are_checked():
    # okubo_residues forms -E_i diag(lam) of projectors summing to I and
    # checks them as a snapshot's: at lam = (0.5, 0.25) the trace of the
    # first residue is 1 + 5e-7, within TRACE_GUARD of 1, at the second
    # point only; at lam = (0.5, 0.75) no trace is near +-1
    x = np.array([-0.6, -2 * (1.1 + 5e-7), -0.6])
    E = np.zeros((3, 2, 2, 2))
    E[:, 0, 0, 0], E[:, 0, 0, 1], E[:, 0, 1, 1] = x, 0.2, 0.4
    E[:, 1] = np.eye(2) - E[:, 0]
    points = [(1.0, 0.4), (1.0, 0.5), (1.0, 0.6)]
    with pytest.raises(RankViolation, match=re.escape(
            f"trace r_1 within {iso.TRACE_GUARD} of +-1 at {points[1]}")):
        iso.okubo_residues(E, (0.5, 0.25), points)
    lam, residues, traces = iso.okubo_residues(E, (0.5, 0.75), points)
    assert lam.tolist() == [0.5, 0.75]
    assert residues.tolist() == (-E * lam).tolist()
    assert np.allclose(traces, [[0, -1.25], [0.8, -2.05], [0, -1.25]])


def test_midconv_block_checks_the_residues_at_the_weights(monkeypatch):
    # midconv_block runs the snapshot checks at the lift's target lam = w
    # on the snapshot's own projectors, naming the middle point: a guard
    # wide enough to catch every trace stops it there
    e, m = entry_setup("LT8")
    snaps = catalog.path_snapshots(m, e.default_path.points, e.z_seed)
    mid = len(snaps) // 2
    monkeypatch.setattr(iso, "TRACE_GUARD", 10.0)
    with pytest.raises(RankViolation, match=re.escape(
            f"of +-1 at {e.default_path.points[mid]}")):
        catalog.midconv_block(m, snaps[mid])


def test_corrupted_residue_sum_raises(monkeypatch):
    e, m = entry_setup("LT8")
    path = e.default_path.points[:10]
    real = iso.projectors

    def corrupted(T0, z):
        E = real(T0, z)
        E[6, 0, 0, 0] += 1e-6
        return E

    monkeypatch.setattr(iso, "projectors", corrupted)
    with pytest.raises(RankViolation,
                       match=re.escape(f"sum to -Binf at {path[6]}")):
        snapshots_along(m, path, p6.default_lambda(e.pvf.ring.weights))


# ---------------------------------------------------------------------------
# Schlesinger
# ---------------------------------------------------------------------------

def stencil_d1(vals, k, h):
    """The five-point first difference at point k, one point at a time."""
    a, b, _, d, e = (vals[k + j] for j in (-2, -1, 0, 1, 2))
    return (-e + 8 * d - 8 * b + a) / (12 * h)


def test_schlesinger_defects_match_per_point_loop():
    e, m = entry_setup("LT27")
    lam = p6.default_lambda(e.pvf.ring.weights)
    snaps = snapshots_along(m, e.default_path.points, lam, z_seed=e.z_seed)
    zs, Bs = snaps.z, snaps.residues
    svals = p6.path_parameter(snaps.values)
    h = svals[1] - svals[0]
    got = iso.schlesinger_defects(zs, Bs, svals)
    assert got.shape == (len(snaps) - 4, 3, 3, 3)
    for k in range(2, len(zs) - 2):
        zdot = stencil_d1(zs, k, h)
        for i in range(3):
            rhs = 0
            for j in range(3):
                if j != i:
                    com = Bs[k][j] @ Bs[k][i] - Bs[k][i] @ Bs[k][j]
                    rhs = rhs + com * (zdot[i] - zdot[j]) / (zs[k][i] - zs[k][j])
            dBi = stencil_d1([B[i] for B in Bs], k, h)
            want = dBi - rhs
            assert np.abs(got[k - 2, i] - want).max() <= 1e-12 * max(
                1.0, np.abs(dBi).max())


@pytest.mark.parametrize("shape", [(401, 3, 3, 3), (401, 3, 2, 2),
                                   (101, 4, 4, 4)])
def test_schlesinger_defects_match_pairwise_commutators(shape):
    # sum_j w_ji [B_j, B_i] formed pair by pair, against [C_i, B_i]
    rng = np.random.default_rng(sum(shape))
    N, n, m, _ = shape
    zs = rng.normal(size=(N, n)) + 1j * rng.normal(size=(N, n)) + 3 * np.arange(n)
    Bs = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    h = 0.01
    got = iso.schlesinger_defects(zs, Bs, h * np.arange(N))
    zdot = np.array([stencil_d1(zs, k, h) for k in range(2, N - 2)])
    dB = np.array([stencil_d1(Bs, k, h) for k in range(2, N - 2)])
    z, B = zs[2:-2], Bs[2:-2]
    prod = B[:, :, None] @ B[:, None, :]
    com = prod - np.swapaxes(prod, 1, 2)
    dzdot = zdot[:, None, :] - zdot[:, :, None]
    dz = z[:, None, :] - z[:, :, None] + np.eye(n)
    want = dB - (com * dzdot[..., None, None] / dz[..., None, None]).sum(axis=1)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_schlesinger_constant_family():
    e, m = entry_setup("LT8")
    snap = snapshots_along(m, [(1.0, 0.5)],
                           p6.default_lambda(e.pvf.ring.weights))
    assert schlesinger_residual(snap[[0] * 7], svals=np.arange(7)) < 1e-12


def test_schlesinger_catalog_path():
    e, m = entry_setup("LT8")
    lam = p6.default_lambda(e.pvf.ring.weights)
    snaps = snapshots_along(m, e.default_path.points, lam)
    res = schlesinger_residual(snaps)
    assert res < 1e-6


def test_schlesinger_frozen_family_fails():
    e, m = entry_setup("LT8")
    lam = p6.default_lambda(e.pvf.ring.weights)
    snaps = snapshots_along(m, e.default_path.points, lam)
    frozen = snaps.residues.copy()
    frozen[:, 0] = frozen[0, 0]
    assert iso.stacked_schlesinger_residual(
        snaps.z, frozen, p6.path_parameter(snaps.values)) > 1e-3


def test_schlesinger_needs_samples_and_tracking():
    e, m = entry_setup("LT8")
    snaps = snapshots_along(m, e.default_path.points[:4],
                            p6.default_lambda(e.pvf.ring.weights))
    with pytest.raises(InsufficientSamples):
        schlesinger_residual(snaps)


# ---------------------------------------------------------------------------
# Jimbo-Miwa
# ---------------------------------------------------------------------------

def admissible(seed):
    rng = np.random.default_rng(seed)
    th = tuple(rng.normal(0, 0.35, 3) + 1j * rng.normal(0, 0.1, 3))
    k2 = rng.normal(0, 0.35) + 1j * rng.normal(0, 0.1)
    k1 = -(k2 + sum(th))
    return th, (k1, k2)


def test_jm_residues_one_point_identities():
    th, kp = admissible(0)
    t, y, k = 2.2, 2.1 + 0.4j, 1.3
    poles, residues = jm_residues([t], [y], [0.3 + 0.1j], [k], th, kp)
    assert np.array_equal(poles, [[0, 1, t]])
    A0, A1, At = residues[0]
    for A, theta in zip((A0, A1, At), th):
        assert abs(np.trace(A) - theta) < 1e-12
        assert abs(np.linalg.det(A)) < 1e-12          # rank one
    Ainf = -(A0 + A1 + At)
    assert max(abs(Ainf[0, 1]), abs(Ainf[1, 0])) < 1e-10
    assert abs(Ainf[0, 0] - kp[0]) < 1e-8 and abs(Ainf[1, 1] - kp[1]) < 1e-8
    # the (1,2)-entry numerator is k (x - y): vanishes at x = y
    val = (A0[0, 1] / y + A1[0, 1] / (y - 1)
           + At[0, 1] / (y - t)) * y * (y - 1) * (y - t)
    assert abs(val) < 1e-9 * max(1.0, abs(k))


def test_jm_residues_one_point_guards():
    th, kp = admissible(1)
    with pytest.raises(PoleAtY):
        jm_residues([2.2], [2.2], [0.1], [1.0], th, kp)
    with pytest.raises(DegenerateTheta):                       # sum != 0
        jm_residues([2.0], [2.1], [0.1], [1.0], (0.1, 0.2, 0.3), (0.5, 0.5))
    s = sum((0.1, 0.2, 0.3))
    with pytest.raises(DegenerateTheta):
        jm_residues([2.0], [2.1], [0.1], [1.0], (0.1, 0.2, 0.3),
                    (-s / 2, -s / 2))
    # kappa_2 = 0 and ztilde = sum theta_i / (y - x_i) exactly (0.25 + 0.5
    # - 0.25 at y = 2, t = 4) make every z_i exactly zero
    with pytest.raises(DegenerateTheta, match="z0 vanishes at point 0"):
        jm_residues([4.0], [2.0], [0.5], [1.0], (0.5, 0.5, 0.5), (-1.5, 0.0))


def test_hamiltonian_flow_pvi_and_schlesinger():
    th, kp = admissible(3)
    ts, ys, zs, ks = integrate_p6_hamiltonian(th, kp, (2.1 + 0.4j, 0.3 + 0.1j, 1.0),
                                              2.0, 2.4, steps=400)
    params = p6.P6Params.from_thetas(th[0], th[1], th[2], kp[0] - kp[1])
    h = ts[1] - ts[0]
    worst = 0.0
    for k in range(2, len(ts) - 2):
        y5 = ys[k - 2:k + 3]
        dy = (-y5[4] + 8 * y5[3] - 8 * y5[1] + y5[0]) / (12 * h)
        d2y = (-y5[4] + 16 * y5[3] - 30 * y5[2] + 16 * y5[1] - y5[0]) / (12 * h * h)
        worst = max(worst, abs(d2y - p6.pvi_rhs(ts[k], ys[k], dy, params)))
    assert worst < 1e-6
    poles, residues = jm_residues(ts, ys, zs, ks, th, kp)
    assert iso.stacked_schlesinger_residual(poles, residues, svals=ts) < 1e-6


def test_hamiltonian_k_constant_when_thetainf_is_one():
    # theta_inf = 1 makes d log k / dt vanish identically
    th = (0.2, -0.3, 0.25)
    s = sum(th)
    k1 = (1 - s) / 2
    k2 = k1 - 1
    assert abs((k1 - k2) - 1) < 1e-15 and abs(k1 + k2 + s) < 1e-15
    ts, ys, zs, ks = integrate_p6_hamiltonian(th, (k1, k2),
                                              (2.1 + 0.3j, 0.2, 1.7), 2.0, 2.3,
                                              steps=200)
    assert np.abs(ks - ks[0]).max() < 1e-12


def test_isomonodromy_traces_constant():
    e, m = entry_setup("LT27")
    lam = p6.default_lambda(e.pvf.ring.weights)
    snaps = snapshots_along(m, e.default_path.points, lam, z_seed=e.z_seed)
    assert np.abs(snaps.traces - snaps.traces[0]).max() < 1e-8


def test_trajectory_reports(tmp_path):
    th, kp = admissible(5)
    ts, ys, zs, ks = integrate_p6_hamiltonian(th, kp, (2.1 + 0.4j, 0.2, 1.0),
                                              2.0, 2.1, steps=20)
    csv = iso.trajectory_to_csv(ts, ys, zs, ks)
    lines = csv.splitlines()
    assert lines[0] == "t,y_re,y_im,ztilde_re,ztilde_im,k_re,k_im"
    assert len(lines) == 22
    # jm-roundtrip reports the final system from the last row of the
    # residues it checked, every number a complex [re, im] pair
    out = tmp_path / "jm.json"
    assert cli.main(["jm-roundtrip", "--steps", "20", "--json", str(out)]) == 0
    blob = json.loads(out.read_text())["final_system"]
    assert set(blob) == {"A0", "A1", "At", "thetas", "kappas", "t", "y",
                         "ztilde", "k"}
    th, kp, init = jm_problem()
    ts, ys, zs, ks = integrate_p6_hamiltonian(th, kp, init, 2.0, 2.4, steps=20)
    _, residues = jm_residues(ts, ys, zs, ks, th, kp)
    pairs = np.stack([residues[-1, 0].real, residues[-1, 0].imag], axis=-1)
    assert blob["A0"] == pairs.tolist()
    assert blob["t"] == [ts[-1], 0.0]
    assert blob["k"] == [ks[-1].real, ks[-1].imag]


def test_trajectory_csv_matches_per_row_formatting():
    # one % pass over the flattened array writes what per-row f-strings
    # write, signed zeros, 1e-300 and 1e8 included
    th, kp = admissible(5)
    traj = integrate_p6_hamiltonian(th, kp, (2.1 + 0.4j, 0.2, 1.0), 2.0, 2.1,
                                    steps=20)
    odd = (np.array([-0.0, 1e-300, 1e8]),
           np.array([complex(-0.0, 1e-300), 1e8 - 0.0j, 2 / 3 - 1e8j]),
           np.array([complex(1e-300, -0.0), -1e8 + 1e-300j, -0.0j]),
           np.array([1 + 0j, complex(-0.0, -0.0), -1e-300 + 1e8j]))
    for ts, ys, zs, ks in (traj, odd):
        lines = ["t,y_re,y_im,ztilde_re,ztilde_im,k_re,k_im"]
        for t, y, z, k in zip(*(np.asarray(a).tolist()
                                for a in (ts, ys, zs, ks))):
            lines.append(f"{t:.16g},{y.real:.16g},{y.imag:.16g},"
                         f"{z.real:.16g},{z.imag:.16g},{k.real:.16g},"
                         f"{k.imag:.16g}")
        assert iso.trajectory_to_csv(ts, ys, zs, ks) == "\n".join(lines) + "\n"


def test_hamiltonian_step_underflow(monkeypatch):
    from flatiso.errors import StepUnderflow
    th, kp = admissible(9)
    monkeypatch.setattr(iso, "HAMILTONIAN_TOL", 1e-30)
    with pytest.raises(StepUnderflow):
        integrate_p6_hamiltonian(th, kp, (2.1 + 0.4j, 0.3, 1.0), 2.0, 2.1,
                                 steps=10)


def jm_problem(seed=cli.DEFAULT_SEED):
    """The thetas, kappas and initial data of jm-roundtrip at a seed, by
    default its default seed."""
    rng = np.random.default_rng(seed)
    th = tuple(rng.normal(0, 0.35, 3) + 1j * rng.normal(0, 0.1, 3))
    k2 = rng.normal(0, 0.35) + 1j * rng.normal(0, 0.1)
    k1 = -(k2 + sum(th))
    init = (2.1 + 0.4j + 0.2 * rng.normal(), 0.3 + 0.1j + 0.1 * rng.normal(),
            1.0)
    return th, (k1, k2), init


def assert_matches_dop853(th, kp, init, trajectory):
    """The grid of integrate_p6_hamiltonian against scipy's DOP853 at
    rtol = atol = 1e-13, within 1e-11."""
    from scipy.integrate import solve_ivp
    ts, ys, zs, ks = trajectory

    def rhs(t, s):
        return np.array(iso.p6_hamiltonian_rhs(t, s[0], s[1], th, kp))

    ref = solve_ivp(rhs, (ts[0], ts[-1]), np.array([init[0], init[1], 0j]),
                    method="DOP853", rtol=1e-13, atol=1e-13, t_eval=ts)
    assert ref.status == 0
    assert np.abs(ref.y[0] - ys).max() < 1e-11
    assert np.abs(ref.y[1] - zs).max() < 1e-11
    assert np.abs(np.exp(ref.y[2]) - ks).max() < 1e-11


def test_hamiltonian_grid_matches_dop853_reference():
    th, kp, init = jm_problem()
    assert_matches_dop853(th, kp, init, integrate_p6_hamiltonian(
        th, kp, init, 2.0, 2.4, steps=400))


def counted_rhs(monkeypatch):
    """The times of every p6_hamiltonian_rhs call from here on."""
    calls = []
    rhs = iso.p6_hamiltonian_rhs

    def counted(*args):
        calls.append(args[0])
        return rhs(*args)

    monkeypatch.setattr(iso, "p6_hamiltonian_rhs", counted)
    return calls


def dop853_attempts(calls):
    """(t, h, accepted) of every step attempt, read from the times of its
    evaluations: 11 at t + c_i h for the nodes c_1..c_11 of DOP853_C and,
    when the step is accepted, 4 more at c_12..c_15 (t + h and the three
    dense-output nodes)."""
    c = np.array(iso.DOP853_C)
    attempts, k = [], 1
    while k < len(calls):
        s = np.array(calls[k:k + 11])
        h = (s[10] - s[0]) / (c[11] - c[1])
        t = s[10] - h
        assert np.abs(s - (t + c[1:12] * h)).max() < 1e-12
        more = np.array(calls[k + 11:k + 15])
        accepted = (len(more) == 4
                    and np.abs(more - (t + c[12:] * h)).max() < 1e-12)
        attempts.append((t, h, accepted))
        k += 15 if accepted else 11
    return attempts


def test_hamiltonian_evaluation_count(monkeypatch):
    # an attempt evaluates stages 2-12; an accepted step also f(t + h, new
    # state), the next step's first stage, and the 3 dense-output stages;
    # the grid costs no evaluation, so every steps makes the same calls
    th, kp, init = jm_problem()
    calls = counted_rhs(monkeypatch)
    runs = []
    for steps in (4, 400, 10_000):
        del calls[:]
        integrate_p6_hamiltonian(th, kp, init, 2.0, 2.4, steps=steps)
        attempts = dop853_attempts(calls)
        accepted = sum(ok for _, _, ok in attempts)
        assert attempts[-1][2]
        assert len(calls) == 1 + 11 * len(attempts) + 4 * accepted
        runs.append(list(calls))
    assert runs[0] == runs[1] == runs[2]
    assert len(runs[0]) < 400


def assert_dop853_control(attempts, t0, t1):
    """The step control seen in attempts: the first step tries [t0, t1]; a
    rejected step retries from the same t with h shrunk by a factor in
    [0.2, 0.9) and no new first stage; the step accepted right after a
    rejection does not let h grow; the last step ends at t1.  Returns the
    number of steps whose growth that rule capped (h_next == h)."""
    t, h, ok = attempts[0]
    assert abs(t - t0) < 1e-12 and abs(h - (t1 - t0)) < 1e-12
    for (t, h, ok), (t_next, h_next, _) in zip(attempts, attempts[1:]):
        if ok:
            assert abs(t_next - (t + h)) < 1e-12
        else:
            assert abs(t_next - t) < 1e-12
            assert 0.2 * h * (1 - 1e-9) <= h_next < 0.9 * h
    capped = 0
    for (_, _, ok0), (_, h, ok), (_, h_next, _) in zip(
            attempts, attempts[1:], attempts[2:]):
        if ok and not ok0:
            assert h_next <= h * (1 + 1e-9)
            capped += abs(h_next - h) <= 1e-9 * h
    t, h, ok = attempts[-1]
    assert ok and abs(t + h - t1) < 1e-12
    return capped


def test_hamiltonian_rejected_step_keeps_its_first_stage(monkeypatch):
    # the first step tries the whole interval, too long for HAMILTONIAN_TOL,
    # so steps are rejected; each attempt costs 11 evaluations all the same
    th, kp, init = jm_problem()
    calls = counted_rhs(monkeypatch)
    trajectory = integrate_p6_hamiltonian(th, kp, init, 2.0, 2.4, steps=40)
    assert calls[0] == 2.0
    attempts = dop853_attempts(calls)
    assert not attempts[0][2]
    assert_dop853_control(attempts, 2.0, 2.4)
    accepted = sum(ok for _, _, ok in attempts)
    rejected = len(attempts) - accepted
    assert rejected > 0 and accepted > 1
    assert len(calls) == 1 + 11 * (accepted + rejected) + 4 * accepted
    monkeypatch.undo()
    assert_matches_dop853(th, kp, init, trajectory)
    # y'' = -100 y: right after its rejections the error estimate would let
    # h grow, and the rule caps it
    monkeypatch.setattr(iso, "p6_hamiltonian_rhs",
                        lambda t, y, z, *args: (z, -100 * y, 0j))
    calls = counted_rhs(monkeypatch)
    _, ys, _, _ = integrate_p6_hamiltonian(th, kp, (1.0, 1.0, 1.0), 2.0, 2.4,
                                           steps=40)
    assert assert_dop853_control(dop853_attempts(calls), 2.0, 2.4) > 0
    s = np.linspace(0, 0.4, 41)
    assert np.abs(ys - np.cos(10 * s) - np.sin(10 * s) / 10).max() < 1e-12


def test_dop853_tableau():
    assert len(iso.DOP853_A) == len(iso.DOP853_C) == 16
    assert all(len(row) == i for i, row in enumerate(iso.DOP853_A))
    a = np.zeros((16, 16))
    for i, row in enumerate(iso.DOP853_A):
        a[i, :i] = row
    assert np.abs(a.sum(axis=1) - iso.DOP853_C).max() < 1e-15
    a, b = a[:12, :12], a[12, :12]

    def trees(order):
        """Rooted trees with order nodes, a tree the sorted tuple of its
        subtrees."""
        if order == 1:
            return {()}

        def grafts(t):
            yield tuple(sorted(t + ((),)))
            for k, sub in enumerate(t):
                for g in grafts(sub):
                    yield tuple(sorted(t[:k] + (g,) + t[k + 1:]))
        return {g for t in trees(order - 1) for g in grafts(t)}

    def size(t):
        return 1 + sum(map(size, t))

    def weights(t):
        """(Phi_i(t) over the stages, the density gamma(t)) of Butcher's
        order conditions sum_i b_i Phi_i(t) = 1 / gamma(t)."""
        phi, gamma = np.ones(12), size(t)
        for sub in t:
            sphi, sgamma = weights(sub)
            phi, gamma = phi * (a @ sphi), gamma * sgamma
        return phi, gamma

    def defect(order):
        return max(abs(gamma * (b @ phi) - 1)
                   for phi, gamma in map(weights, trees(order)))

    assert [len(trees(q)) for q in range(1, 9)] == [1, 1, 2, 4, 9, 20, 48,
                                                    115]
    assert max(map(defect, range(1, 9))) < 1e-12           # order 8
    assert defect(9) > 1e-3                                 # and not 9


def test_dop853_tableau_is_scipys():
    coefficients = pytest.importorskip(
        "scipy.integrate._ivp.dop853_coefficients")
    a = np.zeros((16, 16))
    for i, row in enumerate(iso.DOP853_A):
        a[i, :i] = row
    assert np.array_equal(a, coefficients.A)
    assert np.array_equal(iso.DOP853_A[12], coefficients.B)
    for name in ("C", "E5", "E3", "D"):
        assert np.array_equal(getattr(iso, "DOP853_" + name),
                              getattr(coefficients, name)), name


def test_hamiltonian_pole_guard():
    th, kp = admissible(3)
    with pytest.raises(BlowUp, match="pole"):
        integrate_p6_hamiltonian(th, kp, (2.0 + 1e-10, 0.3, 1.0), 2.0, 2.4,
                                 steps=40)


def test_hamiltonian_blowup_bound(monkeypatch):
    # ztilde = exp(60 (t - 2)) passes 1e8 at t = 2.307, between grid points
    # 2.30 and 2.31, and stays finite
    th, kp = admissible(3)
    monkeypatch.setattr(iso, "p6_hamiltonian_rhs",
                        lambda t, y, z, *args: (0j, 60 * z, 0j))
    with pytest.raises(BlowUp, match=r"blew up at t = 2\.31"):
        integrate_p6_hamiltonian(th, kp, (5.0, 1.0, 1.0), 2.0, 2.4, steps=40)


def test_hamiltonian_finite_time_blowup():
    # a PVI pole: y(2) = 1e4 runs off to infinity within the first interval
    th, kp = admissible(3)
    with pytest.raises(BlowUp, match="blew up"):
        integrate_p6_hamiltonian(th, kp, (1e4, 0.0, 1.0), 2.0, 2.4, steps=40)


def test_hamiltonian_nan_state_is_a_blowup(monkeypatch):
    th, kp = admissible(3)
    monkeypatch.setattr(iso, "p6_hamiltonian_rhs",
                        lambda *args: (complex("nan"), 0j, 0j))
    with pytest.raises(BlowUp, match="blew up"):
        integrate_p6_hamiltonian(th, kp, (2.1 + 0.4j, 0.3, 1.0), 2.0, 2.4,
                                 steps=40)


def test_hamiltonian_nan_at_a_zero_weight_stage_is_a_blowup(monkeypatch):
    # stage 2 has weight 0 in b, E5 and E3, so the combinations skip it: a
    # NaN there reaches the new state only through the stages that read it
    assert iso.DOP853_A[12][1] == iso.DOP853_E5[1] == iso.DOP853_E3[1] == 0
    th, kp = admissible(3)
    rhs, calls = iso.p6_hamiltonian_rhs, []

    def nan_at_stage_2(*args):
        calls.append(args[0])
        return (complex("nan"),) * 3 if len(calls) == 2 else rhs(*args)

    monkeypatch.setattr(iso, "p6_hamiltonian_rhs", nan_at_stage_2)
    with pytest.raises(BlowUp, match="blew up"):
        integrate_p6_hamiltonian(th, kp, (2.1 + 0.4j, 0.3, 1.0), 2.0, 2.4,
                                 steps=40)
    # the first stage and the 11 of the first attempt, which fails
    assert abs(calls[1] - (2.0 + iso.DOP853_C[1] * 0.4)) < 1e-12
    assert len(calls) == 12


def test_hamiltonian_nan_log_k_is_a_blowup(monkeypatch):
    # a NaN in the log k rate leaves y and ztilde finite, and the max-norm
    # of the error estimate can pass over it: the NaN log k must still fail
    th, kp = admissible(3)
    monkeypatch.setattr(iso, "p6_hamiltonian_rhs",
                        lambda *args: (0j, 0j, complex("nan")))
    with pytest.raises(BlowUp, match="blew up"):
        integrate_p6_hamiltonian(th, kp, (2.1 + 0.4j, 0.3, 1.0), 2.0, 2.4,
                                 steps=40)


def jm_reference(y, ztilde, k, thetas, kappas, t):
    """(A_0, A_1, A_t) by the scalar Jimbo-Miwa formulas in Python complex
    arithmetic, independent of the stacked numpy pass."""
    return np.array(jm_formula(
        complex(y), complex(ztilde), complex(k),
        [complex(x) for x in thetas], [complex(x) for x in kappas], complex(t)))


def jm_formula(y, ztilde, k, thetas, kappas, t):
    """(A_0, A_1, A_t) as nested lists by the scalar Jimbo-Miwa formulas,
    in the arithmetic of the arguments (Python complex or mpmath mpc)."""
    th0, th1, tht = thetas
    k1, k2 = kappas
    thinf = k1 - k2
    zz = ztilde - th0 / y - th1 / (y - 1) - tht / (y - t)
    quad = y * (y - 1) * (y - t) * zz * zz
    z0 = (y / (t * thinf)) * (
        quad + (th1 * (y - t) + t * tht * (y - 1)
                - 2 * k2 * (y - 1) * (y - t)) * zz
        + k2 * k2 * (y - t - 1) - k2 * (th1 + t * tht))
    z1 = (-(y - 1) / ((t - 1) * thinf)) * (
        quad + ((th1 + thinf) * (y - t) + t * tht * (y - 1)
                - 2 * k2 * (y - 1) * (y - t)) * zz
        + k2 * k2 * (y - t) - k2 * (th1 + t * tht) - k1 * k2)
    zt = ((y - t) / (t * (t - 1) * thinf)) * (
        quad + (th1 * (y - t) + t * (tht + thinf) * (y - 1)
                - 2 * k2 * (y - 1) * (y - t)) * zz
        + k2 * k2 * (y - 1) - k2 * (th1 + t * tht) - t * k1 * k2)
    u = k * y / (t * z0)
    v = -k * (y - 1) / ((t - 1) * z1)
    w = k * (y - t) / (t * (t - 1) * zt)
    return [[[zi + thi, -ui * zi], [(zi + thi) / ui, -zi]]
            for zi, thi, ui in ((z0, th0, u), (z1, th1, v), (zt, tht, w))]


@pytest.fixture(scope="module")
def jm_trajectory():
    th, kp, init = jm_problem()
    return th, kp, integrate_p6_hamiltonian(th, kp, init, 2.0, 2.4, steps=100)


def test_jm_residues_match_per_point_build(jm_trajectory):
    th, kp, (ts, ys, zs, ks) = jm_trajectory
    poles, residues = jm_residues(ts, ys, zs, ks, th, kp)
    assert poles.shape == (len(ts), 3) and residues.shape == (len(ts), 3, 2, 2)
    assert np.array_equal(poles, np.column_stack([0 * ts, 0 * ts + 1, ts]))
    for k in range(len(ts)):
        ref = jm_reference(ys[k], zs[k], ks[k], th, kp, ts[k])
        built = jm_residues([ts[k]], [ys[k]], [zs[k]], [ks[k]], th, kp)[1][0]
        scale = max(1.0, np.abs(ref).max())
        assert np.abs(residues[k] - ref).max() < 1e-13 * scale
        assert np.abs(built - ref).max() < 1e-13 * scale


def test_jm_residues_name_the_point_on_a_pole(jm_trajectory):
    th, kp, (ts, ys, zs, ks) = jm_trajectory
    ys = ys.copy()
    ys[37] = ts[37]
    with pytest.raises(PoleAtY, match=r"\(point 37\)"):
        jm_residues(ts, ys, zs, ks, th, kp)


def test_jm_residues_refuse_vanishing_theta_inf(jm_trajectory):
    _, _, (ts, ys, zs, ks) = jm_trajectory
    s = sum((0.1, 0.2, 0.3))
    with pytest.raises(DegenerateTheta, match="theta_inf"):
        jm_residues(ts, ys, zs, ks, (0.1, 0.2, 0.3), (-s / 2, -s / 2))


def jm_identity_defects(A, thetas, kappas):
    """The defects of tr A_i = theta_i, of the A_inf off-diagonal and of
    diag A_inf = (kappa_1, kappa_2), A_inf = -(A_0 + A_1 + A_t), each
    relative to max|A_i|; A is (A_0, A_1, A_t) as nested lists."""
    scale = max(abs(x) for Ai in A for row in Ai for x in row)
    Ainf = [[-sum(Ai[a][b] for Ai in A) for b in range(2)] for a in range(2)]
    trace = max(abs(Ai[0][0] + Ai[1][1] - th) for Ai, th in zip(A, thetas))
    off = max(abs(Ainf[0][1]), abs(Ainf[1][0]))
    diag = max(abs(Ainf[0][0] - kappas[0]), abs(Ainf[1][1] - kappas[1]))
    return trace / scale, off / scale, diag / scale


def test_jm_identities_hold_at_sixty_digits():
    # tr A_i = theta_i and A_inf = diag(kappa_1, kappa_2) are identities of
    # the parametrization once kappa_1 + kappa_2 + sum theta = 0: at 60
    # digits they hold far below rounding, on random draws and at the first
    # point of jm-roundtrip --seed 573351091, whose |theta_inf| of 6.2e-4
    # takes the residues to 1.45e6
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(51)

    def normal():
        return complex(rng.normal(0, 0.5), rng.normal(0, 0.5))
    draws = [(tuple(normal() for _ in range(3)), normal(), 2 + normal(),
              2 + normal(), normal(), 1 + normal()) for _ in range(40)]
    th, (_, k2), (y, z, k) = jm_problem(573351091)
    draws.append((th, k2, 2.0, y, z, k))
    with mp.workdps(60):
        for th, k2, t, y, z, k in draws:
            th = [mp.mpc(x) for x in th]
            k2 = mp.mpc(k2)
            kp = (-(k2 + sum(th)), k2)
            A = jm_formula(mp.mpc(y), mp.mpc(z), mp.mpc(k), th, kp, mp.mpc(t))
            assert max(jm_identity_defects(A, th, kp)) < 1e-40


@pytest.mark.parametrize("seed", [11, 573351091])
def test_jm_residues_meet_the_identities_to_rounding(seed):
    # in double precision the identities hold to rounding of max|A_i| on
    # every row: seed 573351091's off-diagonal of 1.1e-9 at its first row
    # is 7.6e-16 of its residues' scale of 1.45e6
    th, kp, init = jm_problem(seed)
    ts, ys, zs, ks = integrate_p6_hamiltonian(th, kp, init, 2.0, 2.4)
    _, residues = jm_residues(ts, ys, zs, ks, th, kp)
    for A in residues:
        assert max(jm_identity_defects(A, th, kp)) < 1e-13


def test_jm_pencil_matches_the_three_formulas():
    # jm_residues forms z_i and u_i of the poles (0, 1, t) by one
    # expression; jm_formula keeps the three it replaced, here run on the
    # stacked trajectories of jm-roundtrip seeds 0-19 (400 steps), within
    # 1e-15 of each point's max|A_i|
    for seed in range(20):
        th, kp, init = jm_problem(seed)
        ts, ys, zs, ks = integrate_p6_hamiltonian(th, kp, init, 2.0, 2.4)
        _, residues = jm_residues(ts, ys, zs, ks, th, kp)
        three = np.moveaxis(np.array(jm_formula(ys, zs, ks, th, kp, ts)), -1, 0)
        scale = np.abs(three).max(axis=(1, 2, 3))
        assert np.all(np.abs(residues - three).max(axis=(1, 2, 3))
                      <= 1e-15 * scale), seed


def test_jm_residues_name_a_point_whose_residue_is_not_finite(jm_trajectory):
    th, kp, (ts, ys, zs, ks) = jm_trajectory
    ks = ks.copy()
    ks[37] = np.inf
    with pytest.raises(BlowUp, match=r"not finite at t = .*\(point 37\)"):
        jm_residues(ts, ys, zs, ks, th, kp)
