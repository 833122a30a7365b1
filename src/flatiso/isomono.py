"""Numeric Okubo/Pfaffian machinery.

Residue decomposition of the z-equation along a path, as one OkuboNumeric
record stacked on a point axis (a point of it is the snapshot there): the
residues -E_i Binf come from the spectral projectors E_i of T0, which
p6.projectors forms from the tracked roots and T0, with no eigenvector and
no matrix inverse.  Then monodromy around a circle by batched
Gauss-Legendre collocation (solved for the stage derivatives, the first two
step-doubling levels formed in one pass) with a Liouville determinant
guard, Schlesinger residuals along isomonodromic families read straight off
the record's stacks, and the 2x2 Jimbo-Miwa parametrization linking
Schlesinger flow to the PVI Hamiltonian system, integrated by DOP853.
"""

from __future__ import annotations

from dataclasses import dataclass
import math
import numbers
from operator import itemgetter, mul

import numpy as np

from .catalog import TOLERANCES
from .errors import (BlowUp, DegenerateTheta, InputError, PoleAtY,
                     PoleOnPath, RankViolation, ResonantLambda, StepUnderflow)
from .flatcore import SaitoMatrices
from .p6 import (StructureSampler, _raise_first, five_point, path_parameter,
                 projectors)

TRACE_GUARD = 1e-6
# monodromy_on_loop's agreement bound, well above the product's rounding
# floor (about 1e-15), below which step doubling cannot converge
LOOP_TOL = 1e-10
# integrate_p6_hamiltonian's bound on DOP853's error estimate of one step,
# scaled by max(1, |state|).  Over jm-roundtrip seeds 0-99 at 400 steps,
# 1e-13 leaves grid errors up to 1.3e-12, and 1e-12 takes the worst PVI
# residual from 2.1e-9 to 1.8e-8.
HAMILTONIAN_TOL = 1e-14


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass
class OkuboNumeric:
    """Residue snapshots of an Okubo system along a path, stacked on a
    leading point axis.  Indexing by a point gives that point's snapshot,
    the same fields without the point axis; indexing by a slice gives a
    sub-path."""

    Binf: np.ndarray                  # diagonal entries, one for all points
    values: np.ndarray                # tracked (z, t_1, ..., t_n) rows
    z: np.ndarray                     # eigenvalues of T0, tracked order
    T0: np.ndarray                    # (N, n, n) T0 at the tracked rows
    E: np.ndarray                     # (N, n, n, n) spectral projectors of T0
    residues: np.ndarray              # (N, n, n, n), in the order of z
    traces: np.ndarray                # (N, n)

    def __len__(self):
        return len(self.z)

    def __getitem__(self, k):
        return OkuboNumeric(self.Binf, self.values[k], self.z[k], self.T0[k],
                            self.E[k], self.residues[k], self.traces[k])


def _check_residues(lam, residues, traces, points):
    """The snapshot checks on stacked residues (N, n, n, n) and traces (N, n).

    Residues sum to -Binf within catalog.TOLERANCES["residue_identities"],
    no trace lies within TRACE_GUARD of +-1 and no lambda_i - lambda_j is
    near an integer.  Raises for the first failing point, named from points.
    The rank is not checked: a residue -E_i Binf is rank one up to rounding
    (its second singular value is at most 3.3e-16 of the first on the
    default paths, pinned in tests/test_midconv.py, and grows with the
    condition of the eigenvectors of T0), and neither the Schlesinger check
    nor the loops assume rank one.  midconv, which does, tests the rank
    first (condition D3 of RankOneSystem, by its SVD).
    """
    lam = np.asarray(lam)
    n = residues.shape[1]
    total = residues.sum(axis=1) + np.diag(lam)
    near = np.minimum(np.abs(traces - 1), np.abs(traces + 1)) < TRACE_GUARD
    tol = TOLERANCES["residue_identities"]
    checks = [(np.abs(total).max(axis=(1, 2)) > tol, lambda k:
               RankViolation(f"residues do not sum to -Binf at {points[k]}"))]
    checks += [(near[:, i], lambda k, i=i: RankViolation(
        f"trace r_{i+1} within {TRACE_GUARD} of +-1 at {points[k]}"))
               for i in range(n)]
    resonant = _integer_gap(lam)
    if resonant is not None:
        checks.append((np.ones(len(residues), dtype=bool),
                       lambda k: ResonantLambda(resonant)))
    _raise_first(checks)


def _integer_gap(lam):
    """Message for the first lambda_i - lambda_j within TRACE_GUARD of an
    integer, or None.  Only the integer nearest to the gap can be that
    close, so it is the one tested."""
    for i in range(len(lam)):
        for j in range(i + 1, len(lam)):
            d = complex(lam[i] - lam[j])
            mm = round(d.real)
            if abs(d - mm) < TRACE_GUARD:
                return (f"lambda_{i+1} - lambda_{j+1} within {TRACE_GUARD} "
                        f"of the integer {mm}")
    return None


# ---------------------------------------------------------------------------
# residue decomposition
# ---------------------------------------------------------------------------

def snapshots_along(m: SaitoMatrices, path, lam, z_seed=None) -> OkuboNumeric:
    """Residue snapshots along a path from one batched, continuation-ordered
    pass (StructureSampler.track on a fresh sampler), checked as one stack.

    Point k holds the residues B_i = -E_i Binf of the Okubo z-equation at
    path point k, E_i the spectral projectors of T0 there (p6.projectors,
    from the tracked roots and T0), with the tracked row, roots, T0 and
    projectors they were read from.
    """
    values, roots, T0 = StructureSampler(m, z_seed=z_seed).track(path)
    lamv = np.array([complex(x) for x in lam])
    E = projectors(T0, roots)
    res = -E * lamv
    traces = np.trace(res, axis1=2, axis2=3)
    _check_residues(lamv, res, traces, path)
    return OkuboNumeric(lamv, values, roots, T0, E, res, traces)


# ---------------------------------------------------------------------------
# monodromy loops (batched Gauss-Legendre collocation with a Liouville guard)
# ---------------------------------------------------------------------------

# Connection evaluations (points z) one loop may make.  A loop around a root
# of a catalog snapshot needs a few hundred; a root close to the circle
# needs a step count that this caps.
MAX_CONNECTION_EVALS = 10_000


def _gauss_legendre4():
    """(a, b, c) of the 4-stage Gauss-Legendre collocation method on [0, 1]:
    nodes c, weights b and a_ij = int_0^{c_i} l_j, l_j the Lagrange basis
    on c (Hairer-Norsett-Wanner, Solving ODEs I, II.7)."""
    p, q = np.sqrt(3 / 7 + np.array([2, -2]) / 7 * np.sqrt(6 / 5))
    c = (1 + np.array([-p, -q, q, p])) / 2
    b = (18 + np.array([-1, 1, 1, -1]) * np.sqrt(30)) / 72
    a = np.empty((4, 4))
    x = c[:, None] * c                    # [i, m]: the nodes scaled to [0, c_i]
    for j in range(4):
        others = np.delete(c, j)
        lj = np.prod((x[..., None] - others) / (c[j] - others), axis=-1)
        a[:, j] = c * (lj @ b)            # the nodes integrate a cubic exactly
    return a, b, c


_GL_A, _GL_B, _GL_C = _gauss_legendre4()


def okubo_z_system(snapshot: OkuboNumeric):
    """A(z) = sum_i residue_i / (z - z_i) as a callable on an array of k
    z-values, returning (k, n, n) from one (k, n) @ (n, n^2) product."""
    poles = np.asarray(snapshot.z, dtype=complex)
    R = np.asarray(snapshot.residues, dtype=complex)
    n = R.shape[-1]
    R = R.reshape(len(poles), n * n)

    def A(zval):
        w = 1 / (np.asarray(zval, dtype=complex).reshape(-1, 1) - poles)
        return (w @ R).reshape(-1, n, n)
    return A


def _ordered_product(P):
    """P[N-1] @ ... @ P[1] @ P[0] by a pairwise tree of batched matmuls."""
    while len(P) > 1:
        odd = len(P) % 2
        head = P[1::2] @ P[0:len(P) - odd:2]
        P = np.concatenate([head, P[-1:]]) if odd else head
    return P[0]


def _loop_propagators(A, center, radius, Ns):
    """The step propagators of every level N in Ns (N uniform steps in
    theta on the circle), a list of (N, n, n) stacks, and F = A dz/dtheta
    at the nodes of the last level, (N, 4, n, n).

    All levels come from one evaluation of A at their 4 sum(Ns)
    Gauss-Legendre nodes and one batched np.linalg.solve.  The collocation
    is solved for the stage derivatives K_j = F_j Y_j of the propagator
    from Y0 = I: K_j - h sum_l a_jl F_j K_l = F_j, one (4n, 4n) system per
    step with the F_j stacked on the right, and Phi = I + h sum_j b_j K_j.
    """
    k = np.concatenate([np.arange(N) for N in Ns])
    h = np.repeat(2 * np.pi / np.array(Ns), Ns)                    # (S,)
    e = np.exp(1j * h[:, None] * (k[:, None] + _GL_C))             # (S, 4)
    F = A(center + radius * e.ravel())
    S, n = len(k), F.shape[-1]
    F = F.reshape(S, 4, n, n) * (1j * radius * e)[..., None, None]
    # [s, j, a, l, b]: block (j, l) of step s is delta_jl I - h a_jl F_j,
    # the identity added on the diagonal of each (4n, 4n) matrix
    hA = h[:, None, None] * -_GL_A
    L = hA[:, :, None, :, None] * F[:, :, :, None, :]
    L = L.reshape(S, 4 * n, 4 * n)
    L.reshape(S, -1)[:, ::4 * n + 1] += 1
    K = np.linalg.solve(L, F.reshape(S, 4 * n, n)).reshape(S, 4, n * n)
    Phi = np.eye(n) + ((h[:, None] * _GL_B)[:, None] @ K).reshape(S, n, n)
    ends = np.cumsum(Ns)
    return [Phi[e - N:e] for N, e in zip(Ns, ends)], F[-Ns[-1]:]


def monodromy_on_loop(snapshot: OkuboNumeric, center, radius):
    """Fundamental-solution monodromy around a circle |z - center| = radius.

    The circle is cut into N uniform steps in theta, each propagated by
    4-stage Gauss-Legendre collocation (order 8, solved for the stage
    derivatives by _loop_propagators), and the N propagators are
    multiplied in order.  N starts at N0, the larger of 16 and the count
    whose arc step is no longer than the gap from the circle to the
    nearest pole, and doubles until two successive monodromies agree
    within LOOP_TOL * max(1, |M|).  No level can be accepted alone, so N0
    and 2 N0 are formed in one call, and each later doubling in a call of
    its own.  det M is checked against exp(int tr A dz), taken once by the
    same quadrature on the accepted level, to a relative 1e-6.

    Raises InputError when the center is not a finite number or the
    radius is not a real number, finite and > 0 (a bool is neither), and
    PoleOnPath when a pole lies on the circle, both before any evaluation;
    StepUnderflow when the nodes would pass MAX_CONNECTION_EVALS (4N per
    level, counted before the level is formed) or the Liouville check fails.
    """
    if not (isinstance(center, numbers.Complex)
            and isinstance(radius, numbers.Real)
            and not isinstance(center, bool) and not isinstance(radius, bool)
            and np.isfinite(center) and np.isfinite(radius) and radius > 0):
        raise InputError(f"a loop needs a finite center and a real, finite "
                         f"radius > 0, got center {center} and radius {radius}")
    poles = np.asarray(snapshot.z, dtype=complex)
    gap = np.abs(np.abs(poles - center) - radius).min()
    # a pole within rounding of the circle is on it
    if gap <= 4 * np.finfo(float).eps * (abs(center) + radius):
        raise PoleOnPath(f"a pole lies on the circle |z - {center}| = {radius}")
    A = okubo_z_system(snapshot)
    N = max(16, int(np.ceil(2 * np.pi * radius / gap)))
    Ns, evals, M = [N, 2 * N], 0, None
    while True:
        for N in Ns:
            evals += 4 * N
            if evals > MAX_CONNECTION_EVALS:
                raise StepUnderflow(
                    f"{MAX_CONNECTION_EVALS} connection evaluations (the "
                    f"budget) do not reach {N} steps around the circle")
        Phis, F = _loop_propagators(A, center, radius, Ns)
        prev = M if len(Ns) == 1 else _ordered_product(Phis[0])
        M = _ordered_product(Phis[-1])
        if np.abs(M - prev).max() <= LOOP_TOL * max(1.0, np.abs(M).max()):
            break
        Ns = [2 * N]
    trace = 2 * np.pi / N * (np.trace(F, axis1=2, axis2=3) @ _GL_B).sum()
    det, target = np.linalg.det(M), np.exp(trace)
    if abs(det - target) > 1e-6 * max(1.0, abs(target)):
        raise StepUnderflow(
            f"Liouville check failed: det {det} vs exp(int tr) {target}")
    return M


# ---------------------------------------------------------------------------
# Schlesinger residual
# ---------------------------------------------------------------------------

def schlesinger_residual(snapshots: OkuboNumeric, svals=None) -> float:
    """Max defect of dB_i/ds = sum_j [B_j, B_i] (z_i' - z_j')/(z_i - z_j)
    over snapshots on a uniform grid of s: svals, by default the tracked
    rows' path parameter (p6.path_parameter)."""
    s = path_parameter(snapshots.values) if svals is None else svals
    return stacked_schlesinger_residual(snapshots.z, snapshots.residues, s)


def stacked_schlesinger_residual(zs, Bs, svals) -> float:
    """schlesinger_residual of stacked poles zs (N, n) and residues
    Bs (N, n, n, n) on the uniform grid svals."""
    return float(np.abs(schlesinger_defects(zs, Bs, svals)).max())


def schlesinger_defects(zs, Bs, svals):
    """dB_i/ds - sum_j [B_j, B_i] (z_i' - z_j')/(z_i - z_j) at interior points.

    zs (N, n) are the pole positions and Bs (N, n, n, n) the residues on the
    uniform grid svals.  Returns the (N - 4, n, n, n) defects at the
    interior points, where p6.five_point reaches; [k, i] is the defect of
    residue i.
    """
    _, z, zdot = five_point(svals, np.asarray(zs, dtype=complex))
    _, B, dB = five_point(svals, np.asarray(Bs, dtype=complex))
    n, m = B.shape[1], B.shape[-1]
    # z_i - z_j, with 1 on the diagonal, where z_i' - z_j' is exactly 0
    dz = z[:, None, :] - z[:, :, None] + np.eye(n)
    w = (zdot[:, None, :] - zdot[:, :, None]) / dz      # [k, j, i] = w_ji
    # sum_j w_ji [B_j, B_i] = [C_i, B_i] with C_i = sum_j w_ji B_j, formed
    # entry by entry as sums of elementwise products of (M, n) stacks: a
    # stack of tiny matmuls costs far more per matrix
    Bt = B.transpose(2, 3, 0, 1).copy()                 # [a, b, k, i]
    C = sum(w[:, j] * Bt[:, :, :, j, None] for j in range(n))
    comm = np.empty_like(Bt)
    for a in range(m):
        comm[a] = sum(C[a, c] * Bt[c] - Bt[a, c] * C[c] for c in range(m))
    return dB - comm.transpose(2, 3, 0, 1)


# ---------------------------------------------------------------------------
# Jimbo-Miwa 2x2 parametrization
# ---------------------------------------------------------------------------

def jm_residues(ts, ys, zs, ks, thetas, kappas):
    """(poles, residues) of a Jimbo-Miwa trajectory, stacked for
    stacked_schlesinger_residual: poles (N, 3) are (0, 1, t) and residues
    (N, 3, 2, 2) are (A_0, A_1, A_t) at every point, at [k, 0], [k, 1],
    [k, 2], assembled in one pass from the scalar data (t, y, ztilde, k).
    The one constructor of a Jimbo-Miwa system: a single point is a
    one-point trajectory.

    Requires kappa_1 + kappa_2 + theta_0 + theta_1 + theta_t = 0 and
    theta_inf = kappa_1 - kappa_2 != 0 (DegenerateTheta otherwise).  The
    guards on the points are array checks that name the first failing
    point: y on a pole 0, 1 or t (PoleAtY), a vanishing z_i
    (DegenerateTheta), then a residue that is not finite (BlowUp).  Only
    the inputs are checked: tr A_i = theta_i and A_inf = -(A_0 + A_1 + A_t)
    = diag(kappa_1, kappa_2) are identities of the parametrization, met to
    rounding, about 1e-16 of max|A_i| (pinned in tests/test_isomono.py).
    """
    th0, th1, tht = (complex(x) for x in thetas)
    k1, k2 = (complex(x) for x in kappas)
    if abs(k1 + k2 + th0 + th1 + tht) > 1e-12:
        raise DegenerateTheta("kappa_1 + kappa_2 + sum(theta) must vanish")
    thinf = k1 - k2
    if abs(thinf) < 1e-12:
        raise DegenerateTheta("theta_inf = kappa_1 - kappa_2 must not vanish")
    t, y, ztilde, k = (np.asarray(a, dtype=complex) for a in (ts, ys, zs, ks))
    with np.errstate(all="ignore"):
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
        residues = np.empty((len(t), 3, 2, 2), dtype=complex)
        for i, (zi, thi, ui) in enumerate(((z0, th0, u), (z1, th1, v),
                                           (zt, tht, w))):
            residues[:, i, 0, 0] = zi + thi
            residues[:, i, 0, 1] = -ui * zi
            residues[:, i, 1, 0] = (zi + thi) / ui
            residues[:, i, 1, 1] = -zi
    pole = np.minimum(np.minimum(np.abs(y), np.abs(y - 1)), np.abs(y - t))
    _raise_first([(pole < 1e-12, lambda i: PoleAtY(
        f"y = {y[i]} hits a pole for t = {t[i]} (point {i})"))]
        + [(np.abs(val) < 1e-300, lambda i, name=name: DegenerateTheta(
            f"{name} vanishes at point {i}; u,v,w are undefined"))
           for name, val in (("z0", z0), ("z1", z1), ("zt", zt))]
        + [(~np.isfinite(residues).all(axis=(1, 2, 3)), lambda i: BlowUp(
            f"a residue is not finite at t = {t[i]} (point {i})"))])
    return np.column_stack([np.zeros_like(t), np.ones_like(t), t]), residues


def hamiltonian_velocity(t, y, ztilde, thetas):
    """dy/dt = dH/dztilde of the PVI Hamiltonian system, scalar or stacked."""
    th0, th1, tht = thetas
    ym1, ymt = y - 1, y - t
    return (y * ym1 * ymt / (t * (t - 1))
            * (2 * ztilde - th0 / y - th1 / ym1 - (tht - 1) / ymt))


def p6_hamiltonian_rhs(t, y, ztilde, thetas, kappas):
    """(dy, dztilde, dlog k)/dt of the PVI Hamiltonian system.

    log k does not enter the right-hand side, so it is a quadrature along
    (y, ztilde).  Raises BlowUp when y is within 1e-9 of a pole 0, 1 or t.
    """
    th0, th1, tht = thetas
    k1, k2 = kappas
    ym1, ymt, tt = y - 1, y - t, t * (t - 1)
    if abs(y) < 1e-9 or abs(ym1) < 1e-9 or abs(ymt) < 1e-9:
        raise BlowUp(f"y too close to a pole at t = {t}")
    dy = hamiltonian_velocity(t, y, ztilde, thetas)
    dz = (1 / tt) * (
        (-3 * y * y + 2 * (1 + t) * y - t) * ztilde * ztilde
        + ((2 * y - 1 - t) * th0 + (2 * y - t) * th1
           + (2 * y - 1) * (tht - 1)) * ztilde
        - k1 * (k2 + 1))
    dlogk = (k1 - k2 - 1) * ymt / tt
    return dy, dz, dlogk


# DOP853 (Hairer-Norsett-Wanner, Solving ODEs I, II.10), as in scipy's
# dop853_coefficients: nodes C and the rows of a below the diagonal for the
# 12 stages, f(t + h, new state) (row 12 holds the order-8 weights b) and 3
# dense-output stages; error weights E5, E3 of the 5th- and 3rd-order
# estimates; rows D of the 7th-order dense output beyond its first three.
DOP853_C = (0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
            0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
            0.6512820512820513, 0.6, 0.8571428571428571, 1.0, 1.0, 0.1, 0.2,
            0.7777777777777778)
DOP853_A = (
    (),
    (0.05260015195876773,),
    (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0, 0.08876275643042054),
    (0.2413651341592667, 0, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0, 0, 0.17082860872947386, 0.12546768756682242),
    (0.037109375, 0, 0, 0.17025221101954405, 0.06021653898045596,
     -0.017578125),
    (0.03709200011850479, 0, 0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023),
    (0.6241109587160757, 0, 0, -3.3608926294469414, -0.868219346841726,
     27.59209969944671, 20.154067550477894, -43.48988418106996),
    (0.47766253643826434, 0, 0, -2.4881146199716677, -0.590290826836843,
     21.230051448181193, 15.279233632882423, -33.28821096898486,
     -0.020331201708508627),
    (-0.9371424300859873, 0, 0, 5.186372428844064, 1.0914373489967295,
     -8.149787010746927, -18.52006565999696, 22.739487099350505,
     2.4936055526796523, -3.0467644718982196),
    (2.273310147516538, 0, 0, -10.53449546673725, -2.0008720582248625,
     -17.9589318631188, 27.94888452941996, -2.8589982771350235,
     -8.87285693353063, 12.360567175794303, 0.6433927460157636),
    (0.054293734116568765, 0, 0, 0, 0, 4.450312892752409, 1.8915178993145003,
     -5.801203960010585, 0.3111643669578199, -0.1521609496625161,
     0.20136540080403034, 0.04471061572777259),
    (0.056167502283047954, 0, 0, 0, 0, 0, 0.25350021021662483,
     -0.2462390374708025, -0.12419142326381637, 0.15329179827876568,
     0.00820105229563469, 0.007567897660545699, -0.008298),
    (0.03183464816350214, 0, 0, 0, 0, 0.028300909672366776,
     0.053541988307438566, -0.05492374857139099, 0, 0,
     -0.00010834732869724932, 0.0003825710908356584, -0.00034046500868740456,
     0.1413124436746325),
    (-0.42889630158379194, 0, 0, 0, 0, -4.697621415361164, 7.683421196062599,
     4.06898981839711, 0.3567271874552811, 0, 0, 0, -0.0013990241651590145,
     2.9475147891527724, -9.15095847217987),)
DOP853_E5 = (0.01312004499419488, 0, 0, 0, 0, -1.2251564463762044,
             -0.4957589496572502, 1.6643771824549864, -0.35032884874997366,
             0.3341791187130175, 0.08192320648511571, -0.022355307863886294,
             0)
DOP853_E3 = (-0.18980075407240762, 0, 0, 0, 0, 4.450312892752409,
             1.8915178993145003, -5.801203960010585, -0.4226823213237919,
             -0.1521609496625161, 0.20136540080403034, 0.02265179219836082, 0)
DOP853_D = (
    (-8.428938276109013, 0, 0, 0, 0, 0.5667149535193777, -3.0689499459498917,
     2.38466765651207, 2.117034582445028, -0.871391583777973,
     2.2404374302607883, 0.6315787787694688, -0.08899033645133331,
     18.148505520854727, -9.194632392478356, -4.436036387594894),
    (10.427508642579134, 0, 0, 0, 0, 242.28349177525817, 165.20045171727028,
     -374.5467547226902, -22.113666853125306, 7.733432668472264,
     -30.674084731089398, -9.332130526430229, 15.697238121770845,
     -31.139403219565178, -9.35292435884448, 35.81684148639408),
    (19.985053242002433, 0, 0, 0, 0, -387.0373087493518, -189.17813819516758,
     527.8081592054236, -11.57390253995963, 6.8812326946963,
     -1.0006050966910838, 0.7777137798053443, -2.778205752353508,
     -60.19669523126412, 84.32040550667716, 11.99229113618279),
    (-25.69393346270375, 0, 0, 0, 0, -154.18974869023643, -231.5293791760455,
     357.6391179106141, 93.40532418362432, -37.45832313645163,
     104.0996495089623, 29.8402934266605, -43.53345659001114,
     96.32455395918828, -39.17726167561544, -149.72683625798564),)


def _nonzero(row):
    """(get, a) of a tableau row: its nonzero entries a, and get(X), the
    entries of the stage list X that they weight, as a sequence."""
    idx = [i for i, a in enumerate(row) if a]
    if len(idx) > 1:
        return itemgetter(*idx), tuple(row[i] for i in idx)
    # itemgetter of one index returns the bare item
    return (lambda X: [X[i] for i in idx]), tuple(row[i] for i in idx)


# the tableau as the steps combine it, over the nonzero entries of each row:
# (node, row) of every stage, the error weights (E5, E3) and the rows of D
_DOP853_STAGES = [(c, _nonzero(a)) for c, a in zip(DOP853_C, DOP853_A)]
_DOP853_E = (_nonzero(DOP853_E5), _nonzero(DOP853_E3))
_DOP853_D = [_nonzero(row) for row in DOP853_D]


def _stages(f, t, h, y, z, thetas, kappas, rows, P, Q, R):
    """Append the stages (node c, nonzero entries of its row) of rows,
    taken at the step (t, h) from the state (y, z), to the lists P, Q, R of
    dy, dztilde and dlog k."""
    for c, (get, a) in rows:
        p, q, r = f(t + c * h, y + h * sum(map(mul, a, get(P))),
                    z + h * sum(map(mul, a, get(Q))), thetas, kappas)
        P.append(p), Q.append(q), R.append(r)


def integrate_p6_hamiltonian(thetas, kappas, init, t0, t1, steps=400):
    """DOP853 trajectory of (y, ztilde, k) of the PVI Hamiltonian system.

    init = (y0, ztilde0, k0); returns (ts, ys, zs, ks) sampled on the uniform
    grid of steps + 1 points.  Eliminating ztilde, y(t) solves PVI with
    alpha = (theta_inf - 1)^2 / 2 etc.

    The steps are free of the grid, the first one the whole interval.  A
    step is accepted when DOP853's combined 5th/3rd-order error estimate, a
    max-norm over (y, ztilde, log k) scaled by max(1, |state|), is at most
    HAMILTONIAN_TOL; h then changes by 0.9 (HAMILTONIAN_TOL / err)^(1/8)
    clipped to [0.2, 10], with no growth right after a rejection.  An
    attempt evaluates p6_hamiltonian_rhs at stages 2-12, an accepted step
    also at t + h (the next step's first stage) and at the 3 dense-output
    stages: 1 + 11 (accepted + rejected) + 4 accepted evaluations, whatever
    steps is.  The grid is read from the 7th-order dense output of the
    accepted steps in one numpy pass; its first row is the initial state
    exactly.  The state is three Python complex scalars; log k is a
    quadrature, so the stages combine only y and ztilde.  Every
    combination runs over the nonzero entries of its tableau row only.

    Raises BlowUp when y comes within 1e-9 of a pole (the guard in
    p6_hamiltonian_rhs), or when |y| or |ztilde| passes 1e8 or the state
    (log k included) turns non-finite at a step, naming the first grid
    point at or after it; and StepUnderflow when a step would fall below
    1e-9.
    """
    f = p6_hamiltonian_rhs
    th = tuple(complex(x) for x in thetas)
    kp = tuple(complex(x) for x in kappas)
    y, z, k = (complex(x) for x in init)
    lk = complex(np.log(k))
    t0, t1 = float(t0), float(t1)
    ts = np.linspace(t0, t1, steps + 1)
    out = np.empty((steps + 1, 3), dtype=complex)
    out[:] = y, z, lk
    sign = 1.0 if t1 >= t0 else -1.0
    rows, E, D = _DOP853_STAGES, _DOP853_E, _DOP853_D
    gb, b = rows[12][1]                     # the order-8 weights

    tol = HAMILTONIAN_TOL
    min_step = 1e-9             # a step this short has underflowed
    t, h, rejected, accepted = t0, t1 - t0, False, []
    first = f(t0, y, z, th, kp)
    while t != t1:
        if abs(h) > abs(t1 - t) - min_step:
            h, tn = t1 - t, t1
        else:
            tn = t + h
        P, Q, R = ([x] for x in first)
        _stages(f, t, h, y, z, th, kp, rows[1:12], P, Q, R)
        yn = y + h * sum(map(mul, b, gb(P)))
        zn = z + h * sum(map(mul, b, gb(Q)))
        ln = lk + h * sum(map(mul, b, gb(R)))
        e5, e3 = (max(abs(sum(map(mul, e, g(X)))) for X in (P, Q, R))
                  for g, e in E)
        den = math.hypot(e5, 0.1 * e3)
        err = (abs(h) * e5 * (e5 / den) / max(1.0, abs(yn), abs(zn), abs(ln))
               if den else 0.0)
        factor = (min(10.0, max(0.2, 0.9 * (tol / err) ** 0.125)) if err
                  else 10.0)
        if err > tol:
            h *= factor
            if abs(h) < min_step:
                raise StepUnderflow(f"step underflow at t = {t}")
            rejected = True
            continue
        # written so that a NaN state fails too, log k included: a NaN
        # error estimate, which no rejection catches, comes only from a
        # non-finite stage, and every stage reaches the new state, one of
        # weight 0 in b through the later stages that read it
        if not (abs(yn) <= 1e8 and abs(zn) <= 1e8 and abs(ln) < math.inf):
            at = ts[min(np.searchsorted(sign * ts, sign * tn), steps)]
            raise BlowUp(f"trajectory blew up at t = {float(at)}")
        first = f(tn, yn, zn, th, kp)
        P.append(first[0]), Q.append(first[1]), R.append(first[2])
        _stages(f, t, h, y, z, th, kp, rows[13:], P, Q, R)
        F = [(d, h * X[0] - d, 2 * d - h * (X[0] + X[12]),
              *(h * sum(map(mul, w, g(X))) for g, w in D))
             for X, d in ((P, yn - y), (Q, zn - z), (R, ln - lk))]
        accepted.append((t, h, (y, z, lk), F))
        h *= min(1.0, factor) if rejected else factor
        t, y, z, lk, rejected = tn, yn, zn, ln, False
    if accepted:
        # dense output on the grid: the step i that each point falls in, and
        # y_old + x (F0 + (1 - x) (F1 + x (F2 + ...))) in Horner form
        starts, hs, Y0, F = (np.array(a) for a in zip(*accepted))
        i = np.searchsorted(sign * starts, sign * ts[1:]) - 1
        x = ((ts[1:] - starts[i]) / hs[i])[:, None]
        acc = 0
        for j in range(6, -1, -1):
            acc = (acc + F[i, :, j]) * (x if j % 2 == 0 else 1 - x)
        out[1:] = Y0[i] + acc
    return ts, out[:, 0], out[:, 1], np.exp(out[:, 2])


# ---------------------------------------------------------------------------
# report helpers
# ---------------------------------------------------------------------------

def trajectory_to_csv(ts, ys, zs, ks) -> str:
    """The trajectory as CSV, every number in %.16g, from one % pass."""
    rows = np.column_stack([np.real(ts)] + [part(a) for a in (ys, zs, ks)
                                             for part in (np.real, np.imag)])
    row = ",".join(["%.16g"] * 7) + "\n"
    return ("t,y_re,y_im,ztilde_re,ztilde_im,k_re,k_im\n"
            + row * len(rows) % tuple(rows.ravel().tolist()))

