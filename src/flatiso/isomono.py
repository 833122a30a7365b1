"""Numeric Okubo/Pfaffian machinery.

Residue decomposition of the z-equation, DOP853 integration of Pfaffian
systems with a Liouville determinant guard, Schlesinger residuals along
isomonodromic families, the Okubo normal form of a rank-one Fuchsian
system, and the 2x2 Jimbo-Miwa parametrization linking Schlesinger flow to
the PVI Hamiltonian system.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (BlowUp, DegenerateTheta, EigenvalueCollision,
                     FactorizationFailed, InsufficientSamples,
                     InverseMismatch, PoleAtY, RankViolation, RootCollision,
                     StepUnderflow, TrackingLost)
from .flatcore import SaitoMatrices
from .p6 import (StructureSampler, _cpair, _raise_first, _stencil_d1,
                 frames_along, residues_from_frame)

RESIDUE_TOL = 1e-10
RANK_TOL = 1e-9
TRACE_GUARD = 1e-6


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass
class PathSpec:
    points: list
    max_step: float = 0.05

    def __post_init__(self):
        pts = [tuple(complex(c) for c in p) for p in self.points]
        for a, b in zip(pts, pts[1:]):
            step = max(abs(x - y) for x, y in zip(a, b))
            if step > self.max_step + 1e-12:
                raise ValueError(f"path step {step} exceeds max_step {self.max_step}")
        self.points = pts


@dataclass
class OkuboNumeric:
    """Numeric snapshot of an Okubo system at a base point."""

    n: int
    point: tuple
    Binf: np.ndarray                  # diagonal entries
    z: np.ndarray                     # eigenvalues of T, tracked order
    P: np.ndarray                     # eigenvector matrix, columns follow z
    residues: Sequence[np.ndarray]    # n residue matrices, in the order of z
    traces: np.ndarray

    def validate(self, strict=True):
        _check_residues(self.Binf, np.asarray(self.residues)[None],
                       np.asarray(self.traces)[None], [self.point], strict)
        return self


def _check_residues(lam, residues, traces, points, strict=True):
    """The snapshot checks on stacked residues (N, n, n, n) and traces (N, n).

    Residues sum to -Binf, each has numerical rank one and (strict) no trace
    within TRACE_GUARD of +-1 and no lambda_i - lambda_j near an integer.
    Raises for the first failing point, named from points.
    """
    lam = np.asarray(lam)
    n = residues.shape[1]
    total = residues.sum(axis=1) + np.diag(lam)
    checks = [(np.abs(total).max(axis=(1, 2)) > RESIDUE_TOL, lambda k:
               RankViolation(f"residues do not sum to -Binf at {points[k]}"))]
    if n > 1:
        s = np.linalg.svd(residues, compute_uv=False)
        rank2 = s[..., 1] > RANK_TOL * np.maximum(s[..., 0], 1.0)
        checks += [(rank2[:, i], lambda k, i=i: RankViolation(
            f"residue {i+1} has numerical rank >= 2 at {points[k]}"))
                   for i in range(n)]
    if strict:
        near = np.minimum(np.abs(traces - 1), np.abs(traces + 1)) < TRACE_GUARD
        checks += [(near[:, i], lambda k, i=i: RankViolation(
            f"trace r_{i+1} within {TRACE_GUARD} of +-1 at {points[k]}"))
                   for i in range(n)]
        resonant = _integer_gap(lam)
        if resonant is not None:
            checks.append((np.ones(len(residues), dtype=bool),
                           lambda k: EigenvalueCollision(resonant)))
    _raise_first(checks)


def _integer_gap(lam):
    """Message for the first lambda_i - lambda_j within TRACE_GUARD of an
    integer in [-10, 10], or None."""
    for i in range(len(lam)):
        for j in range(i + 1, len(lam)):
            d = lam[i] - lam[j]
            for mm in range(-10, 11):
                if abs(d - mm) < TRACE_GUARD:
                    return (f"lambda_{i+1} - lambda_{j+1} within {TRACE_GUARD} "
                            f"of the integer {mm}")
    return None


# ---------------------------------------------------------------------------
# residue decomposition
# ---------------------------------------------------------------------------

def residue_decomposition(m: SaitoMatrices, point, lam, z_seed=None,
                          sampler: Optional[StructureSampler] = None,
                          strict=True) -> OkuboNumeric:
    """Rank-one residues B_i = -P E_i P^{-1} Binf of the Okubo z-equation."""
    if sampler is None:
        sampler = StructureSampler(m, z_seed=z_seed)
    point = tuple(point)
    try:
        roots, P = sampler.frame(point)
    except RootCollision as exc:
        raise EigenvalueCollision(str(exc)) from exc
    lamv = np.array([complex(x) for x in lam])
    res = residues_from_frame(P, lamv)
    snap = OkuboNumeric(n=m.n, point=point, Binf=lamv, z=roots, P=P,
                        residues=res, traces=np.trace(res, axis1=1, axis2=2))
    return snap.validate(strict=strict)


def snapshots_along(m: SaitoMatrices, path, lam, z_seed=None, strict=True):
    """Residue snapshots along a path from one batched, continuation-ordered
    pass (frames_along), checked as one stack."""
    return track_snapshots(m, path, lam, z_seed=z_seed, strict=strict)[1]


def track_snapshots(m: SaitoMatrices, path, lam, z_seed=None, strict=True):
    """(track, snapshots): snapshots_along and the frames_along track they
    were read from, for further checks on the same path."""
    path = [tuple(p) for p in path]
    try:
        track = frames_along(m, path, z_seed=z_seed)
    except RootCollision as exc:
        raise EigenvalueCollision(str(exc)) from exc
    _, roots, P = track
    lamv = np.array([complex(x) for x in lam])
    res = residues_from_frame(P, lamv)
    traces = np.trace(res, axis1=2, axis2=3)
    _check_residues(lamv, res, traces, path, strict)
    return track, [OkuboNumeric(n=m.n, point=p, Binf=lamv, z=roots[k], P=P[k],
                                residues=res[k], traces=traces[k])
                   for k, p in enumerate(path)]


# ---------------------------------------------------------------------------
# Pfaffian integration (DOP853 with a Liouville guard)
# ---------------------------------------------------------------------------

TOL_FLOOR = 100 * np.finfo(float).eps   # solve_ivp clamps rtol below this
# Connection evaluations one integration may make.  A loop around a root of
# a catalog snapshot needs a few hundred; a pole on the path would otherwise
# cost DOP853 hundreds of thousands before its step underflows.
MAX_CONNECTION_EVALS = 10_000


def integrate_pfaffian(system: Callable[[float], np.ndarray], s0, s1, Y0,
                       tol=1e-10):
    """Fundamental solution of dY/ds = A(s) Y from s0 to s1.

    system(s) returns the connection matrix A(s) along the (already
    parametrized) path.  DOP853 (Hairer-Norsett-Wanner, Solving ODEs I,
    II.5) integrates Y together with int tr A, and the determinant is
    checked against exp(int tr A) to a relative 1e-6.
    """
    # imported here: only the ODE paths need it, and at import time it costs
    # every CLI verb about 0.05 s and 2.5 MB
    from scipy.integrate import solve_ivp
    if tol < TOL_FLOOR:
        raise StepUnderflow(f"tol {tol} is below the solver floor {TOL_FLOOR}")
    Y0 = np.array(Y0, dtype=complex)
    shape = Y0.shape
    evals = 0

    def rhs(s, state):
        nonlocal evals
        evals += 1
        if evals > MAX_CONNECTION_EVALS:
            raise StepUnderflow(f"{MAX_CONNECTION_EVALS} connection evaluations "
                                f"(the budget) reached only s = {s}")
        A = system(s)
        return np.append((A @ state[:-1].reshape(shape)).ravel(), np.trace(A))

    sol = solve_ivp(rhs, (float(s0), float(s1)), np.append(Y0.ravel(), 0j),
                    method="DOP853", rtol=tol, atol=tol)
    if sol.status != 0:
        raise StepUnderflow(f"step underflow at s = {sol.t[-1]}: {sol.message}")
    Y = sol.y[:-1, -1].reshape(shape)
    det = np.linalg.det(Y)
    target = np.exp(sol.y[-1, -1]) * np.linalg.det(Y0)
    if abs(det - target) > 1e-6 * max(1.0, abs(target)):
        raise StepUnderflow(
            f"Liouville check failed: det {det} vs exp(int tr) {target}")
    return Y


def okubo_z_system(snapshot: OkuboNumeric):
    """A(z) = sum_i residue_i / (z - z_i) as a callable for a z-path."""
    def A(zval):
        out = np.zeros((snapshot.n, snapshot.n), dtype=complex)
        for zi, Bi in zip(snapshot.z, snapshot.residues):
            out += Bi / (zval - zi)
        return out
    return A


def monodromy_on_loop(snapshot: OkuboNumeric, center, radius, tol=1e-10):
    """Fundamental-solution monodromy around a circle |z - center| = radius."""
    A = okubo_z_system(snapshot)
    Y = np.eye(snapshot.n, dtype=complex)

    def system(theta):
        zval = center + radius * np.exp(1j * theta)
        dz = 1j * radius * np.exp(1j * theta)
        return A(zval) * dz

    return integrate_pfaffian(system, 0.0, 2 * np.pi, Y, tol=tol)


# ---------------------------------------------------------------------------
# Schlesinger residual
# ---------------------------------------------------------------------------

def schlesinger_residual(snapshots: Sequence, svals=None) -> float:
    """Max defect of dB_i/ds = sum_j [B_j, B_i] (z_i' - z_j')/(z_i - z_j).

    snapshots may be OkuboNumeric values or (z, residues) pairs on a uniform
    grid of the path parameter.
    """
    if len(snapshots) < 5:
        raise InsufficientSamples("need at least 5 snapshots")
    pairs = [(s.z, s.residues) if isinstance(s, OkuboNumeric) else s
             for s in snapshots]
    zs = np.array([z for z, _ in pairs], dtype=complex)
    Bs = np.array([res for _, res in pairs], dtype=complex)
    if svals is None:
        svals = list(range(len(snapshots)))
    h = svals[1] - svals[0]
    for a, b in zip(svals, svals[1:]):
        if abs((b - a) - h) > 1e-9 * max(1.0, abs(h)):
            raise ValueError("snapshots must be uniform in the path parameter")
    jump = np.abs(np.diff(zs, axis=0)).max(axis=1)
    _raise_first([(jump > 0.5 * np.maximum(1.0, np.abs(zs[:-1]).max(axis=1)),
                   lambda k: TrackingLost(
                       f"roots jumped between snapshots {k} and {k+1}"))])
    return float(np.abs(schlesinger_defects(zs, Bs, h)).max())


def schlesinger_defects(zs, Bs, h):
    """dB_i/ds - sum_j [B_j, B_i] (z_i' - z_j')/(z_i - z_j) at interior points.

    zs (N, n) are the pole positions and Bs (N, n, n, n) the residues on a
    uniform grid with spacing h.  Returns the (N - 4, n, n, n) defects at
    the points 2 .. N - 3, where the five-point stencil reaches; [k, i] is
    the defect of residue i.
    """
    zs = np.asarray(zs, dtype=complex)
    Bs = np.asarray(Bs, dtype=complex)
    N = len(zs)

    def window(a):
        return [a[d:N - 4 + d] for d in range(5)]

    zdot = _stencil_d1(window(zs), h)                   # (M, n)
    dB = _stencil_d1(window(Bs), h)                     # (M, n, n, n)
    z, B = zs[2:N - 2], Bs[2:N - 2]
    prod = B[:, :, None] @ B[:, None, :]                # [k, j, i] = B_j B_i
    com = prod - np.swapaxes(prod, 1, 2)                # [B_j, B_i]
    dzdot = zdot[:, None, :] - zdot[:, :, None]         # [k, j, i] = z_i' - z_j'
    # z_i - z_j, with 1 on the diagonal, where com and dzdot are exactly 0
    dz = z[:, None, :] - z[:, :, None] + np.eye(z.shape[1])
    terms = com * dzdot[..., None, None] / dz[..., None, None]
    return dB - terms.sum(axis=1)


# ---------------------------------------------------------------------------
# Okubo normal form (rank-one Fuchsian -> Okubo type)
# ---------------------------------------------------------------------------

def okubo_normal_form(residues: Sequence[np.ndarray], Binf_diag):
    """P from the rank-one factor columns; the system becomes Okubo type.

    Each residue must factor as -b_i a_i Binf with Binf = -sum residues
    diagonal and invertible; then P = (b-columns) has the a-rows as inverse
    and P^-1 (z - diag z_i)^-1 ... the transformed system is
    -(z - diag(z_i))^{-1} (P^{-1} Binf P).
    """
    lam = np.asarray(Binf_diag, dtype=complex)
    if np.any(np.abs(lam) < 1e-12):
        raise FactorizationFailed("Binf must be invertible (lambda_i != 0)")
    n = len(residues)
    if len(lam) != n:
        raise FactorizationFailed("need as many residues as diagonal entries")
    total = sum(np.asarray(b, dtype=complex) for b in residues) + np.diag(lam)
    if np.abs(total).max() > 1e-8:
        raise FactorizationFailed("residues do not sum to -Binf")
    bs, as_ = [], []
    for i, B in enumerate(residues):
        M = -np.asarray(B, dtype=complex) @ np.diag(1 / lam)
        u, s, vh = np.linalg.svd(M)
        if len(s) > 1 and s[1] > 1e-8 * max(1.0, s[0]):
            raise RankViolation(f"residue {i+1} is not rank one")
        bs.append(u[:, 0] * s[0])
        as_.append(vh[0, :])
    P = np.column_stack(bs)
    A = np.vstack(as_)
    if np.abs(P @ A - np.eye(n)).max() > 1e-10:
        raise InverseMismatch("b-columns and a-rows are not inverse matrices")
    return P, A @ np.diag(lam) @ P


# ---------------------------------------------------------------------------
# Jimbo-Miwa 2x2 parametrization
# ---------------------------------------------------------------------------

@dataclass
class JMSystem:
    A0: np.ndarray
    A1: np.ndarray
    At: np.ndarray
    thetas: tuple
    kappas: tuple
    t: complex
    y: complex
    ztilde: complex
    k: complex
    internal: dict

    @property
    def Ainf(self):
        return -(self.A0 + self.A1 + self.At)

    def validate(self, tol=1e-10):
        k1, k2 = self.kappas
        off = max(abs(self.Ainf[0, 1]), abs(self.Ainf[1, 0]))
        if off > tol:
            raise InverseMismatch(f"A_inf off-diagonal {off} exceeds {tol}")
        if abs(self.Ainf[0, 0] - k1) > 1e-8 or abs(self.Ainf[1, 1] - k2) > 1e-8:
            raise InverseMismatch("A_inf diagonal does not match kappas")
        for A, th in zip((self.A0, self.A1, self.At), self.thetas):
            if abs(np.trace(A) - th) > tol:
                raise InverseMismatch("trace of a residue does not match theta")
        return self


def jm_build(y, ztilde, k, thetas, kappas, t) -> JMSystem:
    """Assemble (A_0, A_1, A_t) from the scalar Jimbo-Miwa data.

    Requires kappa_1 + kappa_2 + theta_0 + theta_1 + theta_t = 0 and
    theta_inf = kappa_1 - kappa_2 != 0; y must stay off {0, 1, t}.
    """
    th0, th1, tht = (complex(x) for x in thetas)
    k1, k2 = (complex(x) for x in kappas)
    y, ztilde, k, t = complex(y), complex(ztilde), complex(k), complex(t)
    if abs(k1 + k2 + th0 + th1 + tht) > 1e-12:
        raise DegenerateTheta("kappa_1 + kappa_2 + sum(theta) must vanish")
    thinf = k1 - k2
    if abs(thinf) < 1e-12:
        raise DegenerateTheta("theta_inf = kappa_1 - kappa_2 must not vanish")
    if min(abs(y), abs(y - 1), abs(y - t)) < 1e-12:
        raise PoleAtY(f"y = {y} hits a pole for t = {t}")
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
    for name, val in (("z0", z0), ("z1", z1), ("zt", zt)):
        if abs(val) < 1e-300:
            raise DegenerateTheta(f"{name} vanishes; u,v,w are undefined")
    u = k * y / (t * z0)
    v = -k * (y - 1) / ((t - 1) * z1)
    w = k * (y - t) / (t * (t - 1) * zt)

    def residue(zi, thi, ui):
        return np.array([[zi + thi, -ui * zi],
                         [(zi + thi) / ui, -zi]], dtype=complex)

    sys = JMSystem(A0=residue(z0, th0, u), A1=residue(z1, th1, v),
                   At=residue(zt, tht, w), thetas=(th0, th1, tht),
                   kappas=(k1, k2), t=t, y=y, ztilde=ztilde, k=k,
                   internal={"u": u, "v": v, "w": w,
                             "z0": z0, "z1": z1, "zt": zt, "zztilde": zz})
    return sys.validate()


def p6_hamiltonian_rhs(t, y, ztilde, logk, thetas, kappas):
    th0, th1, tht = thetas
    k1, k2 = kappas
    thinf = k1 - k2
    dy = (y * (y - 1) * (y - t) / (t * (t - 1))
          * (2 * ztilde - th0 / y - th1 / (y - 1) - (tht - 1) / (y - t)))
    dz = (1 / (t * (t - 1))) * (
        (-3 * y * y + 2 * (1 + t) * y - t) * ztilde * ztilde
        + ((2 * y - 1 - t) * th0 + (2 * y - t) * th1
           + (2 * y - 1) * (tht - 1)) * ztilde
        - k1 * (k2 + 1))
    dlogk = (thinf - 1) * (y - t) / (t * (t - 1))
    return dy, dz, dlogk


def integrate_p6_hamiltonian(thetas, kappas, init, t0, t1, steps=400,
                             tol=1e-10):
    """RK4 trajectory of (y, ztilde, k) of the PVI Hamiltonian system.

    init = (y0, ztilde0, k0); returns (ts, ys, zs, ks) sampled on the uniform
    grid, integrating each grid interval with step-halving adaptivity (local
    error per unit step below tol).  Eliminating ztilde, y(t) solves PVI with
    alpha = (theta_inf - 1)^2 / 2 etc.
    """
    th = tuple(complex(x) for x in thetas)
    kp = tuple(complex(x) for x in kappas)
    y, zt, k = (complex(x) for x in init)
    state = np.array([y, zt, np.log(k)], dtype=complex)
    ts = np.linspace(float(t0), float(t1), steps + 1)

    def f(t, st):
        yv, zv, lk = st
        if min(abs(yv), abs(yv - 1), abs(yv - t)) < 1e-9:
            raise BlowUp(f"y too close to a pole at t = {t}")
        dy, dz, dlk = p6_hamiltonian_rhs(t, yv, zv, lk, th, kp)
        return np.array([dy, dz, dlk], dtype=complex)

    def rk4(t, h, st):
        k1v = f(t, st)
        k2v = f(t + h / 2, st + h / 2 * k1v)
        k3v = f(t + h / 2, st + h / 2 * k2v)
        k4v = f(t + h, st + h * k3v)
        return st + h / 6 * (k1v + 2 * k2v + 2 * k3v + k4v)

    min_step = 1e-9             # a step this short has underflowed
    out = [state.copy()]
    for i in range(steps):
        t, target = ts[i], ts[i + 1]
        h = target - t
        while (target - t) * np.sign(target - ts[i]) > 1e-14:
            if abs(h) > abs(target - t) - min_step:
                h = target - t
            full = rk4(t, h, state)
            half = rk4(t + h / 2, h / 2, rk4(t, h / 2, state))
            err = np.abs(full - half).max() / max(1.0, float(np.abs(half).max()))
            if err > tol * abs(h):
                h /= 2
                if abs(h) < min_step:
                    raise StepUnderflow(f"step underflow at t = {t}")
                continue
            state, t = half, t + h
            if err < tol * abs(h) / 16:
                h *= 2
        if np.abs(state[:2]).max() > 1e8:
            raise BlowUp(f"trajectory blew up at t = {target}")
        out.append(state.copy())
    arr = np.array(out)
    return ts, arr[:, 0], arr[:, 1], np.exp(arr[:, 2])


def jm_family_snapshots(ts, ys, zs, ks, thetas, kappas):
    """(z, residues) pairs for the Schlesinger residual of a JM trajectory."""
    snaps = []
    for t, y, zt, k in zip(ts, ys, zs, ks):
        sys = jm_build(y, zt, k, thetas, kappas, t)
        snaps.append((np.array([0.0, 1.0, t], dtype=complex),
                      [sys.A0, sys.A1, sys.At]))
    return snaps


# ---------------------------------------------------------------------------
# report helpers
# ---------------------------------------------------------------------------

def trajectory_to_csv(ts, ys, zs, ks) -> str:
    lines = ["t,y_re,y_im,ztilde_re,ztilde_im,k_re,k_im"]
    for t, y, z, k in zip(ts, ys, zs, ks):
        lines.append(f"{t:.16g},{y.real:.16g},{y.imag:.16g},"
                     f"{z.real:.16g},{z.imag:.16g},{k.real:.16g},{k.imag:.16g}")
    return "\n".join(lines) + "\n"


def jmsystem_to_json(sys: JMSystem) -> dict:
    def mat(a):
        return [[_cpair(x) for x in row] for row in a]
    return {"A0": mat(sys.A0), "A1": mat(sys.A1), "At": mat(sys.At),
            "thetas": [_cpair(x) for x in sys.thetas],
            "kappas": [_cpair(x) for x in sys.kappas],
            "t": _cpair(sys.t), "y": _cpair(sys.y),
            "ztilde": _cpair(sys.ztilde), "k": _cpair(sys.k)}
