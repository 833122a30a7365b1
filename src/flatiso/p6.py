"""Painlevé VI extraction from three-dimensional flat structures.

For n = 3 the discriminant h(t', .) is a cubic in t_3 with roots z_1, z_2,
z_3.  The off-diagonal entries of h * adj(T) * Binf are linear in t_3; the
zero z_ij of a chosen entry, normalized by the cross-ratio map sending
(z_1, z_2, z_3) to (0, 1, t), is a PVI solution y(t).  Everything numeric
runs along a sampling path in t' with roots tracked by nearest-neighbour
continuation and derivatives from five-point central differences.  A path
is evaluated in one batch (frames_along): the algebraic generator is tracked
point by point, then T0 and the entry coefficients are evaluated over all
points at once and the eigenproblems are solved as one stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import (DegenerateLinearEntry, EigenvalueCollision,
                     EntryIdenticallyZero, FlatIsoError, InsufficientSamples,
                     RootCollision)
from .flatcore import SaitoMatrices

DEFAULT_SEPARATION = 1e-9


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass
class P6Params:
    theta0: complex
    theta1: complex
    thetat: complex
    thetainf: complex
    alpha: complex
    beta: complex
    gamma: complex
    delta: complex
    r: List[complex]
    lam: List[complex]

    @classmethod
    def from_thetas(cls, theta0, theta1, thetat, thetainf, r=(), lam=()):
        return cls(theta0=theta0, theta1=theta1, thetat=thetat, thetainf=thetainf,
                   alpha=0.5 * (thetainf - 1) ** 2, beta=-0.5 * theta0 ** 2,
                   gamma=0.5 * theta1 ** 2, delta=0.5 * (1 - thetat ** 2),
                   r=list(r), lam=list(lam))


@dataclass
class P6Sample:
    s: float                      # path parameter
    tprime: tuple                 # (t_1, t_2)
    roots: tuple                  # (z_1, z_2, z_3)
    z_entry: complex              # zero of the chosen matrix entry
    t: complex
    y: complex
    dy_dt: Optional[complex] = None
    d2y_dt2: Optional[complex] = None
    residual: Optional[float] = None


# ---------------------------------------------------------------------------
# numeric sampling of the structure along a t'-path
# ---------------------------------------------------------------------------

def _first_point_order(w, tol):
    """Ascending real part; real parts within tol of each other count as tied
    and are ordered by imaginary part, so rounding cannot swap a conjugate pair."""
    by_real = sorted(range(len(w)), key=lambda k: w[k].real)
    order, group = [], []
    for k in by_real:
        if group and w[k].real - w[group[0]].real > tol:
            order += sorted(group, key=lambda g: w[g].imag)
            group = []
        group.append(k)
    return order + sorted(group, key=lambda g: w[g].imag)


def _raise_first(checks):
    """Raise for the earliest point at which any check fails.

    checks are (bad, make_error) pairs in the order one point is checked:
    bad is a boolean array over the points and make_error(k) builds the
    exception for point k.
    """
    hits = [(int(np.argmax(bad)), c) for c, (bad, _) in enumerate(checks)
            if np.any(bad)]
    if hits:
        k, c = min(hits)
        raise checks[c][1](k)


def ordered_eig(T0vals, prev_roots=None, separation=DEFAULT_SEPARATION):
    """Eigen-decompositions of stacked (N, n, n) matrices, ordered for continuation.

    First point: ascending real part, ties (within separation, scaled by the
    root size) by imaginary part; with prev_roots, nearest-neighbour matching
    against them.  Every later point is matched against the one before.
    Raises RootCollision naming the first point with roots closer than
    separation.
    """
    w, V = np.linalg.eig(np.asarray(T0vals, dtype=complex))
    prev = prev_roots
    for k in range(len(w)):
        if prev is None:
            order = _first_point_order(
                w[k], separation * max(1.0, float(np.abs(w[k]).max())))
        else:
            cost = np.abs(w[k][None, :] - np.asarray(prev)[:, None])
            order = linear_sum_assignment(cost)[1]
        w[k] = w[k][order]
        V[k] = V[k][:, order]
        prev = w[k]
    n = w.shape[1]
    if n > 1:
        i, j = np.triu_indices(n, 1)
        gaps = np.abs(w[:, i] - w[:, j]).min(axis=1)
        _raise_first([(gaps < separation, lambda k: RootCollision(
            f"roots closer than {separation} at path point {k}"))])
    return w, V


class StructureSampler:
    """Evaluate T0, the discriminant roots and residue data along a t'-path.

    Keeps the continuation state: the tracked algebraic-generator value (for
    extension rings) and the previous root ordering.
    """

    def __init__(self, m: SaitoMatrices, z_seed=None,
                 separation=DEFAULT_SEPARATION):
        self.m = m
        ring = m.ring
        self.ring = ring
        self.n = m.n
        self.separation = separation
        self.z_seed = z_seed
        self.T0 = m.T0
        self._z = None
        self._prev_pt = None
        self._prev_roots = None

    def _full_point(self, tprime):
        return tuple(tprime) + (0.0,) * (self.n - len(tprime))

    def z_at(self, tprime):
        if self.ring.ext is None:
            return None
        from .ring import _continue_root
        pt = self._full_point(tprime)
        if self._z is None:
            if self.z_seed is None:
                raise ValueError("extension ring requires a z seed")
            self._z = self.ring.solve_z(pt, self.z_seed, self.separation)
        elif pt != self._prev_pt:
            self._z = _continue_root(self.ring, self._prev_pt, pt, self._z,
                                     self.separation, 0)
        self._prev_pt = pt
        return self._z

    def t0_matrix(self, tprime):
        """T0 at one point by scalar RingElem.eval (the reference evaluation)."""
        pt = self._full_point(tprime)
        zv = self.z_at(tprime)
        return np.array([[e.eval(pt, z=zv) for e in row] for row in self.T0],
                        dtype=complex)

    def frames(self, path):
        """(values, roots, frames) along a path, continuation-ordered.

        values is the (N, nvars + 1) array of (z, t_1, ..., t_n) with z
        tracked point by point (0 on a plain ring) and t_n = 0; roots is
        (N, n) and frames is (N, n, n), columns following the roots.
        """
        rows = []
        for tp in path:
            zv = self.z_at(tp)
            rows.append((0j if zv is None else zv,) + self._full_point(tp))
        values = np.array(rows, dtype=complex).reshape(len(rows), self.n + 1)
        T0v = np.empty((len(values), self.n, self.n), dtype=complex)
        for i, row in enumerate(self.T0):
            for j, e in enumerate(row):
                T0v[:, i, j] = e.eval_batch(values)
        roots, P = ordered_eig(T0v, self._prev_roots, self.separation)
        if len(roots):
            self._prev_roots = roots[-1]
        return values, roots, P

    def frame(self, tprime):
        """(roots, eigenvector matrix) at one path point, continuation-ordered."""
        _, roots, P = self.frames([tprime])
        return roots[0], P[0]


def frames_along(m: SaitoMatrices, path, z_seed=None,
                 separation=DEFAULT_SEPARATION, initial_roots=None):
    """(values, roots, frames) of StructureSampler.frames on a fresh sampler.

    initial_roots, when given, fixes the labeling of the first point by
    matching against them.
    """
    sampler = StructureSampler(m, z_seed=z_seed, separation=separation)
    if initial_roots is not None:
        sampler._prev_roots = np.asarray(initial_roots)
    return sampler.frames([tuple(p) for p in path])


def roots_of_h(m: SaitoMatrices, point, z_seed=None, prev_roots=None,
               separation=DEFAULT_SEPARATION):
    """Roots of h(t', .) as a cubic in t_3 (= eigenvalues of T0), ordered."""
    if m.n != 3:
        raise ValueError("PVI extraction needs n = 3")
    sampler = StructureSampler(m, z_seed=z_seed, separation=separation)
    sampler._prev_roots = prev_roots
    roots, _ = sampler.frame(tuple(point))
    return tuple(roots)


# ---------------------------------------------------------------------------
# solution extraction
# ---------------------------------------------------------------------------

def _stencil_d1(vals, h):
    return (-vals[4] + 8 * vals[3] - 8 * vals[1] + vals[0]) / (12 * h)


def _stencil_d2(vals, h):
    return (-vals[4] + 16 * vals[3] - 30 * vals[2] + 16 * vals[1] - vals[0]) / (12 * h * h)


def _linear_entry(m: SaitoMatrices, binf_eigs, entry_choice):
    """(alpha, beta) with entry (i, j) of h B^(3) = alpha t_3 + beta, checked."""
    if m.n != 3:
        raise ValueError("PVI extraction needs n = 3")
    i, j = entry_choice
    if i == j or not (1 <= i <= 3 and 1 <= j <= 3):
        raise ValueError("entry_choice must be off-diagonal in 1..3")
    lam = [complex(x) for x in binf_eigs]
    if abs(lam[j - 1]) < 1e-14:
        raise EntryIdenticallyZero(
            f"column {j} of h B^(3) vanishes (lambda_{j} = 0)")
    entry = m.adjT[i - 1][j - 1]
    if entry.is_zero():
        raise EntryIdenticallyZero(f"adj(T)[{i}][{j}] is identically zero")
    last = m.n - 1
    deg = entry.degree_in(last)
    if deg > 1:
        raise DegenerateLinearEntry(
            f"entry ({i},{j}) has t_3-degree {deg}, expected <= 1")
    coeffs = entry.coeffs_in(last)
    beta = coeffs[0]
    alpha = coeffs[1] if deg == 1 else m.ring.zero()
    if alpha.is_zero():
        raise DegenerateLinearEntry(f"entry ({i},{j}) has no t_3 term")
    return alpha, beta


def _samples_on(alpha, beta, track, path, svals, separation):
    """PVI samples of one entry on the frames (values, roots, _) of a path."""
    values, roots, _ = track
    if svals is None:
        svals = range(len(path))
    av, bv = alpha.eval_batch(values), beta.eval_batch(values)
    z1, z2, z3 = roots.T
    den = z2 - z1
    with np.errstate(all="ignore"):
        z_entry = -bv / av
        y = (z_entry - z1) / den
        t = (z3 - z1) / den
    _raise_first([
        (np.abs(av) < 1e-12 * np.maximum(1.0, np.abs(bv)), lambda k:
         DegenerateLinearEntry(f"t_3-coefficient vanishes at {path[k]}")),
        (np.abs(den) < separation, lambda k:
         RootCollision(f"z_2 - z_1 ~ 0 at {path[k]}")),
        (np.minimum(np.abs(t), np.abs(t - 1)) < 1e-8, lambda k:
         RootCollision(f"cross-ratio t hits 0/1 at {path[k]}")),
    ])
    samples = [P6Sample(s=float(sv), tprime=tp, roots=tuple(roots[k]),
                        z_entry=z_entry[k], t=t[k], y=y[k])
               for k, (sv, tp) in enumerate(zip(svals, path))]
    _differentiate_samples(samples)
    return samples


def extract_p6_solution(m: SaitoMatrices, binf_eigs, entry_choice, path,
                        z_seed=None, separation=DEFAULT_SEPARATION,
                        svals=None, initial_roots=None) -> List[P6Sample]:
    """PVI samples along a t'-path from the chosen off-diagonal entry.

    binf_eigs are the Okubo eigenvalues (lambda_1, lambda_2, lambda_3); the
    (i, j) entry of h B^(3) = -adj(T) Binf is linear in t_3 and its zero,
    cross-ratio normalized against the roots of h, is the PVI solution.
    """
    alpha, beta = _linear_entry(m, binf_eigs, entry_choice)
    path = [tuple(p) for p in path]
    track = frames_along(m, path, z_seed=z_seed, separation=separation,
                         initial_roots=initial_roots)
    return _samples_on(alpha, beta, track, path, svals, separation)


def _differentiate_samples(samples):
    if len(samples) < 5:
        return
    s = np.array([x.s for x in samples])
    h = s[1] - s[0]
    k = np.arange(len(s))
    if np.any(np.abs(s - s[0] - k * h) > 1e-9 * np.maximum(1.0, abs(h) * k)):
        raise ValueError("sample grid must be uniform in s")
    ys = np.array([x.y for x in samples])
    ts = np.array([x.t for x in samples])

    def window(a):
        return [a[d:len(a) - 4 + d] for d in range(5)]

    dy, dt = _stencil_d1(window(ys), h), _stencil_d1(window(ts), h)
    d2y, d2t = _stencil_d2(window(ys), h), _stencil_d2(window(ts), h)
    _raise_first([(np.abs(dt) < 1e-12, lambda j: DegenerateLinearEntry(
        f"dt/ds vanishes at sample {j + 2}; path is not t-regular"))])
    dy_dt = dy / dt
    d2y_dt2 = (d2y * dt - dy * d2t) / dt ** 3
    for smp, a, b in zip(samples[2:-2], dy_dt, d2y_dt2):
        smp.dy_dt, smp.d2y_dt2 = a, b


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

def residues_from_frame(P, lam):
    """Rank-one residues -P E_i P^{-1} Binf of the Okubo z-equation.

    P is one frame (n, n) or a stack (..., n, n); residue i of each frame is
    the outer product -P[:, i] (P^{-1}[i, :] Binf), returned at [..., i, :, :].
    """
    P = np.asarray(P, dtype=complex)
    Pinv = np.linalg.inv(P)
    lamv = np.array([complex(x) for x in lam])
    cols = np.swapaxes(P, -1, -2)[..., :, :, None]      # P[:, i] as column i
    # C order, so each residue is a contiguous matrix for later arithmetic
    return np.multiply(-cols, Pinv[..., :, None, :] * lamv, order="C")


def default_lambda(weights):
    """The PVI normalization diag(w_1 - w_3, w_2 - w_3, 0)."""
    w = [Fraction(x) for x in weights]
    return [w[0] - w[2], w[1] - w[2], Fraction(0)]


def p6_parameters(m: SaitoMatrices, point, lam=None, z_seed=None,
                  separation=DEFAULT_SEPARATION, sampler=None,
                  entry_choice=(1, 2)) -> P6Params:
    """theta and (alpha, beta, gamma, delta) from the residue traces at a point.

    For entry (i, j) the two-dimensional reduction keeps the unknowns i, j
    and drops the remaining index k, which requires shifting the Okubo
    diagonal by -lam_k; hence theta_m = r_m + lam_k (= r_m - lam_3 in the
    default normalization where lam_3 = 0) and theta_inf = lam_i - lam_j.
    """
    if m.n != 3:
        raise ValueError("PVI parameters need n = 3")
    if lam is None:
        lam = default_lambda(m.weights)
    i, j = entry_choice
    if i == j or not (1 <= i <= 3 and 1 <= j <= 3):
        raise ValueError("entry_choice must be off-diagonal in 1..3")
    if sampler is None:
        sampler = StructureSampler(m, z_seed=z_seed, separation=separation)
    try:
        _, P = sampler.frame(tuple(point))
    except RootCollision as exc:
        raise EigenvalueCollision(str(exc)) from exc
    return _params_from_frame(P, lam, entry_choice)


def _params_from_frame(P, lam, entry_choice):
    """p6_parameters on a computed frame P."""
    lamc = [complex(x) for x in lam]
    i, j = entry_choice
    k = ({1, 2, 3} - {i, j}).pop()
    r = list(np.trace(residues_from_frame(P, lamc), axis1=-2, axis2=-1))
    theta0, theta1, thetat = (rm + lamc[k - 1] for rm in r)
    thetainf = lamc[i - 1] - lamc[j - 1]
    return P6Params.from_thetas(theta0, theta1, thetat, thetainf, r=r, lam=lamc)


# ---------------------------------------------------------------------------
# the PVI residual
# ---------------------------------------------------------------------------

def pvi_rhs(t, y, dy, params: P6Params):
    a, b, g, d = params.alpha, params.beta, params.gamma, params.delta
    term1 = 0.5 * (1 / y + 1 / (y - 1) + 1 / (y - t)) * dy * dy
    term2 = -(1 / t + 1 / (t - 1) + 1 / (y - t)) * dy
    term3 = (y * (y - 1) * (y - t) / (t ** 2 * (t - 1) ** 2)
             * (a + b * t / y ** 2 + g * (t - 1) / (y - 1) ** 2
                + d * t * (t - 1) / (y - t) ** 2))
    return term1 + term2 + term3


def p6_residual(samples: Sequence[P6Sample], params: P6Params) -> float:
    """Max |y'' - PVI_rhs(y, y', t)| over interior samples; fills .residual."""
    interior = [s for s in samples if s.d2y_dt2 is not None]
    if len(interior) < 1 or len(samples) < 5:
        raise InsufficientSamples("need at least 5 samples for the stencil")
    t, y, dy, d2y = (np.array([getattr(s, a) for s in interior], dtype=complex)
                     for a in ("t", "y", "dy_dt", "d2y_dt2"))
    with np.errstate(all="ignore"):
        val = np.abs(d2y - pvi_rhs(t, y, dy, params))
    # a sample sitting on a PVI pole (y in {0, 1, t}) yields a non-finite
    # defect; report it as infinite rather than NaN
    val[~np.isfinite(val)] = np.inf
    for s, v in zip(interior, val):
        s.residual = float(v)
    return float(val.max())


def pvi_check(m: SaitoMatrices, lam, entry_choice, path, z_seed=None,
              svals=None):
    """(samples, params, residual) of one PVI extraction along a path.

    The parameters are read from the frame at the first path point.
    """
    alpha, beta = _linear_entry(m, lam, entry_choice)
    path = [tuple(p) for p in path]
    track = frames_along(m, path, z_seed=z_seed)
    return _pvi_on_frames(alpha, beta, track, lam, entry_choice, path, svals)


def _pvi_on_frames(alpha, beta, track, lam, entry_choice, path, svals):
    """pvi_check of one entry (alpha, beta) on computed frames."""
    samples = _samples_on(alpha, beta, track, path, svals, DEFAULT_SEPARATION)
    params = _params_from_frame(track[2][0], lam, entry_choice)
    return samples, params, p6_residual(samples, params)


def entry_survey(m: SaitoMatrices, lam, path, z_seed=None, svals=None) -> dict:
    """PVI residuals for every off-diagonal entry choice, reported not gated.

    Different entries give different solution branches; each is checked
    against its own parameter dictionary on the one set of frames of the
    path.  Entries whose column is killed by a zero Okubo eigenvalue (or
    that degenerate on the path) are reported by error name.  No
    equivalence between branches is asserted.
    """
    path = [tuple(p) for p in path]
    try:
        track, failure = frames_along(m, path, z_seed=z_seed), None
    except (FlatIsoError, np.linalg.LinAlgError) as exc:
        track, failure = None, exc
    out = {}
    for i in range(1, 4):
        for j in range(1, 4):
            if i == j:
                continue
            key = f"{i},{j}"
            try:
                alpha, beta = _linear_entry(m, lam, (i, j))
                if failure is not None:
                    raise failure
                _, params, residual = _pvi_on_frames(
                    alpha, beta, track, lam, (i, j), path, svals)
            except (FlatIsoError, np.linalg.LinAlgError) as exc:
                out[key] = {"error": type(exc).__name__}
                continue
            if not np.isfinite(residual):
                out[key] = {"error": "PoleOnPath"}
                continue
            out[key] = {"residual": residual,
                        "thetainf": [params.thetainf.real,
                                     params.thetainf.imag]}
    return out


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def samples_to_csv(samples: Sequence[P6Sample]) -> str:
    lines = ["s,t1,t2,t,y,dy,d2y,residual"]
    for s in samples:
        def c(v):
            if v is None:
                return ""
            v = complex(v)
            return f"{v.real:.16g}{v.imag:+.16g}j"
        lines.append(",".join([f"{s.s:.16g}", c(s.tprime[0]), c(s.tprime[1]),
                               c(s.t), c(s.y), c(s.dy_dt), c(s.d2y_dt2),
                               "" if s.residual is None else f"{s.residual:.6g}"]))
    return "\n".join(lines) + "\n"


def _cpair(v):
    """A complex number as the JSON pair [re, im]."""
    v = complex(v)
    return [v.real, v.imag]


def params_to_json(params: P6Params) -> dict:
    return {"theta": {"0": _cpair(params.theta0), "1": _cpair(params.theta1),
                      "t": _cpair(params.thetat), "inf": _cpair(params.thetainf)},
            "alpha": _cpair(params.alpha), "beta": _cpair(params.beta),
            "gamma": _cpair(params.gamma), "delta": _cpair(params.delta),
            "r": [_cpair(x) for x in params.r],
            "lambda": [_cpair(x) for x in params.lam]}
