"""Painlevé VI extraction from three-dimensional flat structures.

For n = 3 the discriminant h(t', .) is a cubic in t_3 with roots z_1, z_2,
z_3.  The off-diagonal entries of h * adj(T) * Binf are linear in t_3; the
zero z_ij of a chosen entry, normalized by the cross-ratio map sending
(z_1, z_2, z_3) to (0, 1, t), is a PVI solution y(t).  Everything numeric
runs along a sampling path in t' with roots tracked by nearest-neighbour
continuation and derivatives from five-point central differences.
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

def ordered_eig(T0val, prev_roots=None, separation=DEFAULT_SEPARATION):
    """Eigen-decomposition with roots ordered for continuation.

    First point: ascending real part, ties by imaginary part.  Later points:
    nearest-neighbour matching against the previous roots.
    """
    w, V = np.linalg.eig(np.asarray(T0val, dtype=complex))
    if prev_roots is None:
        order = sorted(range(len(w)), key=lambda k: (w[k].real, w[k].imag))
    else:
        cost = np.abs(w[None, :] - np.asarray(prev_roots)[:, None])
        rows, cols = linear_sum_assignment(cost)
        order = [int(cols[list(rows).index(i)]) for i in range(len(w))]
    w = w[order]
    V = V[:, order]
    dists = [abs(a - b) for i, a in enumerate(w) for b in w[i + 1:]]
    if dists and min(dists) < separation:
        raise RootCollision(f"roots closer than {separation}")
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
        pt = self._full_point(tprime)
        zv = self.z_at(tprime)
        return np.array([[e.eval(pt, z=zv) for e in row] for row in self.T0],
                        dtype=complex)

    def frame(self, tprime):
        """(roots, eigenvector matrix) at a path point, continuation-ordered."""
        T0v = self.t0_matrix(tprime)
        roots, P = ordered_eig(T0v, self._prev_roots, self.separation)
        self._prev_roots = roots
        return roots, P

    def eval_elem(self, e, tprime):
        pt = self._full_point(tprime)
        return e.eval(pt, z=self.z_at(tprime))


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


def extract_p6_solution(m: SaitoMatrices, binf_eigs, entry_choice, path,
                        z_seed=None, separation=DEFAULT_SEPARATION,
                        svals=None, initial_roots=None) -> List[P6Sample]:
    """PVI samples along a t'-path from the chosen off-diagonal entry.

    binf_eigs are the Okubo eigenvalues (lambda_1, lambda_2, lambda_3); the
    (i, j) entry of h B^(3) = -adj(T) Binf is linear in t_3 and its zero,
    cross-ratio normalized against the roots of h, is the PVI solution.
    """
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

    sampler = StructureSampler(m, z_seed=z_seed, separation=separation)
    if initial_roots is not None:
        sampler._prev_roots = np.asarray(initial_roots)
    path = [tuple(p) for p in path]
    if svals is None:
        svals = list(range(len(path)))
    samples = []
    for s, tp in zip(svals, path):
        roots, _ = sampler.frame(tp)
        av = sampler.eval_elem(alpha, tp)
        bv = sampler.eval_elem(beta, tp)
        if abs(av) < 1e-12 * max(1.0, abs(bv)):
            raise DegenerateLinearEntry(f"t_3-coefficient vanishes at {tp}")
        z_entry = -bv / av
        z1, z2, z3 = roots
        den = z2 - z1
        if abs(den) < separation:
            raise RootCollision(f"z_2 - z_1 ~ 0 at {tp}")
        y = (z_entry - z1) / den
        t = (z3 - z1) / den
        if min(abs(t), abs(t - 1)) < 1e-8:
            raise RootCollision(f"cross-ratio t hits 0/1 at {tp}")
        samples.append(P6Sample(s=float(s), tprime=tp, roots=tuple(roots),
                                z_entry=z_entry, t=t, y=y))
    _differentiate_samples(samples)
    return samples


def _differentiate_samples(samples):
    if len(samples) < 5:
        return
    h = samples[1].s - samples[0].s
    for k in range(len(samples)):
        if abs(samples[k].s - samples[0].s - k * h) > 1e-9 * max(1.0, abs(h) * k):
            raise ValueError("sample grid must be uniform in s")
    for k in range(2, len(samples) - 2):
        ys = [samples[k + d].y for d in (-2, -1, 0, 1, 2)]
        ts = [samples[k + d].t for d in (-2, -1, 0, 1, 2)]
        dy, dt = _stencil_d1(ys, h), _stencil_d1(ts, h)
        d2y, d2t = _stencil_d2(ys, h), _stencil_d2(ts, h)
        if abs(dt) < 1e-12:
            raise DegenerateLinearEntry(
                f"dt/ds vanishes at sample {k}; path is not t-regular")
        samples[k].dy_dt = dy / dt
        samples[k].d2y_dt2 = (d2y * dt - dy * d2t) / dt ** 3


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

def residues_from_frame(roots, P, lam):
    """Rank-one residues -P E_i P^{-1} Binf of the Okubo z-equation."""
    Pinv = np.linalg.inv(P)
    Lam = np.diag([complex(x) for x in lam])
    out = []
    for i in range(len(roots)):
        E = np.zeros_like(Lam)
        E[i, i] = 1.0
        out.append(-P @ E @ Pinv @ Lam)
    return out


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
    lamc = [complex(x) for x in lam]
    i, j = entry_choice
    if i == j or not (1 <= i <= 3 and 1 <= j <= 3):
        raise ValueError("entry_choice must be off-diagonal in 1..3")
    k = ({1, 2, 3} - {i, j}).pop()
    if sampler is None:
        sampler = StructureSampler(m, z_seed=z_seed, separation=separation)
    try:
        roots, P = sampler.frame(tuple(point))
    except RootCollision as exc:
        raise EigenvalueCollision(str(exc)) from exc
    res = residues_from_frame(roots, P, lamc)
    r = [np.trace(b) for b in res]
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
    worst = 0.0
    for s in interior:
        with np.errstate(all="ignore"):
            rhs = pvi_rhs(s.t, s.y, s.dy_dt, params)
        val = abs(s.d2y_dt2 - rhs)
        # a sample sitting on a PVI pole (y in {0, 1, t}) yields a
        # non-finite defect; report it as infinite rather than NaN
        s.residual = val if np.isfinite(val) else float("inf")
        worst = max(worst, s.residual)
    return worst


def pvi_check(m: SaitoMatrices, lam, entry_choice, path, z_seed=None,
              svals=None):
    """(samples, params, residual) of one PVI extraction along a path.

    The parameters are read at the first path point with a fresh sampler.
    """
    samples = extract_p6_solution(m, lam, entry_choice, path, z_seed=z_seed,
                                  svals=svals)
    params = p6_parameters(m, path[0], lam=lam,
                           sampler=StructureSampler(m, z_seed=z_seed),
                           entry_choice=entry_choice)
    return samples, params, p6_residual(samples, params)


def entry_survey(m: SaitoMatrices, lam, path, z_seed=None, svals=None) -> dict:
    """PVI residuals for every off-diagonal entry choice, reported not gated.

    Different entries give different solution branches; each is checked
    against its own parameter dictionary.  Entries whose column is killed by
    a zero Okubo eigenvalue (or that degenerate on the path) are reported by
    error name.  No equivalence between branches is asserted.
    """
    out = {}
    for i in range(1, 4):
        for j in range(1, 4):
            if i == j:
                continue
            key = f"{i},{j}"
            try:
                _, params, residual = pvi_check(m, lam, (i, j), path,
                                                z_seed=z_seed, svals=svals)
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
