"""Painlevé VI extraction from three-dimensional flat structures.

For n = 3 the discriminant h(t', .) is a cubic in t_3 with roots z_1, z_2,
z_3.  The off-diagonal entries of h * adj(T) * Binf are linear in t_3; the
zero z_ij of a chosen entry, normalized by the cross-ratio map sending
(z_1, z_2, z_3) to (0, 1, t), is a PVI solution y(t).  Everything numeric
runs along a sampling path in t', with derivatives from five-point central
differences.  A path is evaluated in one batch (frames_along): the algebraic
generator is tracked by Newton's method run on all points in lockstep, then
T0 and the entry coefficients are evaluated over all points at once, each
matrix or pair in one numeric.EvalStack call, and the eigenproblems are solved
as one stack (on the real LAPACK driver when the stack is real, and without
eigenvectors where only the roots are read).

StructureSampler is the one tracker of both the generator z and the order
of the roots of T0.  A step is accepted only where it is shorter than
STEP_FRACTION (1/4) of the gap to the nearest other candidate.  For z the gap
is a gamma-theory certificate (numeric.certified_separation), computed for all
points of a lockstep pass in one call, with np.roots only where it is
inconclusive.  For the roots of T0 it is the distance to the second-nearest
root at the next point, and the nearest-neighbour matches of all steps are
composed at once.
A rejected step is bisected, evaluating z and T0 at the midpoint; after
MAX_BISECTIONS (24) halvings it raises TrackingLost, a NumericError (CLI
exit 3).  Roots closer than numeric.ROOT_SEPARATION raise RootCollision.

frame_tangent differentiates a tracked point exactly: the roots and the
Okubo residues along each t_k, from the exact dT0/dt_k of the structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from typing import List, Optional, Sequence

import numpy as np

from .errors import (DegenerateLinearEntry, EigenvalueCollision,
                     EntryIdenticallyZero, FlatIsoError, InputError,
                     InsufficientSamples, RootCollision, RootNotConverged,
                     TrackingLost)
from .flatcore import SaitoMatrices
from .numeric import (ROOT_SEPARATION, EvalStack, certified_separation,
                      newton_roots, rel_coeffs)

# A continuation step is accepted only below this fraction of the gap to the
# nearest other candidate; a rejected step is bisected at most this deep.
STEP_FRACTION = 0.25
MAX_BISECTIONS = 24


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


def _nearest_match(w0, w1):
    """(perm, ok) of the nearest-neighbour match of stacked roots w0 to w1.

    perm[m, a] is the index in w1[m] of the root nearest w0[m, a].  ok[m]
    holds where the match is one-to-one and every root moved less than
    STEP_FRACTION of the distance to its second-nearest candidate.
    """
    dist = np.abs(w1[:, None, :] - w0[:, :, None])
    perm = dist.argmin(axis=2)
    n = w0.shape[1]
    if n < 2:
        return perm, np.ones(len(w0), dtype=bool)
    near = np.partition(dist, 1, axis=2)
    ok = (near[..., 0] < STEP_FRACTION * near[..., 1]).all(axis=1)
    return perm, ok & (np.sort(perm, axis=1) == np.arange(n)).all(axis=1)


def _compose(first, steps):
    """Labels along a stack: row 0 is first, row k + 1 is steps[k][row k].

    Composed as a prefix scan, log2(N) gathers over the whole stack.
    """
    out = np.concatenate([first[None], steps])
    d = 1
    while d < len(out):
        out[d:] = np.take_along_axis(out[d:], out[:-d], axis=1)
        d *= 2
    return out


def _eig(A, vectors):
    """(eigenvalues, eigenvectors or None) of a complex (N, n, n) stack, by
    the real LAPACK driver when every imaginary part is exactly 0."""
    if not A.imag.any():
        A = A.real
    if not vectors:
        return np.linalg.eigvals(A).astype(complex, copy=False), None
    w, V = np.linalg.eig(A)
    return w.astype(complex, copy=False), V.astype(complex, copy=False)


def ordered_eig(T0vals, prev_roots=None, bridge=None, vectors=True):
    """Eigen-decompositions of stacked (N, n, n) matrices, ordered for continuation.

    First point: ascending real part, ties (within ROOT_SEPARATION, scaled by
    the root size) by imaginary part; with prev_roots, matched against them.
    Every later point is matched to the one before by nearest neighbour,
    accepted where _nearest_match accepts it.  A rejected step into point k
    goes to bridge(k, roots before, roots at k), which returns the
    permutation; with no bridge it raises TrackingLost.  Raises
    RootCollision, before any matching, naming the first point with roots
    closer than ROOT_SEPARATION.  With vectors False only the roots are
    computed, and the frames returned are None.
    """
    w, V = _eig(np.asarray(T0vals, dtype=complex), vectors)
    n = w.shape[1]
    if n > 1:
        i, j = np.triu_indices(n, 1)
        gaps = np.abs(w[:, i] - w[:, j]).min(axis=1)
        _raise_first([(gaps < ROOT_SEPARATION, lambda k: RootCollision(
            f"roots closer than {ROOT_SEPARATION} at path point {k}"))])
    if not len(w):
        return w, V
    if prev_roots is None:
        first = np.array(_first_point_order(
            w[0], ROOT_SEPARATION * max(1.0, float(np.abs(w[0]).max()))))
        chain = w
    else:
        first = np.arange(w.shape[1])
        chain = np.concatenate([np.asarray(prev_roots, dtype=complex)[None], w])
    steps, ok = _nearest_match(chain[:-1], chain[1:])
    for k in np.flatnonzero(~ok):
        point = k + (prev_roots is None)
        if bridge is None:
            raise TrackingLost(f"eigenvalue step into path point {point} is "
                               f"not below {STEP_FRACTION} of the root gap")
        steps[k] = bridge(point, chain[k], chain[k + 1])
    labels = _compose(first, steps)[len(chain) - len(w):]
    w = np.take_along_axis(w, labels, axis=1)
    if vectors:
        V = np.take_along_axis(V, labels[:, None, :], axis=2)
    return w, V


def _matrix_rows(stack, values):
    """A numeric.EvalStack at every row of values, the row axis first: (N, n, n)
    for a matrix."""
    return np.moveaxis(stack.eval_batch(values), -1, 0)


def _midpoint(p0, p1):
    return tuple((a + b) / 2 for a, b in zip(p0, p1))


class StructureSampler:
    """The path tracker: the algebraic generator z and the ordered roots of T0.

    Both are continued by one rule.  A step is accepted only where it is
    shorter than STEP_FRACTION of the gap to the nearest other candidate:
    for z the gap is the certified separation of numeric.certified_separation,
    for the roots of T0 the distance to the second-nearest root at the next
    point.  A rejected step is bisected, at most MAX_BISECTIONS deep, and
    then raises TrackingLost.  The state is the last tracked point, so
    successive calls continue from it.
    """

    def __init__(self, m: SaitoMatrices, z_seed=None):
        self.m = m
        ring = m.ring
        self.ring = ring
        self.n = m.n
        self.z_seed = z_seed
        self._T0 = m.T0_stack
        # (point, z, certified separation) where z was last tracked
        self._prev_pt = None
        self._z = None
        self._zsep = None
        # ordered roots, and the (point, z, separation) they were taken at
        self._prev_roots = None
        self._roots_at = None

    def _full_point(self, tprime):
        return tuple(tprime) + (0.0,) * (self.n - len(tprime))

    def _collision(self, point):
        return RootCollision(
            f"generator roots closer than {ROOT_SEPARATION} at {point}")

    def _track_z(self, pts):
        """(z, certified separation) at full points pts, continued from the state.

        Newton runs on all remaining points at once, in lockstep from the
        last accepted z, and one certificate covers them.  The points up to
        the first step that is not below STEP_FRACTION of the separation at
        both of its ends are accepted, and the lockstep restarts from that
        point; a step rejected right after a restart is bisected until it
        passes.  An accepted point with a separation below ROOT_SEPARATION
        raises RootCollision.
        """
        if self.ring.ext is None or not pts:
            return np.zeros(len(pts), dtype=complex), np.full(len(pts), np.inf)
        if self._z is None and self.z_seed is None:
            raise InputError("extension ring requires a z seed")
        off = 0 if self._z is None else 1
        chain = [self._prev_pt] * off + list(pts)
        Z = np.empty(len(chain), dtype=complex)
        S = np.empty(len(chain))
        if off:
            Z[0], S[0] = self._z, self._zsep
        coeffs = rel_coeffs(self.ring, pts)
        k = off
        while k < len(chain):
            rows = coeffs[k - off:]
            z = newton_roots(rows, Z[k - 1] if k else self.z_seed)
            failed = np.flatnonzero(np.isnan(z))
            conv = int(failed[0]) if len(failed) else len(z)
            if k == 0 and not conv:
                raise RootNotConverged(
                    f"Newton from the seed {self.z_seed} did not converge")
            end = k + conv
            Z[k:end] = z[:conv]
            S[k:end] = certified_separation(rows[:conv], z[:conv])
            lo = max(k, 1)
            jump = (np.abs(np.diff(Z[lo - 1:end]))
                    >= STEP_FRACTION * np.minimum(S[lo - 1:end - 1], S[lo:end]))
            stop = lo + int(np.argmax(jump)) if jump.any() else end
            _raise_first([(S[k:stop] < ROOT_SEPARATION,
                           lambda i: self._collision(chain[k + i]))])
            if stop == k:
                Z[k], S[k] = self._z_step(chain[k - 1], Z[k - 1], S[k - 1],
                                          chain[k], 0)
                stop += 1
            k = stop
        self._prev_pt, self._z, self._zsep = chain[-1], complex(Z[-1]), S[-1]
        return Z[off:], S[off:]

    def _z_step(self, p0, z0, s0, p1, depth):
        """(z, separation) at p1 from (z0, s0) at p0, bisected if rejected."""
        coeffs = rel_coeffs(self.ring, [p1])
        z1 = newton_roots(coeffs, z0)
        if np.isnan(z1[0]):
            return self._z_halves(p0, z0, s0, p1, depth + 1)
        s1 = certified_separation(coeffs, z1)[0]
        if s1 < ROOT_SEPARATION:
            raise self._collision(p1)
        if abs(z1[0] - z0) < STEP_FRACTION * min(s0, s1):
            return z1[0], s1
        return self._z_halves(p0, z0, s0, p1, depth + 1)

    def _z_halves(self, p0, z0, s0, p1, depth):
        if depth > MAX_BISECTIONS:
            raise TrackingLost(f"generator continuation to {p1} needs more "
                               f"than {MAX_BISECTIONS} bisections")
        mid = _midpoint(p0, p1)
        zm, sm = self._z_step(p0, z0, s0, mid, depth)
        return self._z_step(mid, zm, sm, p1, depth)

    def _eig_step(self, a, b, depth):
        """Permutation taking the roots of a to those of b, each a tuple
        (point, z, separation, roots); bisected if the match is rejected."""
        perm, ok = _nearest_match(a[3][None], b[3][None])
        if ok[0]:
            return perm[0]
        if depth >= MAX_BISECTIONS:
            raise TrackingLost(f"eigenvalue continuation to {b[0]} needs more "
                               f"than {MAX_BISECTIONS} bisections")
        pm = _midpoint(a[0], b[0])
        zm, sm = ((0j, np.inf) if self.ring.ext is None
                  else self._z_step(a[0], a[1], a[2], pm, depth))
        wm = _eig(_matrix_rows(self._T0, np.array([(zm,) + pm])), False)[0][0]
        mid = (pm, zm, sm, wm)
        return self._eig_step(mid, b, depth + 1)[self._eig_step(a, mid, depth + 1)]

    def z_at(self, tprime):
        if self.ring.ext is None:
            return None
        zs, _ = self._track_z([self._full_point(tprime)])
        return complex(zs[0])

    def t0_matrix(self, tprime):
        """T0 at one point, with z continued from the last tracked point."""
        zv = self.z_at(tprime)
        row = (0j if zv is None else zv,) + self._full_point(tprime)
        return _matrix_rows(self._T0, np.array([row]))[0]

    def frames(self, path):
        """(values, roots, frames) along a path, continuation-ordered.

        values is the (N, nvars + 1) array of (z, t_1, ..., t_n) with z
        tracked along the path (0 on a plain ring) and t_n = 0; roots is
        (N, n) and frames is (N, n, n), columns following the roots.
        """
        return self._track(path, True)

    def roots(self, path):
        """(values, roots) of frames(path), with no eigenvectors computed;
        the sampler's state moves on exactly as under frames."""
        values, roots, _ = self._track(path, False)
        return values, roots

    def _track(self, path, vectors):
        pts = [self._full_point(tp) for tp in path]
        zs, seps = self._track_z(pts)
        values = np.column_stack(
            [zs, np.array(pts, dtype=complex).reshape(len(pts), self.n)])

        def bridge(k, w0, w1):
            a = self._roots_at if k == 0 else (pts[k - 1], zs[k - 1], seps[k - 1])
            return self._eig_step(a + (w0,), (pts[k], zs[k], seps[k], w1), 0)

        roots, P = ordered_eig(_matrix_rows(self._T0, values), self._prev_roots,
                               bridge, vectors)
        if len(roots):
            self._prev_roots = roots[-1]
            self._roots_at = (pts[-1], zs[-1], seps[-1])
        return values, roots, P

    def frame(self, tprime):
        """(roots, eigenvector matrix) at one path point, continuation-ordered."""
        _, roots, P = self.frames([tprime])
        return roots[0], P[0]


def frames_along(m: SaitoMatrices, path, z_seed=None):
    """(values, roots, frames) of StructureSampler.frames on a fresh sampler,
    so the first point is labelled by _first_point_order."""
    sampler = StructureSampler(m, z_seed=z_seed)
    return sampler.frames([tuple(p) for p in path])


# ---------------------------------------------------------------------------
# solution extraction
# ---------------------------------------------------------------------------

def _windows(a):
    """The five shifted views a[d : N - 4 + d] a five-point stencil reads;
    the stencil lands on the interior points 2 .. N - 3."""
    return [a[d:len(a) - 4 + d] for d in range(5)]


def _uniform_step(s):
    """The spacing h of a uniform grid s, or ValueError if s drifts from it."""
    s = np.asarray(s)
    h = s[1] - s[0]
    k = np.arange(len(s))
    if np.any(np.abs(s - s[0] - k * h) > 1e-9 * np.maximum(1.0, abs(h) * k)):
        raise ValueError("sample grid must be uniform")
    return h


def _stencil_d1(vals, h):
    return (-vals[4] + 8 * vals[3] - 8 * vals[1] + vals[0]) / (12 * h)


def _stencil_d2(vals, h):
    return (-vals[4] + 16 * vals[3] - 30 * vals[2] + 16 * vals[1] - vals[0]) / (12 * h * h)


def _check_entry(m: SaitoMatrices, entry_choice):
    """entry_choice as (i, j), checked to be off-diagonal with n = 3."""
    if m.n != 3:
        raise InputError("PVI extraction needs n = 3")
    i, j = entry_choice
    if i == j or not (1 <= i <= 3 and 1 <= j <= 3):
        raise InputError("entry_choice must be off-diagonal in 1..3")
    return i, j


def _linear_entry(m: SaitoMatrices, binf_eigs, entry_choice):
    """(alpha, beta) with entry (i, j) of h B^(3) = alpha t_3 + beta, checked."""
    i, j = _check_entry(m, entry_choice)
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


def _samples_on(alpha, beta, values, roots, path, svals):
    """PVI samples of one entry on the tracked values and roots of a path."""
    if svals is None:
        svals = range(len(path))
    av, bv = EvalStack([alpha, beta]).eval_batch(values)
    z1, z2, z3 = roots.T
    den = z2 - z1
    with np.errstate(all="ignore"):
        z_entry = -bv / av
        y = (z_entry - z1) / den
        t = (z3 - z1) / den
    _raise_first([
        (np.abs(av) < 1e-12 * np.maximum(1.0, np.abs(bv)), lambda k:
         DegenerateLinearEntry(f"t_3-coefficient vanishes at {path[k]}")),
        (np.abs(den) < ROOT_SEPARATION, lambda k:
         RootCollision(f"z_2 - z_1 ~ 0 at {path[k]}")),
        (np.minimum(np.abs(t), np.abs(t - 1)) < 1e-8, lambda k:
         RootCollision(f"cross-ratio t hits 0/1 at {path[k]}")),
    ])
    # Python scalars in the per-point records: numpy scalars cost more to
    # build and to read back, point by point
    samples = [P6Sample(s=sv, tprime=tp, roots=tuple(r), z_entry=ze, t=tv, y=yv)
               for sv, tp, r, ze, tv, yv in zip(
                   np.asarray(svals, dtype=float).tolist(), path,
                   roots.tolist(), z_entry.tolist(), t.tolist(), y.tolist())]
    _differentiate_samples(samples)
    return samples


def extract_p6_solution(m: SaitoMatrices, binf_eigs, entry_choice, path,
                        z_seed=None, svals=None) -> List[P6Sample]:
    """PVI samples along a t'-path from the chosen off-diagonal entry.

    binf_eigs are the Okubo eigenvalues (lambda_1, lambda_2, lambda_3); the
    (i, j) entry of h B^(3) = -adj(T) Binf is linear in t_3 and its zero,
    cross-ratio normalized against the roots of h, is the PVI solution.
    """
    alpha, beta = _linear_entry(m, binf_eigs, entry_choice)
    path = [tuple(p) for p in path]
    values, roots = StructureSampler(m, z_seed=z_seed).roots(path)
    return _samples_on(alpha, beta, values, roots, path, svals)


def _differentiate_samples(samples):
    if len(samples) < 5:
        return
    h = _uniform_step([x.s for x in samples])
    ys = _windows(np.array([x.y for x in samples]))
    ts = _windows(np.array([x.t for x in samples]))
    dy, dt = _stencil_d1(ys, h), _stencil_d1(ts, h)
    d2y, d2t = _stencil_d2(ys, h), _stencil_d2(ts, h)
    _raise_first([(np.abs(dt) < 1e-12, lambda j: DegenerateLinearEntry(
        f"dt/ds vanishes at sample {j + 2}; path is not t-regular"))])
    dy_dt = dy / dt
    d2y_dt2 = (d2y * dt - dy * d2t) / dt ** 3
    for smp, a, b in zip(samples[2:-2], dy_dt.tolist(), d2y_dt2.tolist()):
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


def frame_tangent(m: SaitoMatrices, values, roots, P, lam):
    """(dz, dB): exact first derivatives of the roots and of the residues
    residues_from_frame(P, lam) at one point (values, roots, P) of a track.

    dz[i, k] = dz_i/dt_{k+1} and dB[k, i] = dB_i/dt_{k+1}.  For k < n, with
    X = P^{-1} (dT0/dt_k) P, first-order eigen-perturbation gives dz = diag X
    and dP = P Y, Y_ij = X_ij / (z_j - z_i) off the diagonal; Y_ii = 0, as
    the residues do not depend on the diagonal gauge.  Then
    dB_i = -P [Y, E_i] P^{-1} Binf.  Along t_n, dz = -1 and dB = 0.
    """
    n = m.n
    Pinv = np.linalg.inv(P)
    X = Pinv @ _matrix_rows(m.dT0_stack, values[None])[0] @ P
    gap = roots - roots[:, None]                        # [i, j] = z_j - z_i
    np.fill_diagonal(gap, 1)
    Y = X / gap * (1 - np.eye(n))
    PinvL = Pinv * np.array([complex(x) for x in lam])
    dB = np.zeros((n, n, n, n), dtype=complex)
    dB[:n - 1] = (np.einsum("kai,ib->kiab", -(P @ Y), PinvL)
                  + np.einsum("ai,kib->kiab", P, Y @ PinvL))
    dz = np.full((n, n), -1, dtype=complex)
    dz[:, :n - 1] = np.diagonal(X, axis1=1, axis2=2).T
    return dz, dB


def default_lambda(weights):
    """The PVI normalization diag(w_1 - w_3, w_2 - w_3, 0)."""
    w = [Fraction(x) for x in weights]
    return [w[0] - w[2], w[1] - w[2], Fraction(0)]


def p6_parameters(m: SaitoMatrices, point, sampler: StructureSampler,
                  lam=None, entry_choice=(1, 2)) -> P6Params:
    """theta and (alpha, beta, gamma, delta) from the residue traces at a
    point, on the frame that sampler, a StructureSampler of m, computes there.

    For entry (i, j) the two-dimensional reduction keeps the unknowns i, j
    and drops the remaining index k, which requires shifting the Okubo
    diagonal by -lam_k; hence theta_m = r_m + lam_k (= r_m - lam_3 in the
    default normalization where lam_3 = 0) and theta_inf = lam_i - lam_j.
    """
    _check_entry(m, entry_choice)
    if lam is None:
        lam = default_lambda(m.weights)
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
    val = _pvi_defects(t, y, dy, d2y, params)
    for s, v in zip(interior, val.tolist()):
        s.residual = v
    return float(val.max())


def pvi_grid_residual(ts, ys, params: P6Params) -> float:
    """Max |y'' - PVI_rhs(t, y, y')| over the interior of a uniform t-grid.

    ys are the values of y at the grid points ts; y' and y'' are the
    five-point stencils, formed for all interior points in one pass.
    """
    if len(ts) < 5:
        raise InsufficientSamples("need at least 5 samples for the stencil")
    h = _uniform_step(ts)
    win = _windows(np.asarray(ys, dtype=complex))
    return float(_pvi_defects(np.asarray(ts)[2:-2], win[2], _stencil_d1(win, h),
                              _stencil_d2(win, h), params).max())


def _pvi_defects(t, y, dy, d2y, params):
    """|y'' - PVI_rhs(t, y, y')| elementwise.  A sample sitting on a PVI pole
    (y in {0, 1, t}) yields a non-finite defect, reported as infinite rather
    than NaN."""
    with np.errstate(all="ignore"):
        val = np.abs(d2y - pvi_rhs(t, y, dy, params))
    val[~np.isfinite(val)] = np.inf
    return val


def pvi_on_frames(m: SaitoMatrices, lam, entry_choice, track, path, svals=None):
    """(samples, params, residual) of one PVI extraction on computed frames
    of the path (frames_along's track).

    The parameters are read from the frame at the first path point.
    """
    alpha, beta = _linear_entry(m, lam, entry_choice)
    values, roots, P = track
    samples = _samples_on(alpha, beta, values, roots, path, svals)
    params = _params_from_frame(P[0], lam, entry_choice)
    return samples, params, p6_residual(samples, params)


def survey_on_frames(m: SaitoMatrices, lam, track, path, svals=None) -> dict:
    """PVI residuals for every off-diagonal entry choice, reported not gated.

    Different entries give different solution branches; each is checked
    against its own parameter dictionary on the one set of frames of the
    path.  Entries whose column is killed by a zero Okubo eigenvalue (or
    that degenerate on the path) are reported by error name.  No
    equivalence between branches is asserted.
    """
    out = {}
    for i, j in permutations((1, 2, 3), 2):
        key = f"{i},{j}"
        try:
            _, params, residual = pvi_on_frames(m, lam, (i, j), track, path,
                                                svals)
        except (FlatIsoError, np.linalg.LinAlgError) as exc:
            out[key] = {"error": type(exc).__name__}
            continue
        if not np.isfinite(residual):
            out[key] = {"error": "PoleOnPath"}
            continue
        out[key] = {"residual": residual,
                    "thetainf": [params.thetainf.real, params.thetainf.imag]}
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


def params_to_json(params: P6Params) -> dict:
    """The report form of the parameters; the CLI's JSON encoder writes each
    complex value as [re, im]."""
    return {"theta": {"0": params.theta0, "1": params.theta1,
                      "t": params.thetat, "inf": params.thetainf},
            "alpha": params.alpha, "beta": params.beta,
            "gamma": params.gamma, "delta": params.delta,
            "r": params.r, "lambda": params.lam}
