"""Painlevé VI extraction from three-dimensional flat structures.

For n = 3 the discriminant h(t', .) is a cubic in t_3 with roots z_1, z_2,
z_3.  The off-diagonal entries of h * B^(3) = -adj(T) * Binf are linear in
t_3: with T = T0 - t_3 I, Cayley-Hamilton gives adj(T)_ij = T0_ij t_3 +
(T0_ik T0_kj - T0_kk T0_ij), k the third index, so the zero of entry (i, j)
is z_ij = T0_kk - T0_ik T0_kj / T0_ij, read off the tracked T0.  It is
normalized by the cross-ratio map sending (z_1, z_2, z_3) to (0, 1, t) to a
PVI solution y(t).  Everything numeric runs along a sampling path in t' and
stays stacked: a path of N points is one (N, n) point array in the tracker
and one P6Samples record of arrays after it, whose points and parameter
s = t_2 (path_parameter) are read off the tracked rows.  five_point is the
one finite-difference helper: the five-point central first difference on a
uniform grid at the interior points, and the second difference after it
where its caller reads one.

StructureSampler is the one path tracker: it continues the algebraic
generator z and the ordered roots of T0 together, in one loop of lockstep
passes, and tracks roots only.  Both are zeros of polynomials whose
coefficients are ring elements: z of the relation, and the roots of T0 of
h = det(t_n - T0), monic of degree n in t_n, whose coefficients the
structure compiles once, after T0's entries in one stack
(PotentialVF.T0_h_stack).  So one Newton continuation, _continue, tracks
every zero: a pass runs Newton's method on all remaining points at once
and certifies the distance from each zero to the others of its
polynomial in one call (numeric.certified_separation).  z comes first
(z = 0 on a plain ring), each row from the last accepted z (z_seed on a
fresh sampler).  Then T0 and h's coefficients are evaluated on the rows z
keeps, in one numeric.EvalStack call, and the roots are continued on them,
each row from the first-order prediction of its roots by the roots and
spectral projectors of the last accepted row (np.roots of the first row on
a fresh sampler), with no eigensolver.  One step rule, _steps_ok, decides
every tracked zero: a step is accepted when Newton converged and each zero
moved less than STEP_FRACTION (1/4) of its certified separation at both
ends.  A pass keeps the rows before its first rejected step and the next
pass starts there; a pass whose first step is rejected bisects that step,
the whole state (point, zeros, separations) at the midpoint, under the same
rule, and raises TrackingLost, a NumericError (CLI exit 3), past
MAX_BISECTIONS (24) halvings of one step or MAX_BISECTION_PASSES (1024)
passes in all.  For the earliest point where it happens, a z separation
below numeric.ROOT_SEPARATION raises RootCollision, a root separation below
it EigenvalueCollision (a RootCollision too), and a T0 or h that is not
finite BlowUp.  A path's Track holds its rows, roots and T0.

No eigenvector is formed: projectors turns the roots and T0 of a Track into
the spectral projectors E_i, the residues of the resolvent of T0, from
which isomono.snapshots_along reads the Okubo residues -E_i Binf.  After
the tracker every check and verb reads those residue snapshots: lam is
their Binf, theta their traces at the first point (params_from_traces).
projector_tangent differentiates one snapshot exactly: the roots and the
Okubo residues along each t_k, from the exact dT0/dt_k of the structure,
by first-order perturbation of the resolvent, dz_i = tr(E_i D) and
dE_i = sum_{j != i} (E_i D E_j + E_j D E_i) / (z_i - z_j).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
import math
from typing import List, NamedTuple

import numpy as np

from .errors import (BlowUp, DegenerateLinearEntry, EigenvalueCollision,
                     EntryIdenticallyZero, FlatIsoError, InputError,
                     InsufficientSamples, PoleOnPath, RootCollision,
                     RootNotConverged, TrackingLost)
from .flatcore import PotentialVF
from .numeric import (ROOT_SEPARATION, certified_separation, newton_roots,
                      rel_coeffs)

# A continuation step is accepted only below this fraction of each tracked
# zero's separation; a rejected step is bisected at most this deep, in at
# most this many passes.
STEP_FRACTION = 0.25
MAX_BISECTIONS = 24
MAX_BISECTION_PASSES = 1024


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
class P6Samples:
    """PVI samples along a path, stacked: the path parameter s (N,), the
    tracked points (t_1, t_2) (N, 2), and t and y (N,)."""
    s: np.ndarray
    points: np.ndarray
    t: np.ndarray
    y: np.ndarray


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


def _steps_ok(prev, new, sep_prev, sep_new):
    """The one step rule: where a step of tracked zeros passes, along the
    first axis.  Every zero (one per row, or a row of them) moved less than
    STEP_FRACTION of its separation at both ends of the step."""
    moved = np.abs(new - prev) < STEP_FRACTION * np.minimum(sep_prev, sep_new)
    return moved.all(axis=tuple(range(1, moved.ndim)))


def _continue(coeffs, seeds, last):
    """(zeros, separations, good, checked) of one Newton continuation over
    the rows of coeffs (N, d + 1), polynomial coefficients lowest first.

    seeds (N,) for z or (N, n) for the poles holds each row's start: one
    newton_roots call runs from them on all rows and labels at once, and
    one certified_separation call bounds each zero's distance to the
    others.  last is (zeros, separations) of the row before, or None on a
    fresh sampler, whose first row has no step and raises RootNotConverged
    where Newton fails on it.  The zeros and separations cover the rows
    before the first that Newton could not solve; good counts the rows
    before the first step _steps_ok rejects, and checked those up to and
    including it.
    """
    count, k = len(coeffs), int(np.prod(seeds.shape[1:]))
    rows = np.repeat(coeffs, k, axis=0)
    w = newton_roots(rows, seeds.ravel()).reshape(seeds.shape)
    failed = np.flatnonzero(np.isnan(w.reshape(count, k)).any(axis=1))
    conv = int(failed[0]) if len(failed) else count
    if last is None and not conv:
        raise RootNotConverged(f"Newton from the seed {seeds[0]} did not converge")
    w = w[:conv]
    sep = certified_separation(rows[:conv * k], w.ravel()).reshape(w.shape)
    w0, s0 = last or (w[:1], sep[:1])
    ok = _steps_ok(np.concatenate([w0, w])[:conv], w,
                   np.concatenate([s0, sep])[:conv], sep)
    if last is None:
        ok[:1] = True                     # a fresh first row has no step
    good = conv if ok.all() else int(np.argmin(ok))
    return w, sep, good, min(good + 1, conv)


def ordered_eig(coeffs, T0, last=None):
    """_continue for the roots of T0, the t_n-roots of h, on rows of h's
    t_n-coefficients coeffs (N, n + 1) and of T0 (N, n, n), continued from
    last, the roots, separations and T0 of the row before.

    Newton on row k starts from the first-order prediction
    u_i + tr(E_i (T0_k - T)) by the roots u_i, the spectral projectors E_i
    (projectors) and T0 = T of the row before, or from u_i where that is
    not finite.  On a fresh sampler (no last) that row is the first, with
    np.roots' roots, and the labels are put in _first_point_order of the
    polished first row, with ties within ROOT_SEPARATION scaled by the root
    size.
    """
    u, T = ((np.roots(coeffs[0, ::-1]), T0[0]) if last is None
            else (last[0][0], last[2][0]))
    seeds = np.broadcast_to(u, (len(T0), len(u)))
    if last is not None or len(T0) > 1:   # a row besides the one of u
        pred = u + np.einsum("iab,Nba->Ni", projectors(T[None], u[None])[0],
                             T0 - T)
        seeds = np.where(np.isfinite(pred), pred, u)
    w, sep, good, checked = _continue(coeffs, seeds, last and last[:2])
    if last is not None:
        return w, sep, good, checked
    order = _first_point_order(
        w[0], ROOT_SEPARATION * max(1.0, float(np.abs(w[0]).max())))
    return w[:, order], sep[:, order], good, checked


def projectors(T0, z):
    """The spectral projectors of stacked matrices T0 (N, n, n) at their
    simple roots z (N, n), as (N, n, n, n) with E_i at [:, i].

    E_i = adj(z_i - T0) / prod_{j != i} (z_i - z_j) is the residue of the
    resolvent (x - T0)^{-1} at z_i (Kato, Perturbation Theory for Linear
    Operators, II 1-2): E_i E_j = delta_ij E_i and sum_i E_i = I.  With
    c_k the coefficients of prod_j (x - z_j), the Faddeev-LeVerrier
    recursion B_{n-1} = I, B_{k-1} = T0 B_k + c_k I gives
    adj(x - T0) = sum_k x^k B_k, summed at each root by Horner's rule.
    E_i does not change when T0 and z are shifted by one number, so both
    are first shifted by the mean root, which keeps the terms at the size
    of the spread of the roots.  Arrays run with the row axis last, so each
    operation is one long loop.
    """
    N, n = z.shape
    eye = np.eye(n)[..., None]
    shift = z.mean(axis=1)
    A = np.moveaxis(T0, 0, -1) - eye * shift            # (n, n, N)
    w = z.T - shift                                     # (root, N)
    c = np.zeros((n + 1, N), dtype=complex)             # c[k] of x^k
    c[0] = 1
    for j in range(n):
        c[1:j + 2] = c[:j + 1] - w[j] * c[1:j + 2]
        c[0] = -w[j] * c[0]
    adj = B = eye                                       # B_{n-1} = I
    for k in range(n - 1, 0, -1):
        TB = A if k == n - 1 else (A[:, :, None] * B[None]).sum(axis=1)
        B = TB + c[k] * eye
        adj = adj * w[:, None, None] + B                # (root, n, n, N)
    gap = w[:, None] - w + eye                          # [i, j] = z_i - z_j
    # gaps multiplied left to right for any N (prod(axis=1) is not, on one row)
    E = adj / math.prod(gap.swapaxes(0, 1))[:, None, None]
    return np.ascontiguousarray(np.moveaxis(E, -1, 0))


class Track(NamedTuple):
    """A tracked path: rows values (N, nvars + 1) of (z, t_1, ..., t_n), the
    ordered roots z (N, n) of T0 and T0 (N, n, n), named as on
    isomono.OkuboNumeric."""
    values: np.ndarray
    z: np.ndarray
    T0: np.ndarray


def path_parameter(values):
    """The path parameter s of tracked rows: t_{n-1}, the column before t_n."""
    return values[:, -2].real


class StructureSampler:
    """The path tracker: the algebraic generator z and the ordered roots of
    T0, the t_n-roots of h.

    Both are continued by one Newton continuation in one loop of lockstep
    passes under one step rule (see the module docstring); the state is the
    last tracked row with the certified separations of its zeros, so
    successive calls continue from it.
    """

    def __init__(self, m: PotentialVF, z_seed=None):
        self.ring = m.ring
        self.n = m.n
        self.z_seed = z_seed
        self._stack = m.T0_h_stack
        self._last = None

    @np.errstate(all="ignore")      # a non-finite value is BlowUp or a NaN zero
    def _pass(self, last, pts, k):
        """(Track, separations) of the accepted rows of one lockstep pass
        over the (count, n) points pts, continued from last, a row and its
        separations (None on a fresh sampler, whose first row starts from
        z_seed and has no step to check).  Column 0 of the separations is
        z's (inf on a plain ring), the others the roots'.

        z is continued first (_continue on the relation), then the roots on
        the rows z keeps (ordered_eig on h), and rows are kept up to the
        first step either rejects.  BlowUp names the earliest row z keeps
        where T0 or h is not finite; RootCollision the earliest row whose z
        separation is below ROOT_SEPARATION, on the rows up to and including
        the first rejected z step, and EigenvalueCollision the earliest
        whose root separation is, on every row whose roots converged (all
        the roots of a row are tracked, whatever their labels): as path
        point k + i, where pts[0] is path point k, or by its coordinates
        where k is None.
        """
        prev, prev_sep = last or (None, None)
        count = len(pts)
        values = np.zeros((count, self.n + 1), dtype=complex)
        values[:, 1:] = pts
        seps = np.full((count, self.n + 1), np.inf)
        good = checked = count
        if self.ring.ext is not None:
            if prev is None and self.z_seed is None:
                raise InputError("extension ring requires a z seed")
            z, zsep, good, checked = _continue(
                rel_coeffs(self.ring, pts),
                np.full(count, self.z_seed if prev is None
                        else prev.values[0, 0], dtype=complex),
                None if prev is None else (prev.values[:, 0], prev_sep[:, 0]))
            values[:len(z), 0], seps[:len(z), 0] = z, zsep
        both = self._stack.eval_batch(values[:good])       # T0's n^2, then h's
        T0 = np.moveaxis(both[:-self.n - 1].reshape(self.n, self.n, -1), -1, 0)
        h = both[-self.n - 1:].T

        def where(i):
            return f"path point {k + i}" if k is not None else f"{pts[i]}"
        _raise_first([
            (~np.isfinite(T0).all(axis=(1, 2)),
             lambda i: BlowUp(f"T0 is not finite at {where(i)}")),
            (~np.isfinite(h).all(axis=1),
             lambda i: BlowUp(f"h is not finite at {where(i)}"))])
        roots, rsep, accepted, _ = ordered_eig(
            h, T0, None if prev is None else (prev.z, prev_sep[:, 1:], prev.T0))
        seps[:len(roots), 1:] = rsep
        _raise_first([
            (seps[:checked, 0] < ROOT_SEPARATION, lambda i: RootCollision(
                f"generator roots closer than {ROOT_SEPARATION} at {where(i)}")),
            (rsep.min(axis=1) < ROOT_SEPARATION,
             lambda i: EigenvalueCollision(
                 f"roots closer than {ROOT_SEPARATION} at {where(i)}"))])
        return (Track(values[:accepted], roots[:accepted], T0[:accepted]),
                seps[:accepted])

    def _bisect(self, last, point, k):
        """_pass at point, continued from last in one step where the step
        passes, else through the midpoint in two halves, each continued the
        same way; TrackingLost past MAX_BISECTIONS halvings of one step or
        MAX_BISECTION_PASSES passes in all."""
        todo = [(point, k, 0)]                # targets, the next one last
        for _ in range(MAX_BISECTION_PASSES):
            target, at, depth = todo[-1]
            rows, seps = self._pass(last, target[None], at)
            if len(seps):
                last = rows, seps
                todo.pop()
                if not todo:
                    return last
            elif depth == MAX_BISECTIONS:
                raise TrackingLost(f"continuation to {target} needs more "
                                   f"than {MAX_BISECTIONS} bisections")
            else:
                todo[-1] = target, at, depth + 1
                todo.append(((last[0].values[0, 1:] + target) / 2, None,
                             depth + 1))
        raise TrackingLost(f"continuation to {point} needs more than "
                           f"{MAX_BISECTION_PASSES} passes")

    def track(self, path):
        """The Track of a path, continuation-ordered: rows (z, t_1, ...,
        t_n) with z tracked (0 on a plain ring) and t_n = 0 (missing
        trailing coordinates of the path points are 0), the roots and T0.

        Continued from the state, which moves to the last row: passes until
        every point is accepted, and a bisection where a pass accepts none.
        """
        path = np.asarray(path)
        pts = np.zeros((len(path), self.n), dtype=complex)
        pts[:, :path.shape[1]] = path
        parts, k = [], 0
        while k < len(pts):
            rows, seps = self._pass(self._last, pts[k:], k)
            if not len(seps):
                rows, seps = self._bisect(self._last, pts[k], k)
            self._last = Track(*(a[-1:] for a in rows)), seps[-1:]
            parts.append(rows)
            k += len(seps)
        return parts[0] if len(parts) == 1 else Track(
            *map(np.concatenate, zip(*parts)))

    def t0_matrix(self, tprime):
        """T0 at one point, with z and the roots continued there from the
        last tracked point."""
        return self.track([tprime]).T0[0]


# ---------------------------------------------------------------------------
# solution extraction
# ---------------------------------------------------------------------------

def five_point(s, a, second=False):
    """(s, a, da/ds) at the interior points 2 .. N - 3 of the uniform grid
    s, where the five-point central differences along the first axis of a
    reach, and d2a/ds2 after them where second is true.

    Raises InsufficientSamples below five points, and InputError where s
    has a zero step or drifts from a uniform grid.
    """
    if len(a) < 5:
        raise InsufficientSamples("need at least 5 samples for the stencil")
    s, a = np.asarray(s), np.asarray(a)
    h = s[1] - s[0]
    k = np.arange(len(s))
    if h == 0 or np.any(np.abs(s - s[0] - k * h)
                        > 1e-9 * np.maximum(1.0, abs(h) * k)):
        raise InputError("sample grid must be uniform with a nonzero step")
    v = [a[d:len(a) - 4 + d] for d in range(5)]
    out = (s[2:-2], v[2], (-v[4] + 8 * v[3] - 8 * v[1] + v[0]) / (12 * h))
    if not second:
        return out
    return out + ((-v[4] + 16 * v[3] - 30 * v[2] + 16 * v[1] - v[0])
                  / (12 * h * h),)


def _check_entry(m: PotentialVF, entry_choice):
    """entry_choice as (i, j), checked to be off-diagonal with n = 3."""
    if m.n != 3:
        raise InputError("PVI extraction needs n = 3")
    i, j = entry_choice
    if i == j or not (1 <= i <= 3 and 1 <= j <= 3):
        raise InputError("entry_choice must be off-diagonal in 1..3")
    return i, j


def _linear_entry(m: PotentialVF, binf_eigs, entry_choice):
    """(i, j, k), 0-based, of the chosen entry (i, j) of h B^(3) = -adj(T) Binf
    and the third index k, checked on T0.

    With T = T0 - t_3 I, Cayley-Hamilton gives adj(T)_ij = T0_ij t_3 +
    (T0_ik T0_kj - T0_kk T0_ij) for i != j, so the entry is linear in t_3,
    with the zero z_ij = T0_kk - T0_ik T0_kj / T0_ij.  It is identically
    zero where T0_ij and T0_ik T0_kj are, and has no t_3 term where T0_ij
    alone is.
    """
    i, j = _check_entry(m, entry_choice)
    lam = [complex(x) for x in binf_eigs]
    if abs(lam[j - 1]) < 1e-14:
        raise EntryIdenticallyZero(
            f"column {j} of h B^(3) vanishes (lambda_{j} = 0)")
    i, j = i - 1, j - 1
    k = 3 - i - j
    T0 = m.T0
    if T0[i][j].is_zero():
        if m.ring.fused_sum([(1, T0[i][k], T0[k][j])]).is_zero():
            raise EntryIdenticallyZero(
                f"adj(T)[{i + 1}][{j + 1}] is identically zero")
        raise DegenerateLinearEntry(f"entry ({i + 1},{j + 1}) has no t_3 term")
    return i, j, k


def _samples_on(entry, rows):
    """PVI samples of one entry (i, j, k) (_linear_entry) on the tracked rows
    of a path, a Track or an isomono.OkuboNumeric: the zero of adj(T)_ij =
    alpha t_3 + beta from the tracked T0, cross-ratio normalized against the
    tracked roots z, with the points and s read off the row values."""
    i, j, k = entry
    T0 = rows.T0
    alpha = T0[:, i, j]
    beta = T0[:, i, k] * T0[:, k, j] - T0[:, k, k] * alpha
    z1, z2, z3 = rows.z.T
    den = z2 - z1
    with np.errstate(all="ignore"):
        y = (-beta / alpha - z1) / den
        t = (z3 - z1) / den
    _raise_first([
        (np.abs(alpha) < 1e-12 * np.maximum(1.0, np.abs(beta)), lambda p:
         DegenerateLinearEntry(f"t_3-coefficient vanishes at path point {p}")),
        (np.minimum(np.abs(t), np.abs(t - 1)) < 1e-8, lambda p:
         RootCollision(f"cross-ratio t hits 0/1 at path point {p}")),
    ])
    return P6Samples(s=path_parameter(rows.values), points=rows.values[:, 1:-1],
                     t=t, y=y)


def extract_p6_solution(m: PotentialVF, binf_eigs, entry_choice, path,
                        z_seed=None, svals=None) -> P6Samples:
    """PVI samples along a t'-path from the chosen off-diagonal entry.

    binf_eigs are the Okubo eigenvalues (lambda_1, lambda_2, lambda_3); the
    (i, j) entry of h B^(3) = -adj(T) Binf is linear in t_3 and its zero,
    read off the tracked T0 (_linear_entry) and cross-ratio normalized
    against the roots of h, is the PVI solution.  svals, where given,
    replaces s of the tracked rows.
    """
    entry = _linear_entry(m, binf_eigs, entry_choice)
    samples = _samples_on(entry, StructureSampler(m, z_seed=z_seed).track(path))
    if svals is not None:
        samples.s = np.asarray(svals, dtype=float)
    return samples


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

def projector_tangent(m: PotentialVF, snap, lam):
    """(dz, dB): exact first derivatives of the roots and of the residues
    -E_i diag(lam) at snap, one point of residue snapshots
    (isomono.OkuboNumeric), whose row values, roots z and projectors E it
    reads.

    dz[i, k] = dz_i/dt_{k+1} and dB[k, i] = dB_i/dt_{k+1}.  For k < n, with
    D = dT0/dt_k, first-order perturbation of the resolvent gives
    dz_i = tr(E_i D) and dE_i = sum_{j != i} (E_i D E_j + E_j D E_i) /
    (z_i - z_j).  Along t_n, dz = -1 and dB = 0.
    """
    n, E = m.n, snap.E
    D = m.dT0_stack.eval_batch(snap.values[None])[..., 0]
    EDE = np.einsum("iab,kbc,jcd->kijad", E, D, E)
    gap = snap.z[:, None] - snap.z + np.eye(n)          # [i, j] = z_i - z_j
    dE = np.einsum("ij,kijab->kiab", (1 - np.eye(n)) / gap,
                   EDE + EDE.swapaxes(1, 2))
    dB = np.zeros((n, n, n, n), dtype=complex)
    dB[:n - 1] = -dE * np.array([complex(x) for x in lam])
    dz = np.full((n, n), -1, dtype=complex)
    dz[:, :n - 1] = np.einsum("iab,kba->ik", E, D)
    return dz, dB


def default_lambda(weights):
    """The PVI normalization diag(w_1 - w_3, w_2 - w_3, 0)."""
    w = [Fraction(x) for x in weights]
    return [w[0] - w[2], w[1] - w[2], Fraction(0)]


def p6_parameters(m: PotentialVF, point, sampler: StructureSampler,
                  lam=None, entry_choice=(1, 2)) -> P6Params:
    """params_from_traces at a point, of the traces of the residues
    -E_i diag(lam) that isomono.okubo_residues forms and checks on the
    projectors of the roots and T0 that sampler, a StructureSampler of m,
    tracks there."""
    from .isomono import okubo_residues
    _check_entry(m, entry_choice)
    if lam is None:
        lam = default_lambda(m.weights)
    _, z, T0 = sampler.track([point])
    _, _, traces = okubo_residues(projectors(T0, z), lam, [point])
    return params_from_traces(traces[0], lam, entry_choice)


def params_from_traces(r, lam, entry_choice):
    """theta and (alpha, beta, gamma, delta) of entry_choice from residue
    traces r.

    For entry (i, j) the two-dimensional reduction keeps the unknowns i, j
    and drops the remaining index k, which requires shifting the Okubo
    diagonal by -lam_k; hence theta_m = r_m + lam_k (= r_m - lam_3 in the
    default normalization where lam_3 = 0) and theta_inf = lam_i - lam_j.
    """
    lamc = [complex(x) for x in lam]
    i, j = entry_choice
    k = ({1, 2, 3} - {i, j}).pop()
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


def _sample_defects(samples: P6Samples, params: P6Params):
    """(dy/dt, d2y/dt2, |y'' - PVI_rhs(t, y, y')|) at the interior samples:
    the stencils of t and y along s, then the chain rule."""
    s, y, dy, d2y = five_point(samples.s, samples.y, second=True)
    _, t, dt, d2t = five_point(samples.s, samples.t, second=True)
    _raise_first([(np.abs(dt) < 1e-12, lambda j: DegenerateLinearEntry(
        f"dt/ds vanishes at s = {s[j]}; path is not t-regular"))])
    dy_dt = dy / dt
    d2y_dt2 = (d2y * dt - dy * d2t) / dt ** 3
    return dy_dt, d2y_dt2, _pvi_defects(t, y, dy_dt, d2y_dt2, params)


def p6_residual(samples: P6Samples, params: P6Params) -> float:
    """Max |y'' - PVI_rhs(t, y, y')| over the interior samples."""
    return float(_sample_defects(samples, params)[2].max())


def pvi_grid_residual(ts, ys, dys, params: P6Params) -> float:
    """Max |y'' - PVI_rhs(t, y, y')| over the interior of a uniform t-grid.

    ys and dys are y and y' at the grid points ts; y'' is the five-point
    first difference of y', formed for all interior points in one pass.
    """
    t, dy, d2y = five_point(ts, np.asarray(dys, dtype=complex))
    y = np.asarray(ys, dtype=complex)[2:-2]
    return float(_pvi_defects(t, y, dy, d2y, params).max())


def _pvi_defects(t, y, dy, d2y, params):
    """|y'' - PVI_rhs(t, y, y')| elementwise.  A sample sitting on a PVI pole
    (y in {0, 1, t}, to within eps max(1, |t|), below which rounding leaves
    y's distance to the pole) has no finite defect: PoleOnPath names the
    first such sample."""
    with np.errstate(all="ignore"):
        val = np.abs(d2y - pvi_rhs(t, y, dy, params))
    pole = np.minimum(np.minimum(np.abs(y), np.abs(y - 1)), np.abs(y - t))
    val[pole <= np.finfo(float).eps * np.maximum(1, np.abs(t))] = np.inf
    _raise_first([(~np.isfinite(val), lambda k: PoleOnPath(
        f"the PVI defect is not finite at the sample t = {t[k]}, "
        f"y = {y[k]}: a pole of PVI (y in {{0, 1, t}}) lies on the path"))])
    return val


def pvi_on_frames(m: PotentialVF, entry_choice, snaps):
    """(samples, params, defects) of one PVI extraction on residue
    snapshots (isomono.OkuboNumeric): lam is their Binf, and the parameters
    are read off their traces at the first point; defects, formed once for
    the residual and the CSV, are _sample_defects(samples, params)."""
    samples = _samples_on(_linear_entry(m, snaps.Binf, entry_choice), snaps)
    params = params_from_traces(snaps.traces[0], snaps.Binf, entry_choice)
    return samples, params, _sample_defects(samples, params)


def survey_on_frames(m: PotentialVF, snaps) -> dict:
    """PVI residuals for every off-diagonal entry choice, reported not gated.

    Different entries give different solution branches; each is checked
    against its own parameter dictionary on the one set of residue
    snapshots of the path.  Entries whose column is killed by a zero Okubo eigenvalue (or
    that degenerate on the path) are reported by error name.  No
    equivalence between branches is asserted.
    """
    out = {}
    for i, j in permutations((1, 2, 3), 2):
        key = f"{i},{j}"
        try:
            _, params, (_, _, res) = pvi_on_frames(m, (i, j), snaps)
        except FlatIsoError as exc:
            out[key] = {"error": type(exc).__name__}
            continue
        out[key] = {"residual": float(res.max()), "thetainf": params.thetainf}
    return out


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def samples_to_csv(samples: P6Samples, defects) -> str:
    """One line per sample; defects, the dy/dt, d2y/dt2 and PVI residuals
    of pvi_on_frames, fill the cells of the interior samples."""
    dy_dt, d2y_dt2, residual = defects

    def c(v):
        v = complex(v)
        return f"{v.real:.16g}{v.imag:+.16g}j"

    def column(vals, fmt):
        edge = [""] * ((len(samples.s) - len(vals)) // 2)
        return edge + [fmt(v) for v in vals.tolist()] + edge
    lines = ["s,t1,t2,t,y,dy,d2y,residual"]
    for s, tp, t, y, dy, d2y, res in zip(
            samples.s.tolist(), samples.points.tolist(), samples.t.tolist(),
            samples.y.tolist(), column(dy_dt, c), column(d2y_dt2, c),
            column(residual, lambda v: f"{v:.6g}")):
        lines.append(",".join([f"{s:.16g}", c(tp[0]), c(tp[1]), c(t), c(y),
                               dy, d2y, res]))
    return "\n".join(lines) + "\n"


def params_to_json(params: P6Params) -> dict:
    """The report form of the parameters; the CLI's JSON encoder writes each
    complex value as [re, im]."""
    return {"theta": {"0": params.theta0, "1": params.theta1,
                      "t": params.thetat, "inf": params.thetainf},
            "alpha": params.alpha, "beta": params.beta,
            "gamma": params.gamma, "delta": params.delta,
            "r": params.r, "lambda": params.lam}
