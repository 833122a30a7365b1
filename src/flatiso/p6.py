"""Painlevé VI extraction from three-dimensional flat structures.

For n = 3 the discriminant h(t', .) is a cubic in t_3 with roots z_1, z_2,
z_3.  The off-diagonal entries of h * adj(T) * Binf are linear in t_3; the
zero z_ij of a chosen entry, normalized by the cross-ratio map sending
(z_1, z_2, z_3) to (0, 1, t), is a PVI solution y(t).  Everything numeric
runs along a sampling path in t' and stays stacked: a path of N points is
one (N, n) point array in the tracker and one P6Samples record of arrays
after it, whose points and parameter s = t_2 (path_parameter) are read
off the tracked rows.  five_point is the one finite-difference helper: the
five-point central differences on a uniform grid, at the interior points.

StructureSampler is the one path tracker: it continues the algebraic
generator z and the ordered roots of T0 together, in one loop of lockstep
passes under one step rule, and tracks roots only.  A pass runs Newton's
method for z on all remaining points at once from the last accepted z
(z = 0 on a plain ring), certifies the distance from each z to the other
roots of the relation in one call (numeric.certified_separation),
evaluates T0 on the same rows in one numeric.EvalStack call and finds the
roots as one stack (for n = 3 in closed form, _eig3, with
np.linalg.eigvals only on the rows whose roots it cannot certify within
EIG_TOL).  A step is accepted when Newton converged, |dz| is
below STEP_FRACTION (1/4) of the separation at both of its ends, and the
nearest-neighbour match of the roots is accepted (each root moved less than
STEP_FRACTION of the distance to its second-nearest candidate).  A pass keeps
the rows before its first rejected step and the next pass starts there; a
pass whose first step is rejected bisects that step, the whole state (point,
z, separation, roots) at the midpoint, under the same rule, and raises
TrackingLost, a NumericError (CLI exit 3), past MAX_BISECTIONS (24)
halvings.  For the earliest point where it happens, a z separation below
numeric.ROOT_SEPARATION raises RootCollision, a root gap of T0 below it
EigenvalueCollision (a RootCollision too), and a T0 that is not finite BlowUp.
A path's Track holds its rows, roots and T0.

No eigenvector is formed: projectors turns the roots and T0 of a Track into
the spectral projectors E_i, the residues of the resolvent of T0, from
which isomono.snapshots_along reads the Okubo residues -E_i Binf.  After
the tracker every check reads those residue snapshots: lam is their Binf,
theta their traces at the first point.  projector_tangent differentiates
one snapshot exactly: the roots and the Okubo residues along each t_k,
from the exact dT0/dt_k of the structure, by first-order perturbation of
the resolvent, dz_i = tr(E_i D) and dE_i = sum_{j != i} (E_i D E_j +
E_j D E_i) / (z_i - z_j).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from typing import List, NamedTuple

import numpy as np

from .errors import (BlowUp, DegenerateLinearEntry, EigenvalueCollision,
                     EntryIdenticallyZero, FlatIsoError, InputError,
                     InsufficientSamples, PoleOnPath, RootCollision,
                     RootNotConverged, TrackingLost)
from .flatcore import SaitoMatrices
from .numeric import (ROOT_SEPARATION, EvalStack, certified_separation,
                      newton_roots, rel_coeffs)

# A continuation step is accepted only below this fraction of the gap to the
# nearest other candidate; a rejected step is bisected at most this deep.
STEP_FRACTION = 0.25
MAX_BISECTIONS = 24
# The closed-form eigenvalues of a 3x3 T0 are kept where the first-order
# error bound of each is below this multiple of max(1, |root|); other rows
# go to LAPACK (see _eig3).
EIG_TOL = 1e-12


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


def _char_coeffs(a, s):
    """(c2, c1, c0) of the 3x3 stack with entries a[i][j] (N,): the trace,
    the sum of the principal 2x2 minors and the determinant by the
    cofactors of row 0, each minor a[i][j] a[k][l] + s a[i][l] a[k][j].
    With s = -1 these are the coefficients of det(x - A) = x^3 - c2 x^2 +
    c1 x - c0; with s = +1 and the moduli of A, the sums of the moduli of
    their terms, which bound their rounding."""
    def minor(i, j, k, l):
        return a[i][j] * a[k][l] + s * a[i][l] * a[k][j]
    m00 = minor(1, 1, 2, 2)
    return (a[0][0] + a[1][1] + a[2][2],
            m00 + minor(0, 0, 2, 2) + minor(0, 0, 1, 1),
            a[0][0] * m00 + a[0][1] * minor(1, 2, 2, 0)
            + a[0][2] * minor(1, 0, 2, 1))


def _eig3(A):
    """Eigenvalues of a complex (N, 3, 3) stack in closed form, with the rows
    the closed form cannot certify by LAPACK.

    The roots of f(x) = det(x - A) by Cardano's formula, the cube root taken
    of whichever of -q/2 +- sqrt(disc) has the larger modulus so that
    nothing cancels, then two Newton steps on the cubic.  A row is kept
    where every root x_i has |f(x_i)| plus the rounding bound of f there
    below EIG_TOL max(1, |x_i|) |prod_{j != i} (x_i - x_j)|, a first-order
    bound on its error; a multiple or near-multiple root, a Newton step off
    a root (f' = 0 included) and two roots polished onto one fail it, and
    those rows go to np.linalg.eigvals.  Arrays run (root, N) so that each
    operation is one long loop.
    """
    a = [[A[:, i, j] for j in range(3)] for i in range(3)]
    c2, c1, c0 = _char_coeffs(a, -1)
    s = c2 / 3
    p, q = c1 - c2 * s, (c1 - 2 * s * s) * s - c0
    omega = np.exp(2j * np.pi / 3 * np.arange(3))[:, None]
    with np.errstate(all="ignore"):       # a failed row goes to LAPACK
        d = np.sqrt(q * q / 4 + p * p * p / 27)
        u = np.where(np.abs(d - q / 2) >= np.abs(d + q / 2), d - q / 2,
                     -d - q / 2) ** (1 / 3)
        # u = 0 only where p = q = 0, at the triple root s
        x = np.where(u == 0, s, s + omega * u - p / (3 * omega * u))
        for _ in range(2):
            x = x - (((x - c2) * x + c1) * x - c0) / ((3 * x - 2 * c2) * x + c1)
        f = ((x - c2) * x + c1) * x - c0
        absA = np.abs(A)
        h2, h1, h0 = _char_coeffs(
            [[absA[:, i, j] for j in range(3)] for i in range(3)], 1)
        r = np.abs(x)
        # the rounding of the coefficients and of Horner's rule, at most a
        # few units of eps on each term
        bound = 8 * np.finfo(float).eps * (((r + h2) * r + h1) * r + h0)
        gap = np.abs(x - x[[1, 2, 0]])
        ok = ((np.abs(f) + bound)
              < EIG_TOL * np.maximum(1, r) * gap * gap[[2, 0, 1]])
    x = x.T
    bad = np.flatnonzero(~ok.all(axis=0))
    if len(bad):
        x[bad] = np.linalg.eigvals(A[bad])
    return x


def ordered_eig(T0vals, prev_roots=None):
    """(roots, accepted) of stacked (N, n, n) matrices, ordered for
    continuation: _eig3 for n = 3, np.linalg.eigvals otherwise.

    First point: ascending real part, ties (within ROOT_SEPARATION, scaled by
    the root size) by imaginary part; with prev_roots, matched against them.
    Every later point is matched to the one before by nearest neighbour.
    accepted counts the leading rows whose match _nearest_match accepts (a
    first point with no prev_roots is always accepted); the rows after are
    ordered by the same matches, which are not to be trusted.
    """
    A = np.asarray(T0vals, dtype=complex)
    w = _eig3(A) if A.shape[-1] == 3 else np.linalg.eigvals(A)
    if prev_roots is None:
        first = np.array(_first_point_order(
            w[0], ROOT_SEPARATION * max(1.0, float(np.abs(w[0]).max()))))
        chain = w
    else:
        first = np.arange(w.shape[1])
        chain = np.concatenate([np.asarray(prev_roots, dtype=complex)[None], w])
    steps, ok = _nearest_match(chain[:-1], chain[1:])
    rejected = np.flatnonzero(~ok)
    accepted = ((int(rejected[0]) if len(rejected) else len(ok))
                + (prev_roots is None))
    labels = _compose(first, steps)[len(chain) - len(w):]
    return np.take_along_axis(w, labels, axis=1), accepted


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
    E = adj / gap.prod(axis=1)[:, None, None]
    return np.ascontiguousarray(np.moveaxis(E, -1, 0))


def _root_gaps(w):
    """The smallest distance between two roots of each row of w (N, n)."""
    i, j = np.triu_indices(w.shape[1], 1)
    return np.abs(w[:, i] - w[:, j]).min(axis=1, initial=np.inf)


def _matrix_rows(stack, values):
    """A numeric.EvalStack at every row of values, the row axis first: (N, n, n)
    for a matrix."""
    return np.moveaxis(stack.eval_batch(values), -1, 0)


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
    """The path tracker: the algebraic generator z and the ordered roots of T0.

    Both are continued by one loop of lockstep passes under one step rule
    (see the module docstring); the state is the last tracked row with the
    certified separation of its z, so successive calls continue from it.
    """

    def __init__(self, m: SaitoMatrices, z_seed=None):
        self.m = m
        self.ring = m.ring
        self.n = m.n
        self.z_seed = z_seed
        self._T0 = m.T0_stack
        self._last = None

    def _pass(self, last, pts, k):
        """(Track, separations of z) of the accepted rows of one lockstep
        pass over the (count, n) points pts, continued from last, a row and
        its separation (None on a fresh sampler, whose first row starts from
        z_seed and has no step to check).

        Rows are kept up to the first rejected step.  RootCollision names
        the earliest row whose z separation (on the converged rows up to and
        including the first rejected z step), EigenvalueCollision whose root
        gap (on the rows before that step) is below ROOT_SEPARATION: as path
        point k + i, where pts[0] is path point k, or by its coordinates
        where k is None.  BlowUp names a T0 that is not finite the same way.
        """
        prev, prev_sep = last or (None, None)
        count = len(pts)
        values = np.zeros((count, self.n + 1), dtype=complex)
        values[:, 1:] = pts
        seps = np.full(count, np.inf)
        good = checked = count
        if self.ring.ext is not None:
            if prev is None and self.z_seed is None:
                raise InputError("extension ring requires a z seed")
            coeffs = rel_coeffs(self.ring, pts)
            z = newton_roots(coeffs, self.z_seed if prev is None
                             else prev.values[0, 0])
            failed = np.flatnonzero(np.isnan(z))
            conv = int(failed[0]) if len(failed) else count
            if prev is None and not conv:
                raise RootNotConverged(
                    f"Newton from the seed {self.z_seed} did not converge")
            z = z[:conv]
            seps[:conv] = certified_separation(coeffs[:conv], z)
            values[:conv, 0] = z
            z0, s0 = ((z[:1], seps[:1]) if prev is None
                      else (prev.values[:, 0], prev_sep))
            zprev = np.concatenate([z0, z])[:conv]
            sprev = np.concatenate([s0, seps])[:conv]
            jump = (np.abs(z - zprev)
                    >= STEP_FRACTION * np.minimum(sprev, seps[:conv]))
            if prev is None:
                jump[:1] = False          # a fresh first row has no step
            good = int(np.argmax(jump)) if jump.any() else conv
            checked = min(good + 1, conv)
        T0 = _matrix_rows(self._T0, values[:good])

        def where(i):
            return f"path point {k + i}" if k is not None else f"{pts[i]}"
        try:
            roots, accepted = ordered_eig(
                T0, None if prev is None else prev.z[0])
        except np.linalg.LinAlgError:
            # a non-finite row never passes _eig3, and LAPACK refuses it:
            # only then are the rows tested
            blown = ~np.isfinite(T0).all(axis=(1, 2))
            if not blown.any():
                raise
            raise BlowUp(f"T0 is not finite at {where(int(np.argmax(blown)))}"
                         ) from None
        _raise_first([
            (seps[:checked] < ROOT_SEPARATION, lambda i: RootCollision(
                f"generator roots closer than {ROOT_SEPARATION} at {where(i)}")),
            (_root_gaps(roots) < ROOT_SEPARATION, lambda i: EigenvalueCollision(
                f"roots closer than {ROOT_SEPARATION} at {where(i)}"))])
        return (Track(values[:accepted], roots[:accepted], T0[:accepted]),
                seps[:accepted])

    def _bisect(self, last, point, k, depth):
        """_pass at point, continued from last in one step where the step
        passes, else through the midpoint in two halves, each continued the
        same way; TrackingLost past MAX_BISECTIONS halvings."""
        rows, seps = self._pass(last, point[None], k)
        if len(seps):
            return rows, seps
        if depth == MAX_BISECTIONS:
            raise TrackingLost(f"continuation to {point} needs more than "
                               f"{MAX_BISECTIONS} bisections")
        mid = self._bisect(last, (last[0].values[0, 1:] + point) / 2, None,
                           depth + 1)
        return self._bisect(mid, point, k, depth + 1)

    def track(self, path):
        """The Track of a path, continuation-ordered: rows (z, t_1, ...,
        t_n) with z tracked (0 on a plain ring) and t_n = 0 (missing
        trailing coordinates of the path points are 0), the roots and T0.

        Continued from the state, which moves to the last row: passes until
        every point is accepted, and a bisection where a pass accepts none.
        """
        pts = np.zeros((len(path), self.n), dtype=complex)
        pts[:, :len(path[0])] = path
        parts, k = [], 0
        while k < len(pts):
            rows, seps = self._pass(self._last, pts[k:], k)
            if not len(seps):
                rows, seps = self._bisect(self._last, pts[k], k, 0)
            self._last = Track(*(a[-1:] for a in rows)), seps[-1:]
            parts.append(rows)
            k += len(seps)
        return parts[0] if len(parts) == 1 else Track(
            *map(np.concatenate, zip(*parts)))

    def z_at(self, tprime):
        """z at one point (None on a plain ring), with z and the roots
        continued from the last tracked point."""
        z = self.track([tprime]).values[0, 0]
        return None if self.ring.ext is None else complex(z)

    def t0_matrix(self, tprime):
        """T0 at one point, continued there by z_at."""
        self.z_at(tprime)
        return self._last[0].T0[0]


# ---------------------------------------------------------------------------
# solution extraction
# ---------------------------------------------------------------------------

def five_point(s, a):
    """(s, a, da/ds, d2a/ds2) at the interior points 2 .. N - 3 of the
    uniform grid s, where the five-point central differences along the
    first axis of a reach.

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
    return (s[2:-2], v[2], (-v[4] + 8 * v[3] - 8 * v[1] + v[0]) / (12 * h),
            (-v[4] + 16 * v[3] - 30 * v[2] + 16 * v[1] - v[0]) / (12 * h * h))


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


def _samples_on(alpha, beta, values, roots):
    """PVI samples of one entry on the tracked values and roots of a path,
    with the points and s read off the rows."""
    av, bv = EvalStack([alpha, beta]).eval_batch(values)
    z1, z2, z3 = roots.T
    den = z2 - z1
    with np.errstate(all="ignore"):
        z_entry = -bv / av
        y = (z_entry - z1) / den
        t = (z3 - z1) / den
    _raise_first([
        (np.abs(av) < 1e-12 * np.maximum(1.0, np.abs(bv)), lambda k:
         DegenerateLinearEntry(f"t_3-coefficient vanishes at path point {k}")),
        (np.minimum(np.abs(t), np.abs(t - 1)) < 1e-8, lambda k:
         RootCollision(f"cross-ratio t hits 0/1 at path point {k}")),
    ])
    return P6Samples(s=path_parameter(values), points=values[:, 1:-1],
                     t=t, y=y)


def extract_p6_solution(m: SaitoMatrices, binf_eigs, entry_choice, path,
                        z_seed=None, svals=None) -> P6Samples:
    """PVI samples along a t'-path from the chosen off-diagonal entry.

    binf_eigs are the Okubo eigenvalues (lambda_1, lambda_2, lambda_3); the
    (i, j) entry of h B^(3) = -adj(T) Binf is linear in t_3 and its zero,
    cross-ratio normalized against the roots of h, is the PVI solution.
    svals, where given, replaces s of the tracked rows.
    """
    alpha, beta = _linear_entry(m, binf_eigs, entry_choice)
    values, roots, _ = StructureSampler(m, z_seed=z_seed).track(path)
    samples = _samples_on(alpha, beta, values, roots)
    if svals is not None:
        samples.s = np.asarray(svals, dtype=float)
    return samples


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

def projector_tangent(m: SaitoMatrices, snap, lam):
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
    D = _matrix_rows(m.dT0_stack, snap.values[None])[0]
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


def p6_parameters(m: SaitoMatrices, point, sampler: StructureSampler,
                  lam=None, entry_choice=(1, 2)) -> P6Params:
    """theta and (alpha, beta, gamma, delta) from the residue traces
    -sum_a (E_i)_aa lam_a at a point, on the projectors of the roots and T0
    that sampler, a StructureSampler of m, tracks there.

    For entry (i, j) the two-dimensional reduction keeps the unknowns i, j
    and drops the remaining index k, which requires shifting the Okubo
    diagonal by -lam_k; hence theta_m = r_m + lam_k (= r_m - lam_3 in the
    default normalization where lam_3 = 0) and theta_inf = lam_i - lam_j.
    """
    _check_entry(m, entry_choice)
    if lam is None:
        lam = default_lambda(m.weights)
    _, z, T0 = sampler.track([point])
    E = projectors(T0, z)[0]
    traces = -np.diagonal(E, axis1=1, axis2=2) @ np.array(
        [complex(x) for x in lam])
    return _params_from_traces(traces, lam, entry_choice)


def _params_from_traces(r, lam, entry_choice):
    """P6Params of entry_choice from residue traces r (see p6_parameters)."""
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
    s, y, dy, d2y = five_point(samples.s, samples.y)
    _, t, dt, d2t = five_point(samples.s, samples.t)
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
    t, dy, d2y, _ = five_point(ts, np.asarray(dys, dtype=complex))
    y = np.asarray(ys, dtype=complex)[2:-2]
    return float(_pvi_defects(t, y, dy, d2y, params).max())


def _pvi_defects(t, y, dy, d2y, params):
    """|y'' - PVI_rhs(t, y, y')| elementwise.  A sample sitting on a PVI pole
    (y in {0, 1, t}) yields a non-finite defect: PoleOnPath names the first
    such sample."""
    with np.errstate(all="ignore"):
        val = np.abs(d2y - pvi_rhs(t, y, dy, params))
    _raise_first([(~np.isfinite(val), lambda k: PoleOnPath(
        f"the PVI defect is not finite at the sample t = {t[k]}, "
        f"y = {y[k]}: a pole of PVI (y in {{0, 1, t}}) lies on the path"))])
    return val


def pvi_on_frames(m: SaitoMatrices, entry_choice, snaps):
    """(samples, params, defects) of one PVI extraction on residue
    snapshots (isomono.OkuboNumeric): lam is their Binf, and the parameters
    are read off their traces at the first point; defects, formed once for
    the residual and the CSV, are _sample_defects(samples, params)."""
    alpha, beta = _linear_entry(m, snaps.Binf, entry_choice)
    samples = _samples_on(alpha, beta, snaps.values, snaps.z)
    params = _params_from_traces(snaps.traces[0], snaps.Binf, entry_choice)
    return samples, params, _sample_defects(samples, params)


def survey_on_frames(m: SaitoMatrices, snaps) -> dict:
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
