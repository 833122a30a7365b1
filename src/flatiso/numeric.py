"""Numeric evaluation of ring elements and of the roots of polynomials
whose coefficients they are.

This is the one place where ring elements become numbers, and EvalStack
its one compiled form: it compiles an array of elements once and evaluates
it at rows (z, t1..tn).  rel_coeffs gives the relation's coefficients in z
at t-points, from the relation's z-slices compiled as an EvalStack too.
newton_roots solves such rows of coefficients, the relation's for z and h's
for the roots of T0, and certified_separation bounds the distance from each
root to the others.  The exact layers (ring, exprio, flatcore, logvf) import
neither this module nor numpy at module level, so a symbolic check never
loads them: a PotentialVF compiles its stacks (T0 with h's coefficients,
and dT0) on first use, and the numeric forms of a ring (its relation's
z-slices and rel_z) are compiled on first numeric use and kept on its
ExtensionRing.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np

from .ring import RingElem

ROOT_SEPARATION = 1e-9


# ---------------------------------------------------------------------------
# compiled evaluation
# ---------------------------------------------------------------------------

def _relation_forms(ring):
    """(z-slices of the relation, rel_z) of an extension ring, two EvalStacks
    of t-polynomials compiled on first numeric use and kept on ring.ext.

    Slice k holds the t-polynomial coefficient of z^k, so the slices at rows
    (0, t) are the relation's coefficients in z at t.
    """
    ext = ring.ext
    if ext._numeric is None:
        pk = ring._pk
        slices = [{} for _ in range(ext.z_degree + 1)]
        for k, c in ext._rel.items():
            e = pk.exp(k, 0)
            slices[e][k - e * pk.zunit] = c
        ext._numeric = (
            EvalStack([RingElem(ring, s, ext._scale, _canon=False) for s in slices]),
            EvalStack(RingElem(ring, ext._drel, ext._scale, _canon=False)))
    return ext._numeric


class EvalStack:
    """An array of elements of one ring, compiled for one evaluation.

    elems is a RingElem or a nested rectangular sequence of them, of any
    shape; eval_batch returns an array of shape + (N,).  The numerators are
    compiled once into one exponent column per slot whose top exponent is
    above 0 and one coefficient vector, element i holding its terms
    bounds[i]:bounds[i + 1], and the denominators z^zden and rel_z^dden are
    grouped by power.
    """

    __slots__ = ("ring", "shape", "_slots", "_coeffs", "_bounds", "_zden", "_dden")

    def __init__(self, elems):
        cells = np.array(elems, dtype=object)
        flat = cells.ravel().tolist()
        self.ring = ring = flat[0].ring
        self.shape = cells.shape
        pk = ring._pk
        exps = np.array([pk.unpack(k) for e in flat for k in e._t],
                        dtype=np.intp).reshape(-1, pk.nvars + 1)
        self._coeffs = np.array([c / e._d for e in flat for c in e._t.values()],
                                dtype=complex)
        self._bounds = list(accumulate((len(e._t) for e in flat), initial=0))
        self._slots = [(s, col, int(col.max())) for s, col in enumerate(exps.T)
                       if col.max(initial=0)]

        def by_power(attr):
            pows = sorted({getattr(e, attr) for e in flat} - {0})
            return [(d, np.array([getattr(e, attr) == d for e in flat]))
                    for d in pows]
        self._zden, self._dden = by_power("zden"), by_power("dden")

    def eval_batch(self, values):
        """The elements at every row of an (N, nvars + 1) complex array of
        (z, t1..tn), the one way ring elements become numbers.

        Column 0 carries the generator's value (ignored by plain rings),
        which the caller has solved for: p6.StructureSampler tracks it along
        a path.  All terms are multiplied slot by slot in one
        gather-multiply, from one power table per slot up to the top
        exponent of the stack.  A term whose own exponent in a slot is 0 is
        multiplied by exactly 1, so it keeps the value it has on its own;
        each element's terms are then summed by one sum(axis=0) in the order
        it holds them, row by row (a lone row, which numpy would sum
        pairwise, is evaluated as two).  An element thus takes the same
        value bit for bit in any stack and at a row alone as among many.
        Each power of z and of rel_z then divides the elements that carry
        it once, rel_z being evaluated once per call.
        """
        ring = self.ring
        values = np.asarray(values, dtype=complex)
        if values.ndim != 2 or values.shape[1] != ring.nvars + 1:
            raise ValueError(f"expected rows of {ring.nvars + 1} values (z, t1..tn)")
        x = np.repeat(values, 2, axis=0) if len(values) == 1 else values
        acc = np.repeat(self._coeffs[:, None], len(x), axis=1)
        for s, col, top in self._slots:
            acc *= np.vander(x[:, s], top + 1, increasing=True).T[col]
        bounds = self._bounds
        out = np.empty((len(bounds) - 1, len(x)), dtype=complex)
        for i in range(len(out)):
            out[i] = acc[bounds[i]:bounds[i + 1]].sum(axis=0)
        for d, rows in self._zden:
            out[rows] /= x[:, 0] ** d
        if self._dden:
            drel = _relation_forms(ring)[1].eval_batch(values)
            for d, rows in self._dden:
                out[rows] /= drel ** d
        return out[:, :len(values)].reshape(self.shape + (len(values),))


# ---------------------------------------------------------------------------
# the roots of the relation
# ---------------------------------------------------------------------------

def rel_coeffs(ring, points):
    """Complex coefficients (N, d + 1) of the relation of an extension ring
    in z, lowest degree first, at N t-points."""
    pts = np.asarray(points, dtype=complex).reshape(-1, ring.nvars)
    values = np.zeros((len(pts), ring.nvars + 1), dtype=complex)
    values[:, 1:] = pts
    return np.ascontiguousarray(_relation_forms(ring)[0].eval_batch(values).T)


def newton_roots(coeffs, seed):
    """Zeros of sum_k coeffs[n, k] z^k for every row n, by Newton's method
    run on all rows at once, from one seed for every row or seed[n] for row
    n.

    coeffs is (N, d + 1), lowest degree first.  A row is done once
    |f| < 1e-13 scale, scale = max(1, max |coeffs|), and takes one more
    (polishing) step then.  A row that meets a zero derivative first, or
    still has |f| > 1e-9 scale after 100 steps, is NaN.  A row whose
    iterate is no longer finite would end NaN after its 100 steps, so it
    is NaN at once.

    The rows iterate in place under a live mask: every step evaluates all
    rows of the working arrays and moves only the live ones, and a row
    leaves the mask as soon as it is done or NaN.  Once fewer than half of
    the working rows are live, the working arrays shrink to those rows, so
    a row that never converges costs about what it costs on its own.  Each
    row takes the same steps as on its own, so its root is the same bit
    for bit in any batch.
    """
    c = np.ascontiguousarray(np.asarray(coeffs, dtype=complex).T)  # (d + 1, N)
    tol = 1e-13 * np.maximum(1.0, np.abs(c).max(axis=0, initial=0.0))
    z = np.array(np.broadcast_to(np.asarray(seed, dtype=complex), c.shape[1]))
    rows, w, live = np.arange(len(z)), z, np.ones(len(z), dtype=bool)
    with np.errstate(all="ignore"):       # a diverging row only turns NaN
        for _ in range(100):
            n = np.count_nonzero(live)
            if not n:
                break
            if 2 * n < len(live):
                z[rows] = w
                rows, c, w, tol = rows[live], c[:, live], w[live], tol[live]
                live = np.ones(n, dtype=bool)
            f, fp = _poly_values(c, w)
            done = np.abs(f) < tol
            flat = fp == 0
            np.subtract(w, f / fp, out=w, where=live & ~flat)
            stay = live & ~done
            lost = stay & (flat | ~np.isfinite(w))
            w[lost] = np.nan
            live = stay ^ lost
        else:
            f, _ = _poly_values(c, w)
            w[live & ~(np.abs(f) <= 1e4 * tol)] = np.nan
    z[rows] = w
    return z


def _poly_values(c, z):
    """(f(z), f'(z)) column by column by Horner's rule: c (d + 1, N) holds
    the coefficients of f, lowest first."""
    f, fp = c[-1], np.zeros_like(z)
    for ck in c[-2::-1]:
        fp = fp * z + f
        f = f * z + ck
    return f, fp


# No other zero lies within _SEPARATION_GAMMA / gamma(f, zeta) of a simple
# zero zeta (the separation theorem of alpha-theory).
_SEPARATION_GAMMA = (5 - 17 ** 0.5) / 4
# u = 2 alpha: the zero lies within 2 beta for alpha below (13 - 3 sqrt 17) / 4
# and the gamma transfer from the iterate to its zero needs u < 1 - sqrt(2)/2.
_U_MAX = 0.25


def _taylor(coeffs, z):
    """The Taylor coefficients f^(k)(z) / k!, k = 0..d, of each row of
    coeffs (N, d + 1) (lowest degree first) at z (N,), as (N, d + 1), by
    repeated synthetic division."""
    b = list(coeffs.T[::-1])
    for i in range(len(b) - 1, 0, -1):
        for j in range(1, i + 1):
            b[j] = b[j] + z * b[j - 1]
    return np.array(b[::-1]).T


def _rounding(coeffs, z):
    """A bound on the rounding of f(z) = sum_j c_j z^j in double precision
    for each row of coeffs (N, d + 1): 4 (d + 1) eps sum_j |c_j| |z|^j."""
    a, r = np.abs(coeffs), np.abs(z)
    acc = a[:, -1]
    for k in range(a.shape[1] - 2, -1, -1):
        acc = acc * r + a[:, k]
    return 4 * a.shape[1] * np.finfo(float).eps * acc


def certified_separation(coeffs, zs):
    """Lower bounds on the distance from each iterate to every other zero.

    coeffs is (N, d + 1), lowest degree first, and zs holds N iterates of
    Newton's method.  At z, with beta = |f / f'| (|f| raised by its
    rounding bound, 4 (d + 1) eps sum_j |c_j z^j|) and gamma = max_k
    |f^(k) / (k! f')|^(1/(k-1)), alpha-theory (Blum-Cucker-Shub-Smale,
    Complexity and Real Computation, ch. 8) puts a zero zeta within 2 beta of
    z once u = 2 beta gamma is small, with gamma(zeta) <= gamma / ((1 - u)
    psi(u)), psi(u) = 1 - 4u + 2u^2, and no other zero lies within
    (5 - sqrt 17) / (4 gamma(zeta)) of zeta; so every other zero is at least
    that bound less 2 beta from z.  Rows where this is inconclusive (u not
    below _U_MAX, or the bound below ROOT_SEPARATION) fall back to the roots
    r_i of np.roots and their Weierstrass discs |x - r_i| <= rho_i =
    m |f(r_i)| / |a_m prod_{j != i} (r_i - r_j)| (f of degree m, |f(r_i)|
    raised by its rounding bound too), whose union holds every zero, one in
    each disc that meets no other.  With r_i the root nearest z, every
    other zero then lies at least min_{j != i} (|r_i - r_j| - rho_j) less
    |z - r_i| from z, and the bound is 0 where disc i meets another: at a
    multiple root, however np.roots splits it and however close Newton
    stopped.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    z = np.asarray(zs, dtype=complex)
    d = coeffs.shape[1] - 1
    c = np.abs(_taylor(coeffs, z))
    with np.errstate(all="ignore"):
        beta = (c[:, 0] + _rounding(coeffs, z)) / c[:, 1]
        gamma = ((c[:, 2:] / c[:, 1:2]) ** (1.0 / np.arange(1, d))).max(
            axis=1, initial=0.0)
        u = 2 * beta * gamma
        psi = 1 - 4 * u + 2 * u * u
        sep = _SEPARATION_GAMMA * (1 - u) * psi / gamma - 2 * beta
    for k in np.flatnonzero(~((u < _U_MAX) & (sep >= ROOT_SEPARATION))):
        r = np.roots(coeffs[k][::-1])
        m = len(r)
        f = np.broadcast_to(coeffs[k][:m + 1], (m, m + 1))
        with np.errstate(all="ignore"):
            rho = m * (np.abs(_taylor(f, r)[:, 0]) + _rounding(f, r)) / np.abs(
                coeffs[k][m] * (r[:, None] - r + np.eye(m)).prod(axis=1))
        i = np.argmin(np.abs(r - z[k]))
        rest = np.arange(m) != i
        gaps = np.abs(r[rest] - r[i])
        disjoint = np.all(gaps > rho[rest] + rho[i])
        sep[k] = 0.0 if not disjoint else max(
            0.0, (gaps - rho[rest]).min(initial=np.inf) - abs(z[k] - r[i]))
    return sep
