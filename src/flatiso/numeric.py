"""Numeric evaluation of ring elements and of the relation's roots.

This is the one place where ring elements become numbers.  EvalStack
compiles an array of elements once and evaluates it at rows (z, t1..tn);
rel_coeffs gives the relation's coefficients in z at t-points, newton_roots
solves for z from them, and certified_separation bounds the distance from
each root to the others.  The exact layers (ring, exprio, flatcore, logvf)
import neither this module nor numpy at module level, so a symbolic check
never loads them: SaitoMatrices compiles its T0 stacks on first use, and the
numeric forms of a ring (its relation's z-slices and rel_z) are compiled on
first numeric use and kept on its ExtensionRing.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from math import comb

import numpy as np

ROOT_SEPARATION = 1e-9


# ---------------------------------------------------------------------------
# compiled evaluation
# ---------------------------------------------------------------------------

def _compile_stack(pk, polys):
    """(slots, coefficients, bounds) of polynomials given as (terms, den).

    The terms of all polynomials are concatenated, polynomial i holding rows
    bounds[i]:bounds[i + 1]; coefficients are complex, and slots lists
    (slot, exponent column, top exponent) for every slot whose top is above 0.
    """
    exps = np.array([pk.unpack(k) for terms, _ in polys for k in terms],
                    dtype=np.intp).reshape(-1, pk.nvars + 1)
    coeffs = np.array([c / den for terms, den in polys for c in terms.values()],
                      dtype=complex)
    bounds = list(accumulate((len(terms) for terms, _ in polys), initial=0))
    slots = [(s, col, int(col.max())) for s, col in enumerate(exps.T)
             if col.max(initial=0)]
    return slots, coeffs, bounds


def _eval_stack(compiled, values):
    """The compiled polynomials at every row of an (N, nvars + 1) array, as
    (k, N).

    All terms are multiplied slot by slot in one gather-multiply, from one
    power table per slot up to the top exponent of the stack.  A term whose
    own exponent in a slot is 0 is multiplied by exactly 1, so it keeps the
    value it has on its own; each polynomial's terms are then summed by one
    sum(axis=0) in the order it holds them.  A polynomial thus takes the
    same value bit for bit in any stack, a one-element stack included.
    """
    slots, coeffs, bounds = compiled
    acc = np.repeat(coeffs[:, None], len(values), axis=1)
    for s, col, top in slots:
        acc *= np.vander(values[:, s], top + 1, increasing=True).T[col]
    out = np.empty((len(bounds) - 1, len(values)), dtype=complex)
    for i in range(len(out)):
        out[i] = acc[bounds[i]:bounds[i + 1]].sum(axis=0)
    return out


def _relation_forms(ring):
    """(z-slices of the relation, rel_z) of an extension ring, compiled on
    first numeric use and kept on ring.ext.

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
        ext._numeric = (_compile_stack(pk, [(s, ext._scale) for s in slices]),
                        _compile_stack(pk, [(ext._drel, ext._scale)]))
    return ext._numeric


class EvalStack:
    """An array of elements of one ring, compiled for one evaluation.

    elems is a RingElem or a nested rectangular sequence of them, of any
    shape; eval_batch returns an array of shape + (N,).  The numerators are
    compiled once into one exponent matrix and one coefficient vector, and
    the denominators z^zden and rel_z^dden are grouped by power.
    """

    __slots__ = ("ring", "shape", "_compiled", "_zden", "_dden")

    def __init__(self, elems):
        cells = np.array(elems, dtype=object)
        flat = cells.ravel().tolist()
        self.ring = ring = flat[0].ring
        self.shape = cells.shape
        self._compiled = _compile_stack(ring._pk, [(e._t, e._d) for e in flat])

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
        a path.  Each power of z and of rel_z divides the elements that
        carry it once, rel_z being evaluated once per call.
        """
        ring = self.ring
        values = np.asarray(values, dtype=complex)
        if values.ndim != 2 or values.shape[1] != ring.nvars + 1:
            raise ValueError(f"expected rows of {ring.nvars + 1} values (z, t1..tn)")
        out = _eval_stack(self._compiled, values)
        for d, rows in self._zden:
            out[rows] /= values[:, 0] ** d
        if self._dden:
            drel = _eval_stack(_relation_forms(ring)[1], values)[0]
            for d, rows in self._dden:
                out[rows] /= drel ** d
        return out.reshape(self.shape + (len(values),))


# ---------------------------------------------------------------------------
# the roots of the relation
# ---------------------------------------------------------------------------

def rel_coeffs(ring, points):
    """Complex coefficients (N, d + 1) of the relation of an extension ring
    in z, lowest degree first, at N t-points."""
    pts = np.asarray(points, dtype=complex).reshape(-1, ring.nvars)
    values = np.zeros((len(pts), ring.nvars + 1), dtype=complex)
    values[:, 1:] = pts
    return np.ascontiguousarray(_eval_stack(_relation_forms(ring)[0], values).T)


def newton_roots(coeffs, seed):
    """Zeros of sum_k coeffs[n, k] z^k for every row n, by Newton's method
    run on all rows at once from the one seed.

    coeffs is (N, d + 1), lowest degree first.  A row is done once
    |f| < 1e-13 scale, scale = max(1, max |coeffs|), and takes one more
    (polishing) step then.  A row that meets a zero derivative first, or
    still has |f| > 1e-9 scale after 100 steps, is NaN.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    tol = 1e-13 * np.maximum(1.0, np.abs(coeffs).max(axis=1, initial=0.0))
    c = np.ascontiguousarray(coeffs.T)                 # (d + 1, N)
    dc = c[1:] * np.arange(1, len(c))[:, None]
    z = np.full(len(coeffs), complex(seed))
    live = np.arange(len(coeffs))
    with np.errstate(all="ignore"):       # a diverging row only turns NaN
        for _ in range(100):
            if not len(live):
                return z
            f, fp = _poly_values(c[:, live], dc[:, live], z[live])
            done = np.abs(f) < tol[live]
            stuck = (fp == 0) & ~done
            z[live] -= np.where(fp == 0, 0, f / fp)
            z[live[stuck]] = np.nan
            live = live[~(done | stuck)]
        f, _ = _poly_values(c[:, live], dc[:, live], z[live])
    z[live[~(np.abs(f) <= 1e4 * tol[live])]] = np.nan
    return z


def _poly_values(c, dc, z):
    """(f(z), f'(z)) column by column: c (d + 1, N) holds the coefficients of
    f, lowest first, and dc (d, N) those of f'."""
    zp = np.empty(c.shape, dtype=complex)
    zp[0] = 1
    zp[1:] = z
    np.multiply.accumulate(zp, axis=0, out=zp)
    return (c * zp).sum(axis=0), (dc * zp[:-1]).sum(axis=0)


# No other zero lies within _SEPARATION_GAMMA / gamma(f, zeta) of a simple
# zero zeta (the separation theorem of alpha-theory).
_SEPARATION_GAMMA = (5 - 17 ** 0.5) / 4
# u = 2 alpha: the zero lies within 2 beta for alpha below (13 - 3 sqrt 17) / 4
# and the gamma transfer from the iterate to its zero needs u < 1 - sqrt(2)/2.
_U_MAX = 0.25


@lru_cache(maxsize=None)
def _binomials(d):
    """The (d + 1, d + 1) matrix of C(j, k)."""
    return np.array([[comb(j, k) for k in range(d + 1)] for j in range(d + 1)],
                    dtype=float)


def certified_separation(coeffs, zs):
    """Lower bounds on the distance from each iterate to every other zero.

    coeffs is (N, d + 1), lowest degree first, and zs holds N iterates of
    Newton's method.  At z, with beta = |f / f'| and gamma = max_k
    |f^(k) / (k! f')|^(1/(k-1)), alpha-theory (Blum-Cucker-Shub-Smale,
    Complexity and Real Computation, ch. 8) puts a zero zeta within 2 beta of
    z once u = 2 beta gamma is small, with gamma(zeta) <= gamma / ((1 - u)
    psi(u)), psi(u) = 1 - 4u + 2u^2, and no other zero lies within
    (5 - sqrt 17) / (4 gamma(zeta)) of zeta; so every other zero is at least
    that bound less 2 beta from z.  Rows where this is inconclusive (u not
    below _U_MAX, or the bound below ROOT_SEPARATION) fall back to np.roots
    and give the distance from z to its second-nearest root.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    z = np.asarray(zs, dtype=complex)
    d = coeffs.shape[1] - 1
    zp = np.vander(z, d + 1, increasing=True)
    with np.errstate(all="ignore"):
        # Taylor coefficients f^(k)(z) / k! = z^-k sum_j C(j, k) c_j z^j
        # (not finite at z = 0, which the fallback then handles)
        c = (coeffs * zp) @ _binomials(d) / zp
        beta = np.abs(c[:, 0] / c[:, 1])
        gamma = (np.abs(c[:, 2:] / c[:, 1:2]) ** (1.0 / np.arange(1, d))).max(
            axis=1, initial=0.0)
        u = 2 * beta * gamma
        psi = 1 - 4 * u + 2 * u * u
        sep = _SEPARATION_GAMMA * (1 - u) * psi / gamma - 2 * beta
    for k in np.flatnonzero(~((u < _U_MAX) & (sep >= ROOT_SEPARATION))):
        dists = np.sort(np.abs(np.roots(coeffs[k][::-1]) - z[k]))
        sep[k] = dists[1] if len(dists) > 1 else np.inf
    return sep
