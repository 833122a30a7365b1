"""Middle convolution between Okubo systems of neighbouring rank.

Truncating a rank-n Okubo system whose last Okubo eigenvalue has been
shifted to zero leaves an integrable rank-(n-1) Pfaffian system with n
rank-one residues.  Middle convolution with a parameter off the spectrum
lifts such a system back to a rank-n Okubo system in closed form: extend
the rank-one factor matrices to an inverse pair (P, P^{-1}), then

    new residue_j = - P[:, j] P^{-1}[j, :] diag(lam_1 - lam, ..., -lam),

which is p6.residues_from_frame(P, gamma_inf).  Residues are stacked
(n, m, m) arrays throughout, as in isomono and p6, and one SVD of them,
taken when a system is built, serves every factorization below.

The big n(n-1) convolution matrices and their invariant subspaces are kept
as an independent diagnostic of that closed form.  One block matrix
M = [residue_j + lam delta_ij]_ij gives G^(z) and G^(x).  The deformation
directions are checked on the exact tangent of the residues
(p6.frame_tangent), so the diagnostic needs one tracked point.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .catalog import TOLERANCES
from .errors import (ConditionDViolation, FactorizationFailed,
                     InverseMismatch, PivotColumnNotFound, RankViolation,
                     ResonantLambda)
from .isomono import TRACE_GUARD, OkuboNumeric, snapshots_along
from .p6 import frame_tangent, residues_from_frame

RANK_TOL = 1e-8
PIN_TIE = 1e-9      # relative tie window of the gauge pins (_pin)


@dataclass
class RankOneSystem:
    """Rank-(n-1) Pfaffian system with n rank-one residues at a working point."""

    n: int                         # number of singular points
    residues: np.ndarray           # (n, n-1, n-1)
    Gamma_inf: np.ndarray          # diagonal entries, length n-1
    z: np.ndarray                  # singular locations
    z_grad: np.ndarray             # dz_j/dx_i at the working point, shape (n, nx)
    svd: tuple = field(init=False, repr=False)   # (u, s, vh) of the residues

    def __post_init__(self):
        """Conditions (D3) and (D4), checked once, at construction; a caller
        may build a system of any residues, so the rank is tested too."""
        self.residues = np.asarray(self.residues, dtype=complex)
        lam = self.Gamma_inf
        if np.any(np.abs(lam) < 1e-10):
            raise ConditionDViolation("D4", "Gamma_inf has a zero eigenvalue")
        total = self.residues.sum(axis=0) + np.diag(lam)
        if np.abs(total).max() > TOLERANCES["residue_identities"]:
            raise ConditionDViolation("D4", "residues do not sum to -Gamma_inf")
        _, s, _ = self.svd = np.linalg.svd(self.residues)
        tr = np.trace(self.residues, axis1=1, axis2=2)
        # per residue, in order: vanishing, rank >= 2, trace near +-1
        bad = np.column_stack([
            s[:, 0] < 1e-12,
            (s[:, 1:] > RANK_TOL * np.maximum(1.0, s[:, :1])).any(axis=1),
            np.minimum(abs(tr - 1), abs(tr + 1)) < TRACE_GUARD])
        if bad.any():
            j, c = np.argwhere(bad)[0]
            raise ConditionDViolation("D3", (
                f"residue {j+1} vanishes", f"residue {j+1} has rank >= 2",
                f"trace of residue {j+1} is near +-1")[c])


@dataclass
class ConvolutionResult:
    residues: np.ndarray           # (n, n, n)
    Gamma_inf: np.ndarray          # diagonal entries, length n
    z: np.ndarray
    lam: complex
    pivot_column: int
    epsilon: complex = 1 + 0j

    def traces(self):
        return np.trace(self.residues, axis1=1, axis2=2)


# ---------------------------------------------------------------------------
# truncation
# ---------------------------------------------------------------------------

def truncate_okubo(ok: OkuboNumeric, z_grad) -> RankOneSystem:
    """Leading (n-1)-blocks of the system with the last eigenvalue shifted to 0.

    The shift replaces Binf by Binf - lam_n I, after which the last unknown
    decouples; the leading blocks of the shifted residues form the rank-(n-1)
    system.  z_grad (shape n x nx) carries the root gradients for the
    x-direction matrices.
    """
    n = len(ok.Binf)
    if n < 2:
        raise ConditionDViolation("D1", "need rank >= 2 to truncate")
    lam = np.asarray(ok.Binf, dtype=complex)
    lam_shifted = lam - lam[n - 1]
    res = residues_from_frame(ok.P, lam_shifted)[:, :n - 1, :n - 1]
    return RankOneSystem(n=n, residues=res, Gamma_inf=lam_shifted[:n - 1],
                         z=np.asarray(ok.z), z_grad=np.asarray(z_grad))


# ---------------------------------------------------------------------------
# middle convolution
# ---------------------------------------------------------------------------

def _pin(x):
    """Last-axis index of the first entry within PIN_TIE of the largest
    modulus, so that entries of equal modulus cannot swap under rounding."""
    mod = np.abs(x)
    return np.argmax(mod >= (1 - PIN_TIE) * mod.max(-1, keepdims=True), -1)


def _rank_one_factors(sys: RankOneSystem):
    """(B, A): columns b_j of B (n-1, n) and rows a_j of A (n, n-1) with
    residue_j = -b_j a_j Gamma_inf, read off the system's SVD.

    Scales are pinned per column by normalizing the first largest |entry| of
    b_j to one (_pin), so factorizations vary smoothly along families.
    """
    u, s, vh = sys.svd
    b = u[:, :, 0] * s[:, :1]
    scale = b[np.arange(sys.n), _pin(b), None]
    return (b / scale).T, -vh[:, 0, :] / sys.Gamma_inf * scale


def _extend_to_inverse_pair(B, A):
    """Square P = [B; row], checked against P^{-1} = [A | col], given
    B A = I_{n-1}: Q = I - A B = col row projects onto ker B along range A,
    and trace Q = 1 gives |Q_ii| >= 1/n.  col is Q[:, i] pinned to 1 at its
    first largest entry k, so row = Q[k], |Q[k, i]| >= (1 - PIN_TIE)|Q_ii|."""
    Q = np.eye(A.shape[0]) - A @ B
    i = np.argmax(np.abs(np.diag(Q)))
    k = _pin(Q[:, i])
    P = np.vstack([B, Q[k]])
    Pinv = np.hstack([A, Q[:, i, None] / Q[k, i]])
    if np.abs(P @ Pinv - np.eye(len(P))).max() > 1e-10:
        raise InverseMismatch("extended pair is not inverse")
    return P


def _check_lambda(sys: RankOneSystem, lam):
    """ResonantLambda for a lam on the spectrum {Gamma_inf} or 0."""
    for li in list(sys.Gamma_inf) + [0.0]:
        if abs(lam - li) < 1e-10:
            raise ResonantLambda(f"lambda = {lam} is resonant with {li}")


def middle_convolution(sys: RankOneSystem, lam) -> ConvolutionResult:
    """Closed-form rank-n Okubo system from a rank-(n-1) one.

    lam must avoid the spectrum {Gamma_inf} and 0.  The pivot column (all a_j
    entries bounded away from zero) is recorded; with the epsilon gauge fixed
    to one it does not enter the closed form.
    """
    lam = complex(lam)
    _check_lambda(sys, lam)
    B, A = _rank_one_factors(sys)
    if np.abs(B @ A - np.eye(sys.n - 1)).max() > 1e-9:
        raise FactorizationFailed("rank-one factors do not multiply to identity")
    bounded = np.all(np.abs(A) > 1e-8, axis=0)
    if not bounded.any():
        raise PivotColumnNotFound(
            "no column of the a-matrix is bounded away from zero")
    gamma_inf = np.concatenate([sys.Gamma_inf - lam, [-lam]])
    residues = residues_from_frame(_extend_to_inverse_pair(B, A), gamma_inf)
    if (np.abs(residues.sum(axis=0) + np.diag(gamma_inf)).max()
            > TOLERANCES["residue_identities"]):
        raise RankViolation("convolved residues do not sum to -Gamma_inf")
    return ConvolutionResult(residues=residues, Gamma_inf=gamma_inf,
                             z=np.asarray(sys.z), lam=lam,
                             pivot_column=int(np.argmax(bounded)) + 1)


# ---------------------------------------------------------------------------
# the big convolution matrices and their invariant subspaces
# ---------------------------------------------------------------------------

def _block_diag(X):
    """The block-diagonal matrix of a stack X (n, p, q), shape (n p, n q)."""
    n, p, q = X.shape
    return np.einsum("ij,iab->iajb", np.eye(n), X).reshape(n * p, n * q)


def kernel_stack_basis(sys: RankOneSystem):
    """Orthonormal basis of K = {(v_1..v_n) : v_i in ker residue_i}, shape
    (n(n-1), n(n-2)): each residue's right singular vectors but the first."""
    return _block_diag(sys.svd[2][:, 1:, :].conj().transpose(0, 2, 1))


@dataclass
class InvarianceReport:
    dim_K: int
    z_defect: float
    x_defects: list[float]

    @property
    def max_defect(self):
        return max([self.z_defect] + self.x_defects)


def invariant_subspace_check(sys: RankOneSystem, lam, family
                             ) -> InvarianceReport:
    """Numeric check that (d - G) maps K into K.

    With the block matrix M = [residue_j + lam delta_ij]_ij, G^(z) is M with
    block row i divided by z - z_i.  As the residues sum to -Gamma_inf,
    ker M = {(u, ..., u) : (Gamma_inf - lam) u = 0}, which is {0} for every
    lam that middle_convolution accepts; others raise ResonantLambda.  The
    z-direction is pointwise linear algebra (K is z-independent), at
    z = max Re z_i + 1.7 + 0.3i.  Along x_k, with w_ij = (dz_i - dz_j) /
    (z_i - z_j), G^(k) has blocks -dz_i G^(z)_ij - w_ij residue_j off the
    diagonal and -dz_i G^(z)_ii + sum_l w_il residue_l on it.  family is
    the tangent of the residues, family[k][i] = d residue_i / dx_k
    (rank_one_from_structure's third value); along x_k a vector v of K moves
    with the kernels as dv_i = -residue_i^+ (d residue_i / dx_k) v_i, the
    exact derivative of its projection onto ker residue_i.  Defects are
    distances of the mapped basis vectors to K, normalized per vector.
    """
    lam = complex(lam)
    _check_lambda(sys, lam)
    n, m = sys.n, sys.n - 1
    R = sys.residues
    RT = R.transpose(1, 0, 2)[None]                   # [., a, j, b] = R_j[a, b]

    def blocks(c):                                    # [c_ij residue_j]_ij
        return (c[:, None, :, None] * RT).reshape(n * m, n * m)

    M = blocks(np.ones((n, n))) + lam * np.eye(n * m)
    K = kernel_stack_basis(sys)
    zval = sys.z.real.max() + 1.7 + 0.3j
    Gz = M / np.repeat(zval - sys.z, m)[:, None]
    # z_i - z_j, with 1 on the diagonal, where dz_i - dz_j is exactly 0
    gap = sys.z[:, None] - sys.z + np.eye(n)
    u, s, vh = sys.svd
    Rplus = (vh[:, 0, :, None] * u[:, None, :, 0]).conj() / s[:, :1, None]
    mapped = [Gz @ K]
    for k, dres in enumerate(family):
        dz = sys.z_grad[:, k]
        w = (dz[:, None] - dz) / gap
        # D - G^(k), D the block-diagonal motion v -> dv of K along x_k
        diag = -Rplus @ dres - (w @ R.reshape(n, m * m)).reshape(n, m, m)
        Mk = _block_diag(diag) + np.repeat(dz, m)[:, None] * Gz + blocks(w)
        mapped.append(Mk @ K)

    V = np.column_stack(mapped)
    nv = np.linalg.norm(V, axis=0)
    dist = np.where(nv < 1e-14, 0.0,
                    np.linalg.norm(V - K @ (K.conj().T @ V), axis=0)
                    / np.maximum(nv, 1.0))
    nz = K.shape[1]
    x_parts = dist[nz:].reshape(len(family), nz)
    return InvarianceReport(
        dim_K=nz, z_defect=float(np.max(dist[:nz], initial=0.0)),
        x_defects=[float(x) for x in x_parts.max(axis=1, initial=0.0)])


# ---------------------------------------------------------------------------
# glue: rank-one system straight from a flat structure
# ---------------------------------------------------------------------------

def rank_one_from_structure(m, tprime, lam, z_seed=None):
    """Truncated rank-one system of a flat structure plus its residue tangent.

    Tracks the Okubo system at (t', t_n = 0) with diagonal lam (whose last
    entry must be nonzero so the truncation shift is meaningful) and returns
    (snapshot, system, family).  The system's root gradients and family, the
    truncated residue tangent of shape (n, n, n-1, n-1) with family[k][i] =
    d residue_i / dt_{k+1}, are p6.frame_tangent at the tracked point, for
    invariant_subspace_check.
    """
    snap = snapshots_along(m, [tprime], lam, z_seed=z_seed)[0]
    n = m.n
    dz, dB = frame_tangent(m, snap, snap.Binf - snap.Binf[n - 1])
    return snap, truncate_okubo(snap, z_grad=dz), dB[:, :, :n - 1, :n - 1]


# ---------------------------------------------------------------------------
# report bundle (the CLI's JSON encoder writes complex values as [re, im])
# ---------------------------------------------------------------------------

def convolution_to_json(res: ConvolutionResult) -> dict:
    return {"residues": res.residues, "gamma_inf": res.Gamma_inf,
            "z": res.z, "lambda": res.lam,
            "pivot_column": res.pivot_column,
            "epsilon": res.epsilon}
