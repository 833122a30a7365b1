"""Middle convolution between Okubo systems of neighbouring rank.

Truncating a rank-n Okubo system whose last Okubo eigenvalue has been
shifted to zero leaves an integrable rank-(n-1) Pfaffian system with n
rank-one residues.  Middle convolution with a parameter off the spectrum
lifts such a system back to a rank-n Okubo system in closed form: extend
the rank-one factor matrices to an inverse pair (P, P^{-1}), then

    new residue_j = - P[:, j] P^{-1}[j, :] diag(lam_1 - lam, ..., -lam).

The big n(n-1) convolution matrices and their invariant subspaces are kept
as an independent diagnostic of that closed form.  Their deformation
directions are checked on the exact tangent of the residues
(p6.frame_tangent), so the diagnostic needs one tracked point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from .errors import (ConditionDViolation, FactorizationFailed,
                     InverseMismatch, PivotColumnNotFound, RankViolation,
                     ResonantLambda)
from .isomono import OkuboNumeric, track_snapshots
from .p6 import frame_tangent, residues_from_frame

RANK_TOL = 1e-8


@dataclass
class RankOneSystem:
    """Rank-(n-1) Pfaffian system with n rank-one residues at a working point."""

    n: int                         # number of singular points
    residues: List[np.ndarray]     # n matrices of size (n-1) x (n-1)
    Gamma_inf: np.ndarray          # diagonal entries, length n-1
    z: np.ndarray                  # singular locations
    z_grad: np.ndarray             # dz_j/dx_i at the working point, shape (n, nx)
    point: tuple

    def validate(self):
        lam = self.Gamma_inf
        if np.any(np.abs(lam) < 1e-10):
            raise ConditionDViolation("D4", "Gamma_inf has a zero eigenvalue")
        total = sum(self.residues) + np.diag(lam)
        if np.abs(total).max() > 1e-10:
            raise ConditionDViolation("D4", "residues do not sum to -Gamma_inf")
        for j, G in enumerate(self.residues):
            s = np.linalg.svd(G, compute_uv=False)
            if s[0] < 1e-12:
                raise ConditionDViolation("D3", f"residue {j+1} vanishes")
            if len(s) > 1 and s[1] > RANK_TOL * max(1.0, s[0]):
                raise ConditionDViolation("D3", f"residue {j+1} has rank >= 2")
            tr = np.trace(G)
            if min(abs(tr - 1), abs(tr + 1)) < 1e-8:
                raise ConditionDViolation("D3", f"trace of residue {j+1} is near +-1")
        return self


@dataclass
class ConvolutionResult:
    residues: List[np.ndarray]     # n matrices of size n x n
    Gamma_inf: np.ndarray          # diagonal entries, length n
    z: np.ndarray
    z_grad: np.ndarray
    lam: complex
    pivot_column: int
    epsilon: complex = 1 + 0j

    def traces(self):
        return np.array([np.trace(G) for G in self.residues])

    def validate(self):
        total = sum(self.residues) + np.diag(self.Gamma_inf)
        if np.abs(total).max() > 1e-10:
            raise RankViolation("convolved residues do not sum to -Gamma_inf")
        for j, G in enumerate(self.residues):
            s = np.linalg.svd(G, compute_uv=False)
            if s[1] > RANK_TOL * max(1.0, s[0]):
                raise RankViolation(f"convolved residue {j+1} has rank >= 2")
        return self


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
    n = ok.n
    if n < 2:
        raise ConditionDViolation("D1", "need rank >= 2 to truncate")
    lam = np.asarray(ok.Binf, dtype=complex)
    shift = lam[n - 1]
    lam_shifted = lam - shift
    res = [Bi[:n - 1, :n - 1]
           for Bi in residues_from_frame(ok.P, lam_shifted)]
    sys = RankOneSystem(n=n, residues=res, Gamma_inf=lam_shifted[:n - 1],
                        z=np.asarray(ok.z), z_grad=np.asarray(z_grad),
                        point=ok.point)
    return sys.validate()


# ---------------------------------------------------------------------------
# middle convolution
# ---------------------------------------------------------------------------

def _rank_one_factors(sys: RankOneSystem):
    """b_j columns and a_j rows with residue_j = -b_j a_j Gamma_inf.

    Scales are pinned per column by normalizing the largest |entry| of b_j to
    one, so factorizations vary smoothly along families.
    """
    lam = sys.Gamma_inf
    bs, as_ = [], []
    for j, G in enumerate(sys.residues):
        M = -G @ np.diag(1 / lam)
        u, s, vh = np.linalg.svd(M)
        if s[0] < 1e-12:
            raise FactorizationFailed(f"residue {j+1} vanishes")
        b = u[:, 0] * s[0]
        a = vh[0, :]
        p = int(np.argmax(np.abs(b)))
        scale = b[p]
        bs.append(b / scale)
        as_.append(a * scale)
    return bs, as_


def _extend_to_inverse_pair(B, A):
    """Square P = [B; row], P^{-1} = [A | col] given B A = I_{n-1}."""
    n = B.shape[1]
    # col spans ker(B); row spans the left kernel of A; row . col = 1
    _, _, vh = np.linalg.svd(B)
    col = vh[-1, :].conj()
    u, _, _ = np.linalg.svd(A)
    row = u[:, -1].conj()
    dot = row @ col
    if abs(dot) < 1e-12:
        raise FactorizationFailed("kernel extension is degenerate")
    row = row / dot
    # pin the gauge: largest entry of col scaled to 1
    p = int(np.argmax(np.abs(col)))
    scale = col[p]
    col = col / scale
    row = row * scale
    P = np.vstack([B, row[None, :]])
    Pinv = np.hstack([A, col[:, None]])
    if np.abs(P @ Pinv - np.eye(n)).max() > 1e-10:
        raise InverseMismatch("extended pair is not inverse")
    return P, Pinv


def middle_convolution(sys: RankOneSystem, lam) -> ConvolutionResult:
    """Closed-form rank-n Okubo system from a rank-(n-1) one.

    lam must avoid the spectrum {Gamma_inf} and 0.  The pivot column (all a_j
    entries bounded away from zero) is recorded; with the epsilon gauge fixed
    to one it does not enter the closed form.
    """
    lam = complex(lam)
    sys.validate()
    for li in list(sys.Gamma_inf) + [0.0]:
        if abs(lam - li) < 1e-10:
            raise ResonantLambda(f"lambda = {lam} is resonant with {li}")
    bs, as_ = _rank_one_factors(sys)
    B = np.column_stack(bs)                # (n-1) x n
    A = np.vstack(as_)                     # n x (n-1)
    if np.abs(B @ A - np.eye(sys.n - 1)).max() > 1e-9:
        raise FactorizationFailed("rank-one factors do not multiply to identity")
    pivot = None
    for jcol in range(sys.n - 1):
        if np.all(np.abs(A[:, jcol]) > 1e-8):
            pivot = jcol + 1
            break
    if pivot is None:
        raise PivotColumnNotFound(
            "no column of the a-matrix is bounded away from zero")
    P, Pinv = _extend_to_inverse_pair(B, A)
    gamma_inf = np.concatenate([sys.Gamma_inf - lam, [-lam]])
    residues = []
    for j in range(sys.n):
        residues.append(-np.outer(P[:, j], Pinv[j, :]) @ np.diag(gamma_inf))
    out = ConvolutionResult(residues=residues, Gamma_inf=gamma_inf,
                            z=np.asarray(sys.z),
                            z_grad=np.asarray(sys.z_grad), lam=lam,
                            pivot_column=pivot)
    return out.validate()


# ---------------------------------------------------------------------------
# the big convolution matrices and their invariant subspaces
# ---------------------------------------------------------------------------

def big_g_z(sys: RankOneSystem, lam, zval):
    """G^(z) of the rank n(n-1) convolution system at a z-value."""
    n, m = sys.n, sys.n - 1
    G = np.zeros((n * m, n * m), dtype=complex)
    for i in range(n):
        for j in range(n):
            blk = sys.residues[j] + (lam * np.eye(m) if i == j else 0)
            G[i * m:(i + 1) * m, j * m:(j + 1) * m] = blk / (zval - sys.z[i])
    return G


def big_g_x(sys: RankOneSystem, lam, k, zval):
    """G^(k) of the convolution system; k indexes the deformation variable."""
    n, m = sys.n, sys.n - 1
    dz = sys.z_grad[:, k]
    G = np.zeros((n * m, n * m), dtype=complex)
    for i in range(n):
        for j in range(n):
            if i != j:
                blk = (-dz[i] * sys.residues[j] / (zval - sys.z[i])
                       - (dz[i] - dz[j]) * sys.residues[j] / (sys.z[i] - sys.z[j]))
            else:
                blk = -dz[i] * (sys.residues[i] + lam * np.eye(m)) / (zval - sys.z[i])
                for l in range(n):
                    if l != i:
                        blk = blk + (dz[i] - dz[l]) * sys.residues[l] / (sys.z[i] - sys.z[l])
            G[i * m:(i + 1) * m, j * m:(j + 1) * m] = blk
    return G


def kernel_stack_basis(sys: RankOneSystem):
    """Basis of K = {(v_1..v_n) : v_i in ker residue_i}, shape (n(n-1), dim)."""
    n, m = sys.n, sys.n - 1
    cols = []
    for i, G in enumerate(sys.residues):
        _, s, vh = np.linalg.svd(G)
        kern = vh[np.abs(s) < RANK_TOL * max(1.0, s[0]), :].conj().T
        if kern.shape[1] != m - 1:
            raise RankViolation(f"kernel of residue {i+1} has unexpected dimension")
        for kcol in range(kern.shape[1]):
            v = np.zeros(n * m, dtype=complex)
            v[i * m:(i + 1) * m] = kern[:, kcol]
            cols.append(v)
    return np.column_stack(cols) if cols else np.zeros((n * m, 0))


def l_space_basis(sys: RankOneSystem, lam):
    """Basis of L = ker of the block matrix (residue_j + lam delta_ij)."""
    n, m = sys.n, sys.n - 1
    M = np.zeros((n * m, n * m), dtype=complex)
    for i in range(n):
        for j in range(n):
            M[i * m:(i + 1) * m, j * m:(j + 1) * m] = (
                sys.residues[j] + (lam * np.eye(m) if i == j else 0))
    _, s, vh = np.linalg.svd(M)
    return vh[np.abs(s) < RANK_TOL * max(1.0, s[0]), :].conj().T


@dataclass
class InvarianceReport:
    dim_K: int
    dim_L: int
    z_defect: float
    x_defects: List[float]

    @property
    def max_defect(self):
        return max([self.z_defect] + self.x_defects) if self.x_defects else self.z_defect


def invariant_subspace_check(sys: RankOneSystem, lam, family
                             ) -> InvarianceReport:
    """Numeric check that (d - G) maps K and L into K + L.

    The z-direction is pointwise linear algebra (K is z-independent), at
    z = max Re z_i + 1.7 + 0.3i.  family is the tangent of the residues,
    family[k][i] = d residue_i / dx_k (rank_one_from_structure's third
    value); along x_k a vector v of K moves with the kernels as
    dv_i = -residue_i^+ (d residue_i / dx_k) v_i, the exact derivative of
    its projection onto ker residue_i.  Defects are distances of the mapped
    basis vectors to K + L, normalized per vector.
    """
    lam = complex(lam)
    K = kernel_stack_basis(sys)
    L = l_space_basis(sys, lam)
    KL = np.column_stack([K, L]) if L.size else K
    Q, _ = np.linalg.qr(KL) if KL.size else (KL, None)

    def dist_to_KL(v):
        nv = np.linalg.norm(v)
        if nv < 1e-14:
            return 0.0
        if Q.size == 0:
            return 1.0
        w = v - Q @ (Q.conj().T @ v)
        return float(np.linalg.norm(w) / max(nv, 1.0))

    zval = sys.z.real.max() + 1.7 + 0.3j
    Gz = big_g_z(sys, lam, zval)
    z_defect = 0.0
    for kcol in range(K.shape[1]):
        z_defect = max(z_defect, dist_to_KL(Gz @ K[:, kcol]))
    for kcol in range(L.shape[1] if L.size else 0):
        z_defect = max(z_defect, dist_to_KL(Gz @ L[:, kcol]))

    n, m = sys.n, sys.n - 1
    pinv = [np.linalg.pinv(G, RANK_TOL) for G in sys.residues]
    x_defects = []
    for kdir, dres in enumerate(family):
        # the block-diagonal motion v -> dv of K along x_k
        D = np.zeros((n * m, n * m), dtype=complex)
        for i in range(n):
            D[i * m:(i + 1) * m, i * m:(i + 1) * m] = -pinv[i] @ dres[i]
        M = D - big_g_x(sys, lam, kdir, zval)
        x_defects.append(max((dist_to_KL(M @ K[:, kcol])
                              for kcol in range(K.shape[1])), default=0.0))
    return InvarianceReport(dim_K=K.shape[1], dim_L=L.shape[1] if L.size else 0,
                            z_defect=z_defect, x_defects=x_defects)


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
    track, (snap,) = track_snapshots(m, [tprime], lam, z_seed=z_seed)
    values, roots, P = track
    n = m.n
    dz, dB = frame_tangent(m, values[0], roots[0], P[0],
                           snap.Binf - snap.Binf[n - 1])
    return snap, truncate_okubo(snap, z_grad=dz), dB[:, :, :n - 1, :n - 1]


# ---------------------------------------------------------------------------
# report bundle (the CLI's JSON encoder writes complex values as [re, im])
# ---------------------------------------------------------------------------

def convolution_to_json(res: ConvolutionResult) -> dict:
    return {"residues": res.residues, "gamma_inf": res.Gamma_inf,
            "z": res.z, "lambda": res.lam,
            "pivot_column": res.pivot_column,
            "epsilon": res.epsilon}
