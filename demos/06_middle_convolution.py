"""Middle convolution: dropping rank and lifting it back in closed form.

Shifting the Okubo diagonal so the last eigenvalue vanishes makes the last
unknown decouple; the leading 2x2 blocks form a three-singular-point system
with rank-one residues.  Middle convolution with parameter -1 (minus the
shifted eigenvalue, off the spectrum) reassembles a rank-3 system whose
diagonal and residue-trace multiset match the original exactly.
"""
import numpy as np

from flatiso import catalog, flatcore, midconv

entry = catalog.catalog_get("LT8")
m = flatcore.build_saito_matrices(entry.pvf)
lam = list(entry.pvf.ring.weights)           # (2/7, 3/7, 1): last entry nonzero
point = entry.default_path.points[len(entry.default_path.points) // 2]

snap, sys2, family = midconv.rank_one_from_structure(m, point, lam)
print("original diagonal:", [str(x) for x in lam])
print("original residue traces:", np.round(snap.traces, 6))
print("\ntruncated 2x2 system: Gamma_inf =", np.round(sys2.Gamma_inf, 6))
print("truncated residue traces:",
      np.round([np.trace(G) for G in sys2.residues], 6))

out = midconv.middle_convolution(sys2, -1.0)
print(f"\nreconvolved with lambda = -1 (pivot column {out.pivot_column}):")
print("  Gamma_inf =", np.round(out.Gamma_inf, 6))
print("  residue traces =", np.round(out.traces(), 6))
print("  all residues rank one:",
      all(np.linalg.svd(G, compute_uv=False)[1] < 1e-10 for G in out.residues))

rep = midconv.invariant_subspace_check(sys2, -1.0, family=family)
print(f"\ninvariant subspaces of the big convolution system: "
      f"dim K = {rep.dim_K}, "
      f"max invariance defect {rep.max_defect:.2e}")
