"""Isomonodromy numerics: residue families, Schlesinger flow, monodromy.

The z-equation of the structure has rank-one residues at the roots of h.
Moving the deformation parameters moves the roots; isomonodromy means the
residues follow the Schlesinger equations.  A fundamental solution around a
singular root has monodromy eigenvalues exp(2 pi i * local exponents).
"""
import numpy as np

from flatiso import catalog, flatcore, isomono, p6

entry = catalog.catalog_get("LT8")
m = flatcore.build_saito_matrices(entry.pvf)
lam = p6.default_lambda(entry.pvf.ring.weights)

snaps = isomono.snapshots_along(m, entry.default_path.points, lam)
res = isomono.schlesinger_residual(snaps)
print(f"Schlesinger residual along the default path: {res:.3e}")

frozen = snaps.residues.copy()
frozen[:, 0] = frozen[0, 0]
bad = isomono.stacked_schlesinger_residual(
    snaps.z, frozen, svals=p6.path_parameter(snaps.values))
print(f"with the first residue frozen (not isomonodromic): {bad:.3e}")

snap = snaps[len(snaps) // 2]
print("\nresidue traces:", np.round(snap.traces, 6))
print("sum of residues + Binf:",
      f"{np.abs(sum(snap.residues) + np.diag(snap.Binf)).max():.2e}")

radius = 0.25 * min(abs(snap.z[0] - snap.z[1]), abs(snap.z[0] - snap.z[2]))
M = isomono.monodromy_on_loop(snap, center=snap.z[0], radius=radius)
got = np.sort_complex(np.linalg.eigvals(M))
exp = np.sort_complex(np.exp(2j * np.pi * np.linalg.eigvals(snap.residues[0])))
print(f"\nmonodromy eigenvalues around z_1:  {np.round(got, 8)}")
print(f"exp(2 pi i * residue spectrum):    {np.round(exp, 8)}")

far = isomono.monodromy_on_loop(snap, center=snap.z.real.max() + 9.0, radius=0.5)
print(f"loop around nothing: |M - I| = {np.abs(far - np.eye(3)).max():.2e}")
