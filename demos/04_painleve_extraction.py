"""Painleve VI from a three-dimensional flat structure.

The discriminant h(t', .) is a cubic in t3 with roots z_1, z_2, z_3.  The off-
diagonal entries of h adj(T) Binf are linear in t3; normalizing the zero of
the (1,2) entry and the three roots by the cross-ratio map gives a function
y(t) that satisfies Painleve VI with parameters read off the residue traces.
The residual check plugs stencil derivatives of y into the equation.
"""
import pathlib

import numpy as np

from flatiso import catalog, flatcore, isomono, p6

entry = catalog.catalog_get("LT8")
m = flatcore.build_saito_matrices(entry.pvf)
lam = p6.default_lambda(entry.pvf.ring.weights)
print("Okubo normalization lambda =", [str(x) for x in lam])

snaps = isomono.snapshots_along(m, entry.default_path.points, lam,
                                z_seed=entry.z_seed)
samples, params, defects = p6.pvi_on_frames(m, entry.p6_entry, snaps)
residual = defects[2].max()

print(f"path: t1 = 1, t2 in [{samples.s[0]}, {samples.s[-1]}], "
      f"{len(samples.y)} samples")
print(f"theta = ({params.theta0:.6f}, {params.theta1:.6f}, "
      f"{params.thetat:.6f}, {params.thetainf:.6f})")
print(f"(alpha, beta, gamma, delta) = ({params.alpha:.6f}, {params.beta:.6f}, "
      f"{params.gamma:.6f}, {params.delta:.6f})")
print(f"max PVI residual over the path: {residual:.3e}")

# residue traces are first integrals of the deformation
print(f"residue-trace drift along the path: "
      f"{np.abs(snaps.traces - snaps.traces[0]).max():.2e}")

out = pathlib.Path("lt8_p6_samples.csv")
out.write_text(p6.samples_to_csv(samples, defects))
print(f"samples written to {out}")
