"""The 2x2 dictionary between Painleve VI and Schlesinger flow.

Given theta-parameters and kappas with kappa1 + kappa2 + sum(theta) = 0, the
scalar data (y, ztilde, k) determines a rank-one triple (A_0, A_1, A_t) with
diagonal A_inf.  Integrating the Hamiltonian system for (y, ztilde, k) and
rebuilding the triple at every step yields a family that satisfies the 2x2
Schlesinger equations, while y(t) satisfies Painleve VI.
"""
import numpy as np

from flatiso import isomono, p6

rng = np.random.default_rng(20240901)
theta = tuple(rng.normal(0, 0.35, 3) + 1j * rng.normal(0, 0.1, 3))
kappa2 = rng.normal(0, 0.35) + 1j * rng.normal(0, 0.1)
kappa1 = -(kappa2 + sum(theta))
print("theta =", np.round(theta, 4))
print("kappa =", np.round([kappa1, kappa2], 4),
      " theta_inf =", np.round(kappa1 - kappa2, 4))

ts, ys, zs, ks = isomono.integrate_p6_hamiltonian(
    theta, (kappa1, kappa2), (2.1 + 0.4j, 0.3 + 0.1j, 1.0), 2.0, 2.4, steps=400)

params = p6.P6Params.from_thetas(theta[0], theta[1], theta[2], kappa1 - kappa2)
dys = isomono.hamiltonian_velocity(ts, ys, zs, theta)
pvi = p6.pvi_grid_residual(ts, ys, dys, params)
print(f"\nPVI residual of the integrated y(t): {pvi:.3e}")

poles, residues = isomono.jm_residues(ts, ys, zs, ks, theta, (kappa1, kappa2))
A0, A1, At = residues[0]
print("A_inf at the start:", np.round(np.diag(-(A0 + A1 + At)), 6))
print("trace errors:", [f"{abs(np.trace(A) - th):.1e}" for A, th in
                        zip((A0, A1, At), theta)])

print(f"2x2 Schlesinger residual along the trajectory: "
      f"{isomono.stacked_schlesinger_residual(poles, residues, svals=ts):.3e}")
