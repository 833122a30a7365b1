"""The matrix data of a flat structure and its discriminant.

From a potential vector field we build C (gradient matrix), the commuting
multiplication matrices B^(k), and T = -E C.  det(-T) is a monic polynomial
h in the last coordinate; the rows of -T are logarithmic vector fields along
h = 0, the bottom row is the Euler field, and det(-T) = h realizes Saito's
criterion with constant exactly 1.
"""
from flatiso import catalog, exprio, flatcore, logvf

pvf = catalog.catalog_get("LT8").pvf
m = flatcore.build_saito_matrices(pvf)

print("T =")
for row in exprio.serialize_matrix(m.T):
    print("  [" + ", ".join(row) + "]")

print(f"\nh = det(-T) = {exprio.format_elem(m.h)}")
print(f"h is monic of degree 3 in t3; homogeneous of weight {m.n}: "
      f"{m.h.is_homogeneous(m.n)}")

print(f"\nSaito criterion for the rows of -T: c = "
      f"{logvf.saito_criterion(m.minus_T, m.h)}")

failed = logvf.logvf_identities(m)
print(f"generator identities (Euler row, V_1 h = 3h, ratio rule, "
      f"weight duality): all pass = {not failed}")

print("V_k h = tr(B^(k)) h defects:",
      {k: exprio.format_elem(v) for k, v in enumerate(m.trace_defects, 1)})

# the Euler field is logarithmic with E h = 3 h
t = pvf.ring.gens()
euler = [t[i] * pvf.weights[i] for i in range(3)]
ratio = flatcore.log_division(euler, m.h, m.dh)[0]
print(f"(E h)/h = {exprio.format_elem(ratio)}")
