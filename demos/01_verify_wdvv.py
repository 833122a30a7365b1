"""Exact verification of an extended-WDVV potential vector field.

A potential vector field is an n-tuple g = (g_1, ..., g_n) of weighted
homogeneous functions whose gradient matrix C_ij = dg_j/dt_i has commuting
t_k-derivatives.  The commutators are polynomial identities, so the check is
exact: every defect below is literally the zero polynomial, not a small
number.
"""
from flatiso import catalog, exprio, flatcore

entry = catalog.catalog_get("LT8")
pvf = entry.pvf
print(f"entry {entry.id}: weights {[str(w) for w in pvf.weights]}")
for j, gj in enumerate(pvf.g, start=1):
    print(f"  g{j} = {exprio.format_elem(gj)}")

report = flatcore.check_extended_wdvv(pvf)
print(f"\nunit condition (B^(3) = I):        {report.unit_ok}")
print(f"homogeneity (E g_j = (1+w_j) g_j): {report.homogeneity_ok}")
print(f"commutators all zero:              {report.commutators_ok}")
print(f"structure relations:               {report.saito_relations_ok}")
print(f"flat normalization (T_3j = -w_j t_j): {report.flat_normalization_ok}")

# Perturbing g_3 by a weight-compatible monomial keeps homogeneity but breaks
# the commutativity, and the report pinpoints the failing pair.
t1 = pvf.ring.var(0)
bad = flatcore.PotentialVF(ring=pvf.ring, g=[pvf.g[0], pvf.g[1],
                                             pvf.g[2] + t1 ** 7],
                           name="perturbed")
bad_report = flatcore.check_extended_wdvv(bad)
print(f"\nperturbed g3 + t1^7: homogeneity still {bad_report.homogeneity_ok}, "
      f"failing commutators {bad_report.failing_commutators()}")
defect = bad_report.commutators[(1, 2)][0][0]
print(f"sample defect entry [B^(1), B^(2)]_11 = {exprio.format_elem(defect)}")
