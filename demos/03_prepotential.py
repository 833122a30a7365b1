"""When does a flat structure come from a single prepotential?

That happens exactly when the weights pair up (w_i + w_{n+1-i} constant) and
a diagonal rescaling of the coordinates makes the gradient matrix C persymmetric.
The icosahedral entry is the one polynomial case in the corpus: the recovered
F matches its stored form term for term, exactly.
"""
from flatiso import catalog, exprio, flatcore
from flatiso.errors import NoRescalingFound

h3 = catalog.catalog_get("H3").pvf
pre = flatcore.frobenius_check(h3)
print("H3 weights:", [str(w) for w in h3.weights])
print("pair sums w_i + w_{4-i}:",
      [str(h3.weights[i] + h3.weights[2 - i]) for i in range(3)])
print("prepotential found:", pre is not None)
print("F =", exprio.format_elem(pre.F))
print("rescaling pair products u =", [str(u) for u in pre.u])
print("E F = (1 - 2r) F with r =", pre.r)

stored = exprio.parse_expr(h3.meta["prepotential"], h3.ring)
print("matches the catalogued form exactly:", (pre.F - stored).is_zero())

# Klein's weights fail the pairing condition, so no prepotential exists
klein = catalog.catalog_get("LT8").pvf
print("\nLT8 pair sums:",
      [str(klein.weights[i] + klein.weights[2 - i]) for i in range(3)])
print("LT8 frobenius_check ->", flatcore.frobenius_check(klein))

# and a two-dimensional example where the pairing holds trivially but no
# rescaling symmetrizes C
from flatiso.ring import Ring
ring = Ring(["1/2", "1"])
t1, t2 = ring.gens()
n2 = flatcore.PotentialVF(ring=ring,
                          g=[t1 * t2 + t1 ** 3, t2 ** 2 / 2 + t1 ** 4 * 3 / 4],
                          name="n2")
try:
    flatcore.frobenius_check(n2)
except NoRescalingFound as exc:
    print(f"\nn = 2 example: NoRescalingFound ({exc})")
