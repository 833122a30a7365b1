"""Regenerate the shipped catalog JSON data and its checksum manifest.

The exact rational data (weights, potential-field components, extension
relations) is transcribed here; the two algebraic-prepotential entries get
their g derived by extension-ring differentiation.  Every entry passes the
catalog's symbolic verification before being written.  Run from the
repository root:

    python tools/build_catalog_data.py
"""
import hashlib
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from flatiso import catalog, exprio, flatcore as fc
from flatiso.ring import Ring

OUT = os.path.join(os.path.dirname(__file__), "..", "src", "flatiso", "catalog_data")

RAW = {
 "H3": {
   "weights": ["1/5", "3/5", "1"], "ext": None,
   "F": "(t2^2*t3 + t1*t3^2)/2 + t1^11/3960 + t1^5*t2^2/20 + t1^2*t2^3/6",
 },
 "H3p": {
   "weights": ["3/5", "4/5", "1"],
   "ext": {"weight": "1/5", "relation": "t2 + t1*z + z^4"},
   "F": "(t2^2*t3 + t1*t3^2)/2 - t1^4*z/18 - 7*t1^3*z^4/72 - 17*t1^2*z^7/105 - 2*t1*z^10/9 - 64*z^13/585",
 },
 "H3pp": {
   "weights": ["1/3", "2/3", "1"],
   "ext": {"weight": "1/3", "relation": "-t1^2 + t2 + z^2"},
   "F": "(t2^2*t3 + t1*t3^2)/2 + 4063*t1^7/1701 + 19*t1^5*z^2/135 - 73*t1^3*z^4/27 + 11*t1*z^6/9 - 16*z^7/35",
 },
 "LT8": {
   "weights": ["2/7", "3/7", "1"], "ext": None,
   "g": ["(-2*t1^3*t2 + t2^3 + 12*t1*t3)/12",
          "(2*t1^5 + 5*t1^2*t2^2 + 10*t2*t3)/10",
          "(-8*t1^7 + 21*t1^4*t2^2 + 7*t1*t2^4 + 28*t3^2)/56"],
 },
 "LT26": {
   "weights": ["1/5", "2/5", "1"], "ext": None,
   "g": ["(-t1^6 - 15*t1^4*t2 + 15*t1^2*t2^2 + 10*t2^3 + 30*t1*t3)/30",
          "(5*t1^7 + 3*t1^5*t2 + 15*t1^3*t2^2 - 5*t1*t2^3 + 6*t2*t3)/6",
          "(-105*t1^10 + 200*t1^8*t2 + 350*t1^6*t2^2 + 175*t1^2*t2^4 - 14*t2^5 + 20*t3^2)/40"],
 },
 "LT27": {
   "weights": ["2/5", "3/5", "1"],
   "ext": {"weight": "1/5", "relation": "-t2 - t1*z + 2*z^3"},
   "g": ["(175*t1*t3 - 70*t1^3*z + 70*t1^2*z^3 + 378*t1*z^5 - 540*z^7)/175",
          "(10*t1^4 - 120*t1*t2^2 + 75*t2*t3 + 30*t1^2*z^4 - 192*t1*z^6 + 324*z^8)/75",
          "(16*t1^5 + 80*t1^2*t2^2 + 25*t3^2 - 80*t1^3*z^4 + 540*t1^2*z^6 - 1080*t1*z^8 + 432*z^10)/50"],
 },
 "LT13": {
   "weights": ["1/15", "1/3", "1"], "ext": None,
   "g": ["-1/33*t1*(3*t1^10*t2 + 11*t2^3 - 33*t3)",
          "1/76*(-5*t1^20 + 114*t1^10*t2^2 + 19*t2^4 + 76*t2*t3)",
          "1/870*(100*t1^30 + 1740*t1^20*t2^2 - 5220*t1^10*t2^4 + 116*t2^6 + 435*t3^2)"],
 },
 "LT14": {
   "weights": ["8/15", "2/3", "1"],
   "ext": {"weight": "1/15", "relation": "t1^2 + t2*z^6 + z^16"},
   "g": ["-(2093*t1^4 - 897*t1*t3*z^9 + 3450*t1^2*z^16 + 525*z^32)/(897*z^9)",
          "(-238*t1^5 + 85*t2*t3*z^15 + 1700*t1^3*z^16 - 750*t1*z^32)/(85*z^15)",
          "(49*t1^6 + 2415*t1^4*z^16 + 3*t3^2*z^18 + 795*t1^2*z^32 - 35*z^48)/(6*z^18)"],
 },
 "LT18": {
   "weights": ["1/10", "1/5", "1"], "ext": None,
   "g": ["-t1*(5*t1^6*t2^2 - 14*t2^5 - 2*t3)/2",
          "(5*t1^12 + 275*t1^6*t2^3 - 55*t2^6 + 33*t2*t3)/33",
          "(-100*t1^18*t2 + 2550*t1^12*t2^4 + 12750*t1^6*t2^7 + 595*t2^10 + 9*t3^2)/18"],
 },
 "LT19": {
   "weights": ["3/10", "3/5", "1"],
   "ext": {"weight": "1/5", "relation": "t1^6 + t2*z^6 + z^9"},
   "g": ["t1*(-80*t2^2 + 910*t3*z + 165*t2*z^3 + 63*z^6)/(910*z)",
          "(4*t2*t3 - 12*t2^2*z^2 - 36*t2*z^5 - 27*z^8)/4",
          "(-560*t1^18 + 595*t3^2*z^17 + 7140*t2^2*z^21 - 8160*t2*z^24 - 15113*z^27)/(1190*z^17)"],
 },
 "LT30": {
   "weights": ["1/8", "3/8", "1"], "ext": None,
   "g": ["(5*t1^9 - 84*t1^6*t2 - 210*t1^3*t2^2 + 140*t2^3 + 9*t1*t3)/9",
          "(140*t1^11 - 165*t1^8*t2 + 924*t1^5*t2^2 + 770*t1^2*t2^3 + 11*t2*t3)/11",
          "(-95680*t1^16 - 432320*t1^13*t2 + 780416*t1^10*t2^2 - 58240*t1^7*t2^3 + 1019200*t1^4*t2^4 + 203840*t1*t2^5 + 39*t3^2)/78"],
 },
}


PATHS = {
    "H3":   dict(t2=(0.05, 0.12), seed=None),
    "H3p":  dict(t2=(0.4, 0.6), seed=[0.6134, 0.8853]),
    "H3pp": dict(t2=(0.4, 0.6), seed=[-0.7746, 0.0]),
    "LT8":  dict(t2=(0.4, 0.6), seed=None),
    "LT26": dict(t2=(0.4, 0.6), seed=None),
    "LT27": dict(t2=(0.4, 0.6), seed=[0.8565, 0.0]),
    "LT13": dict(t2=(0.8, 1.0), seed=None),
    "LT14": dict(t2=(0.4, 0.6), seed=[0.5754, -0.8452]),
    "LT18": dict(t2=(0.05, 0.12), seed=None),
    "LT19": dict(t2=(0.4, 0.6), seed=[-1.0485, 0.0]),
    "LT30": dict(t2=(0.4, 0.6), seed=None),
}

SOURCES = {
    "H3":   ("icosahedral solution", "polynomial prepotential; Frobenius case"),
    "H3p":  ("great icosahedral solution", "algebraic prepotential over the z-extension"),
    "H3pp": ("great dodecahedron solution", "algebraic prepotential over the z-extension"),
    "LT8":  ("Klein solution (Boalch)", "det(-T) is the ST24 discriminant in basic invariants"),
    "LT26": ("solution 38 (Boalch)", "det(-T) is the ST27 discriminant in basic invariants"),
    "LT27": ("solution 37 (Boalch)", "det(-T) is the ST27 discriminant in invariants z, t1, t3"),
    "LT13": ("solution 27 (Boalch)", "det(-T) matches the free-divisor polynomial F_B6 up to a weight-preserving change; only weight/degree compatibility is checked here"),
    "LT14": ("solution of Kitaev", "det(-T) in z^5, t2, t3 matches F_B6 up to a weight-preserving change; only weight/degree compatibility is checked here"),
    "LT18": ("solution 29 (Boalch)", "det(-T) in t2, t1^6, t3 matches F_H2 up to a weight-preserving change; only weight/degree compatibility is checked here"),
    "LT19": ("solution 30 (Boalch)", "det(-T) in z, t2, t3 matches F_H2 up to a weight-preserving change; only weight/degree compatibility is checked here"),
    "LT30": ("solution 13 (Boalch)", "det(-T) matches the E14-singularity deformation polynomial F_E14 up to a weight-preserving change; only weight/degree compatibility is checked here"),
}


def build_ring(spec):
    if spec["ext"] is None:
        return Ring(spec["weights"])
    rel_num, rel_den = exprio.parse_raw(spec["ext"]["relation"], 3, allow_z=True)
    assert len(rel_den) == 1 and not any(next(iter(rel_den)))
    return Ring(spec["weights"], extension=rel_num,
                z_weight=spec["ext"]["weight"])


def build_pvf(name, spec):
    ring = build_ring(spec)
    if "g" in spec:
        g = [exprio.parse_expr(s, ring) for s in spec["g"]]
    else:
        Fpot = exprio.parse_expr(spec["F"], ring)
        g = [Fpot.partial(2).cancel(), Fpot.partial(1).cancel(),
             Fpot.partial(0).cancel()]
    return fc.PotentialVF(ring=ring, g=g, name=name)


def verify(name, pvf, flags):
    report, _ = catalog.symbolic_block(pvf, flags)
    if not report["pass"]:
        raise SystemExit(f"{name}: verification failed before writing")


def main():
    t0 = time.time()
    os.makedirs(OUT, exist_ok=True)
    manifest = {}
    for name, spec in RAW.items():
        pvf = build_pvf(name, spec)
        pvf.meta["label"] = name
        pvf.meta["source"] = SOURCES[name][0]
        if "F" in spec:
            pvf.meta["prepotential"] = spec["F"]
        flags = {"has_prepotential": name == "H3",
                 "has_extension": spec["ext"] is not None}
        verify(name, pvf, flags)
        doc = exprio.serialize_pvf(pvf)
        pvf2 = exprio.parse_pvf(doc)
        assert exprio.serialize_pvf(pvf2) == doc
        for a, b in zip(pvf.g, pvf2.g):
            assert (a - b).is_zero()
        p = PATHS[name]
        entry = {
            "id": name,
            "pvf": doc,
            "flags": flags,
            "default_path": {"t1": 1.0, "t2_start": p["t2"][0],
                             "t2_end": p["t2"][1], "points": 41,
                             "z_seed": p["seed"]},
            "p6_entry": [1, 2],
            "notes": SOURCES[name][1],
        }
        text = json.dumps(entry, indent=1, sort_keys=True) + "\n"
        fn = f"{name.lower()}.json"
        with open(os.path.join(OUT, fn), "w") as f:
            f.write(text)
        manifest[fn] = hashlib.sha256(text.encode()).hexdigest()
        print(f"  {name}: ok")
    with open(os.path.join(OUT, "MANIFEST.json"), "w") as f:
        f.write(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(manifest)} entries in {time.time()-t0:.1f}s")


if __name__ == "__main__":
    main()
