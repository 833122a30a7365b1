"""Machine-readable corpus of algebraic potential vector fields.

Eleven entries (H3, H3p, H3pp, LT8, LT26, LT27, LT13, LT14, LT18, LT19,
LT30) shipped as JSON documents with exact rational data, default sampling
paths and expected-property flags, plus a checksum manifest.  Each check's
pipeline lives here, one function per report block gated against the one
table TOLERANCES; catalog_verify composes them and the CLI verbs call them.
Loading the catalog and the symbolic checks import no numpy: the numeric
blocks import numpy, p6, isomono and midconv when they run.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from importlib import resources
from typing import Dict, List, Optional

from . import exprio, flatcore, logvf
from .errors import FlatIsoError, SchemaError, UnknownId
from .flatcore import PotentialVF, SaitoMatrices

IDS = ["H3", "H3p", "H3pp", "LT8", "LT26", "LT27", "LT13", "LT14",
       "LT18", "LT19", "LT30"]

TOLERANCES = {
    "symbolic": 0.0,
    "residue_identities": 1e-10,
    "pvi_residual": 1e-6,
    "schlesinger_residual": 1e-6,
    "trace_constancy": 1e-8,
    "midconv_recovery": 1e-8,
    "invariance_defect": 1e-6,
}

# The most grid points a sampling path (its points) or a Jimbo-Miwa
# trajectory (jm-roundtrip --steps) may ask for; every array along them is
# allocated up front.
MAX_POINTS = 10_000

# The smallest step of a sampling path, relative to max(1, |t2_start|,
# |t2_end|): sqrt(eps), as 2**-26.  Each sampled value carries a rounding of
# about eps times that scale, and the five-point stencils divide it by 12 h
# and 12 h^2; below sqrt(eps) the second differences read that rounding
# (eps / h^2 > 1), not the path, and the residuals measure nothing.
MIN_PATH_STEP = 2.0 ** -26


@dataclass
class PathSpec:
    points: list

    def __post_init__(self):
        self.points = [tuple(complex(c) for c in p) for p in self.points]


@dataclass
class CatalogEntry:
    id: str
    pvf: PotentialVF
    default_path: PathSpec
    flags: Dict[str, bool]
    p6_entry: tuple
    z_seed: Optional[complex]
    doc: dict


_cache: Dict[str, CatalogEntry] = {}
_manifest_checked = False


def _data_text(fn):
    return resources.files("flatiso.catalog_data").joinpath(fn).read_text()


def _check_manifest():
    global _manifest_checked
    if _manifest_checked:
        return
    manifest = json.loads(_data_text("MANIFEST.json"))
    for fn, digest in manifest.items():
        actual = hashlib.sha256(_data_text(fn).encode()).hexdigest()
        if actual != digest:
            raise FlatIsoError(f"catalog file {fn} fails its checksum")
    _manifest_checked = True


def catalog_list() -> List[str]:
    return list(IDS)


def path_from_doc(dp: dict):
    """(points, z_seed) of a sampling-path document: t1 fixed, t2 on
    points (1 to MAX_POINTS) uniform steps from t2_start to t2_end, z_seed
    null or [re, im].  A path of more than one point needs a step of at
    least MIN_PATH_STEP * max(1, |t2_start|, |t2_end|).  Any other document
    raises SchemaError.

    The t2 values, the path parameter of the tracked rows, are the grid of
    np.linspace bit for bit: t2_start + k * step, the last one t2_end.
    """
    def real(x):
        # neither a JSON bool nor NaN or an infinity
        return type(x) in (int, float) and abs(x) < float("inf")

    seed = dp.get("z_seed") if isinstance(dp, dict) else None
    if not (isinstance(dp, dict)
            and all(real(dp.get(k)) for k in ("t1", "t2_start", "t2_end"))
            and type(dp.get("points")) is int
            and 1 <= dp["points"] <= MAX_POINTS
            and (seed is None or type(seed) is list and len(seed) == 2
                 and all(map(real, seed)))):
        raise SchemaError("a sampling path needs real t1, t2_start and t2_end, "
                          f"an integer points from 1 to {MAX_POINTS} and "
                          f"z_seed null or [re, im]; got {dp!r}")
    a, b, n = dp["t2_start"], dp["t2_end"], dp["points"]
    step = (b - a) / max(n - 1, 1)
    if n > 1 and abs(step) < MIN_PATH_STEP * max(1, abs(a), abs(b)):
        raise SchemaError(f"a sampling path of {n} points needs a nonzero step "
                          f"of at least 2**-26 max(1, |t2_start|, |t2_end|); "
                          f"got {dp!r}")
    t2 = [a + k * step for k in range(n)]
    if n > 1:
        t2[-1] = b
    return ([(dp["t1"], s) for s in t2],
            None if seed is None else complex(*seed))


def catalog_get(entry_id: str) -> CatalogEntry:
    if entry_id not in IDS:
        raise UnknownId(entry_id)
    if entry_id in _cache:
        return _cache[entry_id]
    _check_manifest()
    doc = json.loads(_data_text(f"{entry_id.lower()}.json"))
    pvf = exprio.parse_pvf(doc["pvf"])
    points, seed = path_from_doc(doc["default_path"])
    entry = CatalogEntry(
        id=entry_id, pvf=pvf,
        default_path=PathSpec(points=points),
        flags=dict(doc["flags"]),
        p6_entry=tuple(doc.get("p6_entry", (1, 2))),
        z_seed=seed, doc=doc)
    _cache[entry_id] = entry
    return entry


# ---------------------------------------------------------------------------
# check pipelines: one function per report block, shared with the CLI verbs
# ---------------------------------------------------------------------------

def within(key: str, value: float) -> bool:
    """value < TOLERANCES[key], the comparison behind every numeric gate."""
    return bool(value < TOLERANCES[key])


def structure_report(pvf: PotentialVF) -> flatcore.WdvvReport:
    """check_extended_wdvv with the SaitoMatrices it checked; SchemaError
    when T is not homogeneous, so that there are none."""
    report = flatcore.check_extended_wdvv(pvf)
    if report.matrices is None:
        raise SchemaError("T is not homogeneous; input g is not weighted homogeneous")
    return report


def logvf_block(m: SaitoMatrices) -> dict:
    """The discriminant and logarithmic-field identities, exactly."""
    failed = logvf.logvf_identities(m)
    trace_ok = all(v.is_zero() for v in m.trace_defects)
    return {
        "logvf_identities": not failed,
        "identities_failed": failed,
        "trace_identity": trace_ok,
        "saito_criterion_c": str(logvf.generator_criterion(m)),
        # h is checked homogeneous of weight n (SaitoMatrices.h) before any
        # identity reads it
        "discriminant_weight": str(m.n),
        "pass": not failed and trace_ok,
    }


def symbolic_block(pvf: PotentialVF, flags: Dict[str, bool]):
    """(exact verdicts, the SaitoMatrices they were read from); flags
    select the prepotential check."""
    report = structure_report(pvf)
    m = report.matrices
    lv = logvf_block(m)
    out = {
        "wdvv_unit": report.unit_ok,
        "wdvv_homogeneity": report.homogeneity_ok,
        "wdvv_commutators": report.commutators_ok,
        "saito_relations": report.saito_relations_ok,
        "flat_normalization": report.flat_normalization_ok,
        "logvf_identities": lv["logvf_identities"],
        "trace_identity": lv["trace_identity"],
        "saito_criterion_c": lv["saito_criterion_c"],
        # the Okubo integrability equations are the Saito relations
        "okubo_integrability": report.saito_relations_ok,
        "discriminant_weight": lv["discriminant_weight"],
    }
    if flags.get("has_prepotential"):
        pre = flatcore.frobenius_check(pvf, m.C)
        out["prepotential_found"] = pre is not None
        stored = pvf.meta.get("prepotential")
        if pre is not None and stored:
            F_stored = exprio.parse_expr(stored, pvf.ring)
            out["prepotential_matches"] = (pre.F - F_stored).is_zero()
    out["pass"] = all(v is True for v in out.values() if isinstance(v, bool))
    return out, m


def pvi_block(m: SaitoMatrices, entry_choice, snaps):
    """(block, samples, params, defects): the PVI check of one entry on
    snapshots, and what p6.pvi_on_frames returned for it."""
    from . import p6
    samples, params, defects = p6.pvi_on_frames(m, entry_choice, snaps)
    res = float(defects[2].max())
    return ({"pvi_residual": res, "pass": within("pvi_residual", res)},
            samples, params, defects)


def schlesinger_block(snaps) -> dict:
    """The Schlesinger residual of residue snapshots along a path."""
    from . import isomono
    res = isomono.schlesinger_residual(snaps)
    return {"schlesinger_residual": res,
            "pass": within("schlesinger_residual", res)}


def midconv_block(m: SaitoMatrices, point, z_seed=None):
    """(block, convolved system): truncate at a path point, convolve back
    with -w_n, and measure the distances of the result's Gamma_inf from the
    weights and of its residue traces from the snapshot's, with the
    invariance defect of the big convolution system.  The Gamma_inf
    distance gates nothing: the lift's Gamma_inf is (Gamma_inf - lam, -lam)
    by construction, so it reads the rounding of (w_i - w_n) + w_n alone."""
    import numpy as np
    from . import midconv
    lam_w = list(m.weights)
    snap, sys1, family = midconv.rank_one_from_structure(m, point, lam_w,
                                                         z_seed=z_seed)
    out = midconv.middle_convolution(sys1, -lam_w[-1])
    ginf_err = float(np.abs(np.sort_complex(out.Gamma_inf)
                            - np.sort_complex(np.array(lam_w, dtype=complex))).max())
    tr_err = float(np.abs(np.sort_complex(out.traces())
                          - np.sort_complex(snap.traces)).max())
    inv = midconv.invariant_subspace_check(sys1, -lam_w[-1], family=family)
    block = {"gamma_inf_error": ginf_err, "trace_error": tr_err,
             "invariance_defect": inv.max_defect,
             "dim_K": inv.dim_K,
             "pass": (within("midconv_recovery", tr_err)
                      and within("invariance_defect", inv.max_defect))}
    return block, out


def _verify_numeric(entry: CatalogEntry, m: SaitoMatrices, snaps) -> dict:
    """Numeric checks on the default path's residue snapshots."""
    import numpy as np
    pvi, samples, params, _ = pvi_block(m, entry.p6_entry, snaps)
    trace_spread = float(np.abs(snaps.traces - snaps.traces[0]).max())
    # + 0.0 turns a -0.0 left by rounding into 0.0, so last-bit noise
    # cannot flip the printed sign of a vanishing part
    theta = np.round([params.theta0, params.theta1, params.thetat,
                      params.thetainf], 12) + 0.0
    return {
        "pvi_residual": pvi["pvi_residual"],
        "trace_spread": trace_spread,
        "theta": theta.tolist(),
        "samples": len(samples.s),
        "pass": pvi["pass"] and within("trace_constancy", trace_spread),
    }


def _verify_full(entry: CatalogEntry, m: SaitoMatrices, snaps) -> dict:
    """Full-depth checks; snaps as for _verify_numeric.  The entry survey
    reads every second snapshot."""
    from . import p6
    path = entry.default_path.points
    schles = schlesinger_block(snaps)
    mc, _ = midconv_block(m, path[len(path) // 2], z_seed=entry.z_seed)
    survey = p6.survey_on_frames(m, snaps[::2])
    return {"schlesinger_residual": schles["schlesinger_residual"],
            "entry_survey": survey,
            "midconv_gamma_inf_error": mc["gamma_inf_error"],
            "midconv_trace_error": mc["trace_error"],
            "invariance_defect": mc["invariance_defect"],
            "dim_K": mc["dim_K"],
            "pass": schles["pass"] and mc["pass"]}


def catalog_verify(entry_id: str, depth: str = "symbolic") -> dict:
    """Structured report; depth is one of symbolic, numeric, full."""
    if depth not in ("symbolic", "numeric", "full"):
        raise ValueError(f"unknown depth {depth!r}")
    entry = catalog_get(entry_id)
    report = {"id": entry_id, "depth": depth,
              "flags": dict(entry.flags),
              "tolerances": dict(TOLERANCES)}
    report["symbolic"], m = symbolic_block(entry.pvf, entry.flags)
    if depth != "symbolic":
        from . import isomono, p6
        snaps = isomono.snapshots_along(m, entry.default_path.points,
                                        p6.default_lambda(m.weights),
                                        z_seed=entry.z_seed)
        report["numeric"] = _verify_numeric(entry, m, snaps)
    if depth == "full":
        report["full"] = _verify_full(entry, m, snaps)
    report["pass"] = all(report[k]["pass"] for k in ("symbolic", "numeric", "full")
                         if k in report)
    return report
