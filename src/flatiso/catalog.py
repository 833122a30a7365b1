"""Machine-readable corpus of algebraic potential vector fields.

Eleven entries (H3, H3p, H3pp, LT8, LT26, LT27, LT13, LT14, LT18, LT19,
LT30) shipped as JSON documents with exact rational data, default sampling
paths and expected-property flags, plus a checksum manifest.  catalog_verify
drives the symbolic and numeric pipelines on an entry.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from importlib import resources
from typing import Dict, List, Optional

import numpy as np

from . import exprio, flatcore, isomono, logvf, midconv, p6
from .errors import FlatIsoError, SchemaError, UnknownId
from .flatcore import PotentialVF, SaitoMatrices
from .isomono import PathSpec

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


@dataclass
class CatalogEntry:
    id: str
    pvf: PotentialVF
    default_path: PathSpec
    flags: Dict[str, bool]
    notes: str
    p6_entry: tuple
    z_seed: Optional[complex]
    path_svals: np.ndarray
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


def catalog_get(entry_id: str) -> CatalogEntry:
    if entry_id not in IDS:
        raise UnknownId(entry_id)
    if entry_id in _cache:
        return _cache[entry_id]
    _check_manifest()
    doc = json.loads(_data_text(f"{entry_id.lower()}.json"))
    pvf = exprio.parse_pvf(doc["pvf"])
    dp = doc["default_path"]
    svals = np.linspace(dp["t2_start"], dp["t2_end"], dp["points"])
    points = [(dp["t1"], s) for s in svals]
    seed = None
    if dp.get("z_seed") is not None:
        seed = complex(dp["z_seed"][0], dp["z_seed"][1])
    entry = CatalogEntry(
        id=entry_id, pvf=pvf,
        default_path=PathSpec(points=points,
                              max_step=2 * abs(svals[1] - svals[0])),
        flags=dict(doc["flags"]), notes=doc.get("notes", ""),
        p6_entry=tuple(doc.get("p6_entry", (1, 2))),
        z_seed=seed, path_svals=svals, doc=doc)
    _cache[entry_id] = entry
    return entry


# ---------------------------------------------------------------------------
# verification pipelines
# ---------------------------------------------------------------------------

def _verify_symbolic(pvf: PotentialVF, flags: Dict[str, bool]):
    """(exact verdicts, the SaitoMatrices they were read from).

    flags select the prepotential check.
    """
    report = flatcore.check_extended_wdvv(pvf)
    m = report.matrices
    if m is None:
        raise SchemaError("T is not homogeneous; input g is not weighted homogeneous")
    lrep = logvf.logvf_identities(m)
    crit = logvf.generator_criterion(m)
    trace_ok = all(v.is_zero()
                   for v in logvf.trace_identity_defects(m).values())
    out = {
        "wdvv_unit": report.unit_ok,
        "wdvv_homogeneity": report.homogeneity_ok,
        "wdvv_commutators": report.commutators_ok,
        "saito_relations": report.saito_relations_ok,
        "flat_normalization": report.flat_normalization_ok,
        "logvf_identities": lrep.all_ok,
        "trace_identity": trace_ok,
        "saito_criterion_c": str(crit),
        # the Okubo integrability equations are the Saito relations
        "okubo_integrability": report.saito_relations_ok,
        "discriminant_weight": str(m.h.weight()),
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


def _verify_numeric(entry: CatalogEntry, m: SaitoMatrices, track, snaps) -> dict:
    """Numeric checks on the default path's track and residue snapshots."""
    lam = p6.default_lambda(entry.pvf.ring.weights)
    samples, params, residual = p6.pvi_on_frames(
        m, lam, entry.p6_entry, track, entry.default_path.points,
        svals=entry.path_svals)
    traces = np.array([s.traces for s in snaps])
    trace_spread = float(np.abs(traces - traces[0]).max())
    # + 0.0 turns a -0.0 left by rounding into 0.0, so last-bit noise
    # cannot flip the printed sign of a vanishing part
    theta = np.round([params.theta0, params.theta1, params.thetat,
                      params.thetainf], 12) + 0.0
    out = {
        "pvi_residual": residual,
        "trace_spread": trace_spread,
        "theta": [str(x) for x in theta],
        "samples": len(samples),
        "pass": bool(residual < TOLERANCES["pvi_residual"]
                     and trace_spread < TOLERANCES["trace_constancy"]),
    }
    return out


def _verify_full(entry: CatalogEntry, m: SaitoMatrices, track, snaps) -> dict:
    """Full-depth checks; track and snaps as for _verify_numeric.  The entry
    survey reads every second frame."""
    pvf = entry.pvf
    path = entry.default_path.points
    svals = entry.path_svals
    schles = isomono.schlesinger_residual(snaps, svals=svals)

    _, ginf_err, tr_err, inv = midconv.round_trip(
        m, path[len(path) // 2], list(pvf.ring.weights), z_seed=entry.z_seed)
    survey = p6.survey_on_frames(m, p6.default_lambda(pvf.ring.weights),
                                 tuple(x[::2] for x in track), path[::2],
                                 svals=svals[::2])
    out = {
        "schlesinger_residual": schles,
        "entry_survey": survey,
        "midconv_gamma_inf_error": ginf_err,
        "midconv_trace_error": tr_err,
        "invariance_defect": inv.max_defect,
        "dim_K": inv.dim_K,
        "dim_L": inv.dim_L,
        "pass": bool(schles < TOLERANCES["schlesinger_residual"]
                     and ginf_err < TOLERANCES["midconv_recovery"]
                     and tr_err < TOLERANCES["midconv_recovery"]
                     and inv.max_defect < TOLERANCES["invariance_defect"]),
    }
    return out


def catalog_verify(entry_id: str, depth: str = "symbolic") -> dict:
    """Structured report; depth is one of symbolic, numeric, full."""
    if depth not in ("symbolic", "numeric", "full"):
        raise ValueError(f"unknown depth {depth!r}")
    entry = catalog_get(entry_id)
    report = {"id": entry_id, "depth": depth,
              "flags": dict(entry.flags),
              "tolerances": dict(TOLERANCES)}
    report["symbolic"], m = _verify_symbolic(entry.pvf, entry.flags)
    passed = report["symbolic"]["pass"]
    if depth in ("numeric", "full"):
        lam = p6.default_lambda(entry.pvf.ring.weights)
        track, snaps = isomono.track_snapshots(m, entry.default_path.points, lam,
                                               z_seed=entry.z_seed)
        report["numeric"] = _verify_numeric(entry, m, track, snaps)
        passed = passed and report["numeric"]["pass"]
    if depth == "full":
        report["full"] = _verify_full(entry, m, track, snaps)
        passed = passed and report["full"]["pass"]
    report["pass"] = bool(passed)
    return report
