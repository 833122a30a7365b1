"""Command-line front end.

Verbs: verify-wdvv, saito, logvf, extract-p6, params, schlesinger, midconv,
jm-roundtrip, catalog.  Machine-readable JSON goes to stdout (or --json FILE);
a one-line human summary goes to stderr.  Exit codes: 0 all requested checks
pass, 1 a check failed, 2 input error, 3 numeric failure.  The symbolic verbs
(verify-wdvv, saito, logvf, catalog verify --depth symbolic) never load
numpy: the numeric verbs import it, with p6, isomono and midconv, when they
run.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache

from . import catalog as cat
from . import exprio, flatcore
from .errors import FlatIsoError, InputError, NumericError, SchemaError

INPUT_ERRORS = (InputError, OSError, UnicodeDecodeError, json.JSONDecodeError)

DEFAULT_SEED = 20240901


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors print an input error line."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(2, f"input error: {message}\n")


@lru_cache(maxsize=None)
def _build_parser():
    """The argument parser, built once per process."""
    ap = _Parser(
        prog="flatiso",
        description="flat-structure verification and Painleve VI extraction")
    sub = ap.add_subparsers(dest="verb", required=True)

    def common(p, path=False, entry=False):
        p.add_argument("--catalog", metavar="ID", help="catalog entry id")
        p.add_argument("--input", metavar="FILE",
                       help="potential-vector-field JSON document")
        p.add_argument("--json", metavar="FILE",
                       help="write the JSON report here instead of stdout")
        if path:
            p.add_argument("--path", metavar="FILE",
                           help="sampling path JSON (t1, t2_start, t2_end, points, z_seed)")
        if entry:
            p.add_argument("--entry", metavar="I,J", default=None,
                           help="matrix entry for the PVI extraction, e.g. 1,2")
        return p

    common(sub.add_parser("verify-wdvv", help="exact extended-WDVV check"))
    common(sub.add_parser("saito", help="build matrices; structure relations"))
    common(sub.add_parser("logvf", help="discriminant and logarithmic-field identities"))
    common(sub.add_parser("extract-p6", help="PVI samples along a path"),
           path=True, entry=True)
    common(sub.add_parser("params", help="PVI parameters at the path start"), path=True)
    common(sub.add_parser("schlesinger", help="Schlesinger residual along a path"),
           path=True)
    common(sub.add_parser("midconv", help="truncation + middle-convolution round trip"),
           path=True)
    jm = sub.add_parser("jm-roundtrip",
                        help="PVI Hamiltonian integration and 2x2 Schlesinger check")
    jm.add_argument("--json", metavar="FILE")
    jm.add_argument("--seed", type=int, default=DEFAULT_SEED)
    jm.add_argument("--steps", type=int, default=400)
    c = sub.add_parser("catalog", help="list or verify the corpus")
    c.add_argument("action", choices=["list", "verify"])
    c.add_argument("--catalog", metavar="ID")
    c.add_argument("--all", action="store_true")
    c.add_argument("--depth", choices=["symbolic", "numeric", "full"],
                   help="verify depth (default symbolic)")
    c.add_argument("--json", metavar="FILE")
    return ap


def _resolve_input(args):
    """(pvf, path points, z_seed, entry_choice) from the flags."""
    if args.catalog is not None and args.input is not None:
        raise SchemaError("give one of --catalog or --input, not both")
    if args.catalog is not None:
        entry = cat.catalog_get(args.catalog)
        pvf = entry.pvf
        points = entry.default_path.points
        seed = entry.z_seed
        choice = entry.p6_entry
    elif args.input is not None:
        with open(args.input) as f:
            pvf = exprio.parse_pvf(f.read())
        points = seed = None
        choice = (1, 2)
    else:
        raise SchemaError("one of --catalog or --input is required")
    if getattr(args, "path", None) is not None:
        with open(args.path) as f:
            points, seed = cat.path_from_doc(json.load(f))
    if getattr(args, "entry", None) is not None:
        try:
            i, j = (int(x) for x in args.entry.split(","))
        except ValueError:
            raise InputError(f"--entry must be I,J, got {args.entry!r}") from None
        choice = (i, j)
    if points is None and hasattr(args, "path"):
        raise SchemaError("--path is required with --input for this verb")
    n = pvf.ring.nvars
    if points is not None and len(points[0]) != n - 1:
        raise InputError(f"path points give {len(points[0])} coordinates "
                         f"(t1, t2), which fit n = 3; {pvf.name} has n = {n}")
    return pvf, points, seed, choice


def _path_input(args):
    """(structure, entry choice, residue snapshots) of a path verb: the one
    tracked path (catalog.path_snapshots) that its report reads."""
    pvf, points, seed, choice = _resolve_input(args)
    m = flatcore.build_saito_matrices(pvf)
    return m, choice, cat.path_snapshots(m, points, seed)


def _tolerances(*keys):
    """The entries of catalog.TOLERANCES a verb gates on, for its report."""
    return {k: cat.TOLERANCES[k] for k in keys}


def _cpair(v):
    """A complex number as the JSON pair [re, im]."""
    v = complex(v)
    return [v.real, v.imag]


def _json_value(value):
    """JSON form of a value json cannot write: arrays become lists, numpy
    bools, ints and floats Python values, complex numbers [re, im]."""
    import numpy as np
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, (complex, np.complexfloating)):
        return _cpair(value)
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _report_text(report):
    """The report as JSON text.  JSON has no NaN or infinity, so a report
    holding one is a NumericError (exit 3), and nothing is written."""
    try:
        return json.dumps(report, indent=1, sort_keys=True,
                          default=_json_value, allow_nan=False)
    except ValueError as exc:
        raise NumericError(f"the report holds a non-finite number: {exc}"
                           ) from exc


def _emit(args, text, summary):
    if args.json is not None:
        with open(args.json, "w") as f:
            f.write(text + "\n")
    else:
        print(text)
    print(summary, file=sys.stderr)


# ---------------------------------------------------------------------------
# verb implementations (each returns (report, summary); the exit code is
# 0 when report["pass"] holds, else 1)
# ---------------------------------------------------------------------------

def _verdict(report):
    return "PASS" if report["pass"] else "FAIL"


def _run_verify_wdvv(args):
    pvf, *_ = _resolve_input(args)
    rep = flatcore.check_extended_wdvv(pvf)
    report = {
        "check": "verify-wdvv", "name": pvf.name,
        "tolerances": {"symbolic": "exact"},
        "unit_ok": rep.unit_ok, "homogeneity_ok": rep.homogeneity_ok,
        "commutators_ok": rep.commutators_ok,
        "failing_commutators": [list(pq) for pq in rep.failing_commutators()],
        "saito_relations_ok": rep.saito_relations_ok,
        "flat_normalization_ok": rep.flat_normalization_ok,
        "pass": rep.is_solution,
    }
    return report, f"extended WDVV: {_verdict(report)} ({pvf.name})"


def _run_saito(args):
    pvf, *_ = _resolve_input(args)
    rep = flatcore.check_extended_wdvv(flatcore.build_saito_matrices(pvf))
    m = flatcore.printed(pvf)
    report = {
        "check": "saito", "name": pvf.name,
        "tolerances": {"symbolic": "exact"},
        "saito_relations_ok": rep.saito_relations_ok,
        "flat_normalization_ok": rep.flat_normalization_ok,
        "C": exprio.serialize_matrix(m.C), "T": exprio.serialize_matrix(m.T),
        "Binf": [str(w) for w in m.weights],
        "pass": rep.saito_relations_ok and rep.flat_normalization_ok,
    }
    return report, f"saito relations: {_verdict(report)} ({pvf.name})"


def _run_logvf(args):
    pvf, *_ = _resolve_input(args)
    m = flatcore.build_saito_matrices(pvf)
    lv = cat.logvf_block(m)
    report = {
        "check": "logvf", "name": pvf.name,
        "tolerances": {"symbolic": "exact"},
        "h": exprio.format_elem(flatcore.printed(m).h),
        "h_weight": lv["discriminant_weight"],
        "identities_failed": lv["identities_failed"],
        "saito_criterion_c": lv["saito_criterion_c"],
        "trace_identity_ok": lv["trace_identity"],
        "pass": lv["pass"],
    }
    return report, f"logvf identities: {_verdict(report)} ({pvf.name})"


def _run_extract_p6(args):
    from . import p6
    m, choice, snaps = _path_input(args)
    block, samples, params, defects = cat.pvi_block(m, choice, snaps)
    report = {
        "check": "extract-p6", "name": m.name, "entry": list(choice),
        "tolerances": _tolerances("pvi_residual", "residue_identities"),
        "params": p6.params_to_json(params),
        "samples_csv": p6.samples_to_csv(samples, defects),
        **block,
    }
    return report, (f"PVI residual {block['pvi_residual']:.3e} "
                    f"({_verdict(report)})")


def _run_params(args):
    from . import p6
    m, choice, snaps = _path_input(args)
    params = p6.params_from_traces(snaps.traces[0], snaps.Binf, choice)
    report = {
        "check": "params", "name": m.name,
        # the tracker's bound and the snapshots' stop params (exit 3);
        # it gates nothing else
        "tolerances": {"root_separation": p6.ROOT_SEPARATION,
                       **_tolerances("residue_identities")},
        "params": p6.params_to_json(params),
        "pass": True,
    }
    return report, "PVI parameters computed"


def _run_schlesinger(args):
    m, _, snaps = _path_input(args)
    block = cat.schlesinger_block(snaps)
    report = {"check": "schlesinger", "name": m.name, **block, "tolerances":
              _tolerances("schlesinger_residual", "residue_identities")}
    return report, (f"Schlesinger residual {block['schlesinger_residual']:.3e} "
                    f"({_verdict(report)})")


def _run_midconv(args):
    from . import midconv
    m, _, snaps = _path_input(args)
    block, out = cat.midconv_block(m, snaps[len(snaps) // 2])
    report = {
        "check": "midconv", "name": m.name,
        "tolerances": _tolerances("midconv_recovery", "invariance_defect",
                                  "residue_identities"),
        "result": midconv.convolution_to_json(out),
        **block,
    }
    return report, f"midconv round trip ({_verdict(report)})"


def _run_jm_roundtrip(args):
    import numpy as np
    from . import isomono, p6
    # five grid points for the stencils, at most catalog.MAX_POINTS steps
    if not 4 <= args.steps <= cat.MAX_POINTS:
        raise InputError(f"--steps must be from 4 to {cat.MAX_POINTS}, "
                         f"got {args.steps}")
    if args.seed < 0:
        raise InputError(f"--seed must be a nonnegative integer, "
                         f"got {args.seed}")
    rng = np.random.default_rng(args.seed)
    th = tuple(rng.normal(0, 0.35, 3) + 1j * rng.normal(0, 0.1, 3))
    k2 = rng.normal(0, 0.35) + 1j * rng.normal(0, 0.1)
    k1 = -(k2 + sum(th))
    init = (2.1 + 0.4j + 0.2 * rng.normal(), 0.3 + 0.1j + 0.1 * rng.normal(), 1.0)
    ts, ys, zs, ks = isomono.integrate_p6_hamiltonian(
        th, (k1, k2), init, 2.0, 2.4, steps=args.steps)
    params = p6.P6Params.from_thetas(th[0], th[1], th[2], k1 - k2)
    pvi = p6.pvi_grid_residual(
        ts, ys, isomono.hamiltonian_velocity(ts, ys, zs, th), params)
    poles, residues = isomono.jm_residues(ts, ys, zs, ks, th, (k1, k2))
    schles = isomono.stacked_schlesinger_residual(poles, residues, svals=ts)
    # the last row of the checked residues is the final system
    final = {"A0": residues[-1, 0], "A1": residues[-1, 1],
             "At": residues[-1, 2], "thetas": th, "kappas": (k1, k2),
             "t": complex(ts[-1]), "y": ys[-1], "ztilde": zs[-1], "k": ks[-1]}
    report = {
        "check": "jm-roundtrip", "seed": args.seed,
        "tolerances": _tolerances("pvi_residual", "schlesinger_residual"),
        "thetas": th, "kappas": [k1, k2],
        "pvi_residual": pvi, "schlesinger_residual": schles,
        "trajectory_csv": isomono.trajectory_to_csv(ts, ys, zs, ks),
        "final_system": final,
        "pass": (cat.within("pvi_residual", pvi)
                 and cat.within("schlesinger_residual", schles)),
    }
    return report, (f"jm round trip pvi={pvi:.2e} schlesinger={schles:.2e} "
                    f"({_verdict(report)})")


def _run_catalog(args):
    if args.action == "list":
        if args.catalog is not None or args.all or args.depth is not None:
            raise SchemaError("catalog list takes no --catalog, --all or --depth")
        report = {"check": "catalog-list", "ids": cat.catalog_list(),
                  "pass": True}
        return report, " ".join(cat.catalog_list())
    if args.all and args.catalog is not None:
        raise SchemaError("give one of --all or --catalog, not both")
    ids = [args.catalog] if args.catalog is not None else cat.catalog_list()
    depth = args.depth or "symbolic"
    reports = {eid: cat.catalog_verify(eid, depth) for eid in ids}
    report = {"check": "catalog-verify", "depth": depth,
              "tolerances": dict(cat.TOLERANCES), "entries": reports,
              "pass": all(r["pass"] for r in reports.values())}
    return report, (f"catalog verify [{depth}]: "
                    + " ".join(f"{k}={'ok' if v['pass'] else 'FAIL'}"
                               for k, v in reports.items()))


VERBS = {
    "verify-wdvv": _run_verify_wdvv,
    "saito": _run_saito,
    "logvf": _run_logvf,
    "extract-p6": _run_extract_p6,
    "params": _run_params,
    "schlesinger": _run_schlesinger,
    "midconv": _run_midconv,
    "jm-roundtrip": _run_jm_roundtrip,
    "catalog": _run_catalog,
}


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
        report, summary = VERBS[args.verb](args)
        _emit(args, _report_text(report), summary)
    except SystemExit as exc:         # argparse, after --help or its usage
        return exc.code
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except INPUT_ERRORS as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except FlatIsoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if report["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
