"""Print the sha256 of every CLI report, one `name sha256` line each.

The reports are written in process through `flatiso.cli.main` with --json
FILE: verify-wdvv, saito, logvf, extract-p6, params, schlesinger and midconv
for every catalog entry, `catalog verify --all` at each depth, and
`jm-roundtrip --seed 11`.  Two trees give the same output exactly when every
report is byte-identical, so comparing a change with its parent is one diff:

    python tools/report_digests.py > after.txt

Catalog ids as arguments (`python tools/report_digests.py LT8 LT19`) limit
the output to those entries' per-entry reports.  A report that a verb did not write (an input or numeric error) is listed as
`name exit-N` in place of its digest.

`--keep DIR` also keeps every report it hashes, as DIR/name.json with the
name's `:` written `.`.  Two kept trees are then compared field by field:

    python tools/report_digests.py --compare BEFORE AFTER

prints, for each report whose bytes differ, every numeric field that moved
with the largest |after - before| over its entries (a field's path with
list indices written `[]`, and a CSV column of a text field as
`field:column`), and every other field that changed.
"""
import argparse
import cmath
import contextlib
import csv
import hashlib
import io
import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from flatiso import catalog, cli

ENTRY_VERBS = ("verify-wdvv", "saito", "logvf", "extract-p6", "params",
               "schlesinger", "midconv")
DEPTHS = ("symbolic", "numeric", "full")


def report_digest(argv, keep=None):
    """The sha256 of the report `flatiso argv --json FILE` writes, or
    exit-N when the verb writes none; the report is copied to the path keep
    when one is given."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "report.json")
        with contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(argv) + ["--json", out])
        if not os.path.exists(out):
            return f"exit-{code}"
        with open(out, "rb") as f:
            data = f.read()
    if keep is not None:
        with open(keep, "wb") as f:
            f.write(data)
    return hashlib.sha256(data).hexdigest()


def runs(entries=None):
    """(name, argv) of every report; entries limits the per-entry verbs and
    leaves out the catalog-wide and jm-roundtrip reports."""
    for eid in entries or catalog.catalog_list():
        for verb in ENTRY_VERBS:
            yield f"{verb}:{eid}", [verb, "--catalog", eid]
    if entries is None:
        for depth in DEPTHS:
            yield (f"catalog-verify:{depth}",
                   ["catalog", "verify", "--all", "--depth", depth])
        yield "jm-roundtrip:11", ["jm-roundtrip", "--seed", "11"]


def _report_file(keep, name):
    return os.path.join(keep, name.replace(":", ".") + ".json")


def main(entries=None, keep=None):
    if keep is not None:
        os.makedirs(keep, exist_ok=True)
    for name, argv in runs(entries):
        path = None if keep is None else _report_file(keep, name)
        print(name, report_digest(argv, path))


def _number(x):
    """x as a finite complex number, or None: a JSON number, or a CSV cell
    such as 0.4 or 1+0j."""
    if isinstance(x, bool):
        return None
    try:
        v = complex(x)
    except (TypeError, ValueError):
        return None
    return v if cmath.isfinite(v) else None


def _csv_columns(a, b):
    """{column: (cells of a, cells of b)} of two CSV texts with one header
    and as many rows, or None."""
    ra, rb = (list(csv.reader(x.splitlines())) for x in (a, b))
    if len(ra) < 2 or len(ra) != len(rb) or ra[0] != rb[0]:
        return None
    cols = {}
    for i, name in enumerate(ra[0]):
        cols[name] = tuple([r[i] if i < len(r) else "" for r in rows[1:]]
                           for rows in (ra, rb))
    return cols


def _field_deltas(a, b, path="", out=None):
    """{field path: largest |b - a|} over the finite numeric leaves of two
    parsed reports, CSV cells included (a column's path is the field's with
    `:column`), and None for a field whose leaves differ in any other way
    (a string, a flag, a shape, a NaN that became a number)."""
    out = {} if out is None else out
    x, y = _number(a), _number(b)
    if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        for k in a:
            _field_deltas(a[k], b[k], f"{path}.{k}", out)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for u, v in zip(a, b):
            _field_deltas(u, v, path + "[]", out)
    elif x is not None and y is not None:
        if out.get(path, 0.0) is not None:
            out[path] = max(out.get(path, 0.0), abs(y - x))
    elif (isinstance(a, str) and isinstance(b, str) and a != b
          and (cols := _csv_columns(a, b))):
        for name, (us, vs) in cols.items():
            for u, v in zip(us, vs):
                _field_deltas(u, v, f"{path}:{name}", out)
    elif repr(a) != repr(b):
        out[path] = None
    return out


def compare(before, after):
    """Print every report of the kept tree before whose bytes differ in the
    kept tree after, with its fields that moved (_field_deltas)."""
    for name in sorted(os.listdir(before)):
        old, new = os.path.join(before, name), os.path.join(after, name)
        if not os.path.exists(new):
            print(name[:-5], "missing")
            continue
        with open(old, "rb") as f, open(new, "rb") as g:
            a, b = f.read(), g.read()
        if a == b:
            continue
        print(name[:-5])
        deltas = _field_deltas(json.loads(a), json.loads(b))
        for field, delta in deltas.items():
            if delta is None:
                print(f"  {field} changed")
            elif delta:
                print(f"  {field} {delta:.2g}")


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description="sha256 of every CLI report")
    ap.add_argument("entries", nargs="*", metavar="ID",
                    help="catalog ids: only these entries' reports")
    ap.add_argument("--keep", metavar="DIR", help="also keep every report in DIR")
    ap.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"),
                    help="compare two kept trees field by field")
    args = ap.parse_args()
    if args.compare:
        compare(*args.compare)
    else:
        main(args.entries or None, keep=args.keep)
