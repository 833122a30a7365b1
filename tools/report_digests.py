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
"""
import contextlib
import hashlib
import io
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from flatiso import catalog, cli

ENTRY_VERBS = ("verify-wdvv", "saito", "logvf", "extract-p6", "params",
               "schlesinger", "midconv")
DEPTHS = ("symbolic", "numeric", "full")


def report_digest(argv):
    """The sha256 of the report `flatiso argv --json FILE` writes, or
    exit-N when the verb writes none."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "report.json")
        with contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(argv) + ["--json", out])
        if not os.path.exists(out):
            return f"exit-{code}"
        with open(out, "rb") as f:
            return hashlib.sha256(f.read()).hexdigest()


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


def main(entries=None):
    for name, argv in runs(entries):
        print(name, report_digest(argv))


if __name__ == "__main__":
    main(sys.argv[1:] or None)
