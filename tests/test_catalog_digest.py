"""The symbolic catalog report pinned bit for bit.

The digest is the sha256 of the bytes that `catalog verify --all --json FILE`
writes at the default depth, symbolic: the exact verdicts and flags of every
entry and the tolerance table.  A change to the checks, to the tolerances or
to the report layout that alters one byte fails here.
"""

import hashlib

from flatiso import cli

DIGEST = "c66950a24ce4d5e0ebbebbcace6e55d142883126957bd57bba88ee070310a1e9"


def test_symbolic_catalog_report_bit_identical(tmp_path):
    out = tmp_path / "catalog.json"
    assert cli.main(["catalog", "verify", "--all", "--json", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DIGEST
