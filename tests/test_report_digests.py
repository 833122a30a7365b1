"""tools/report_digests.py: one `name sha256` line per CLI report."""

import importlib.util
from pathlib import Path

from flatiso import catalog

from test_cli_digests import DIGESTS, VERBS


def load_tool():
    path = Path(__file__).resolve().parents[1] / "tools" / "report_digests.py"
    spec = importlib.util.spec_from_file_location("report_digests", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_runs_cover_every_report():
    names = [name for name, _ in load_tool().runs()]
    assert len(names) == len(set(names)) == 7 * len(catalog.catalog_list()) + 4
    assert names[-4:] == ["catalog-verify:symbolic", "catalog-verify:numeric",
                          "catalog-verify:full", "jm-roundtrip:11"]


def test_one_entry_matches_the_pinned_digests(capsys):
    load_tool().main(["LT8"])
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [name for name, _ in lines] == [f"{verb}:LT8" for verb in
                                           ("verify-wdvv", "saito", "logvf",
                                            "extract-p6", "params",
                                            "schlesinger", "midconv")]
    assert all(len(digest) == 64 for _, digest in lines)
    assert tuple(digest for _, digest in lines[:len(VERBS)]) == DIGESTS["LT8"]
