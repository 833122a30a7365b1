"""tools/report_digests.py: one `name sha256` line per CLI report."""

import hashlib
import importlib.util
import json
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


def test_kept_reports_hash_to_their_lines(tmp_path, capsys):
    tool = load_tool()
    tool.main(["LT8"], keep=str(tmp_path))
    lines = dict(line.split() for line in capsys.readouterr().out.splitlines())
    kept = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in tmp_path.iterdir()}
    assert kept == {f"{name.replace(':', '.')}.json": digest
                    for name, digest in lines.items()}


def test_compare_reads_moved_fields(tmp_path, capsys):
    # a number, a CSV cell and a flag move; equal reports print nothing
    before = {"pass": True, "z": [[1.0, 2.0], [3.0, 4.0]],
              "samples_csv": "s,y\n0.4,1+2j\n0.5,\n"}
    after = {"pass": False, "z": [[1.0, 2.0], [3.0, 4.5]],
             "samples_csv": "s,y\n0.4,1+2.25j\n0.5,\n"}
    for name, report in (("before", before), ("after", after)):
        (tmp_path / name).mkdir()
        for verb, r in (("params.LT8", report), ("saito.LT8", before)):
            (tmp_path / name / f"{verb}.json").write_text(json.dumps(r))
    load_tool().compare(str(tmp_path / "before"), str(tmp_path / "after"))
    assert capsys.readouterr().out.splitlines() == [
        "params.LT8", "  .pass changed", "  .z[][] 0.5", "  .samples_csv:y 0.25"]
