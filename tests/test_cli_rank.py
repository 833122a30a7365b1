"""The path verbs on a structure whose rank the path does not fit."""

import json

import pytest

from flatiso import cli, exprio


@pytest.mark.parametrize("verb", ["params", "schlesinger", "extract-p6",
                                  "midconv"])
def test_path_verbs_refuse_rank_two(capsys, tmp_path, trivial_n2, verb):
    # path documents give (t1, t2) points: an n = 3 base point and direction
    doc = tmp_path / "n2.json"
    doc.write_text(json.dumps(exprio.serialize_pvf(trivial_n2)))
    path = tmp_path / "path.json"
    path.write_text(json.dumps({"t1": 1.0, "t2_start": 0.45, "t2_end": 0.55,
                                "points": 21, "z_seed": None}))
    code = cli.main([verb, "--input", str(doc), "--path", str(path)])
    _, err = capsys.readouterr()
    assert code == 2 and err.startswith("input error:"), err
    assert "n = 2" in err
