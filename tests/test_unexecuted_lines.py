"""tools/unexecuted_lines.py: the lister, on a small module of its own."""

import importlib
import importlib.util
from pathlib import Path

MODULE = ('"""A module."""\n'          # 1
          "\n"
          "def sign(x):\n"              # 3
          '    """The sign."""\n'
          "    if x > 0:\n"             # 5
          "        return 1\n"          # 6
          "    # not positive\n"
          "    return -1\n"             # 8
          "\n"
          "\n"
          "def unused():\n"             # 11
          "    return 0\n")             # 12


def load_tool():
    path = Path(__file__).resolve().parents[1] / "tools" / "unexecuted_lines.py"
    spec = importlib.util.spec_from_file_location("unexecuted_lines", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_lister_names_the_lines_that_never_ran(tmp_path, monkeypatch):
    # one call of sign takes the if branch: the last line of sign and the
    # body of the function never called are listed, with their text, and
    # blank lines, the comment and the docstrings are not executable
    tool = load_tool()
    folder = tmp_path / "traced"
    folder.mkdir()
    module = folder / "lister_probe.py"
    module.write_text(MODULE)
    monkeypatch.syspath_prepend(str(folder))
    monkeypatch.chdir(tmp_path)
    assert tool.executable_lines(module) == {1, 3, 5, 6, 8, 11, 12}
    with tool.LineTracer(folder) as tracer:
        assert importlib.import_module("lister_probe").sign(2) == 1
    assert list(tracer.executed) == [str(module.resolve())]
    assert tool.report(folder, tracer.executed) == [
        "traced/lister_probe.py:8: return -1",
        "traced/lister_probe.py:12: return 0",
        "traced/lister_probe.py: 2 of 7 lines never ran"]
    assert tool.report(folder, {})[-1] == (
        "traced/lister_probe.py: 7 of 7 lines never ran")
