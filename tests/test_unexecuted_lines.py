"""tools/unexecuted_lines.py: the lister, on a small module of its own."""

import importlib
import importlib.util
import sys
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


def test_named_list_decides_the_exit_status(tmp_path, monkeypatch, capsys):
    # a pytest run of its own calls sign(2): return -1 and return 0 never
    # run.  Naming both exits 0 and prints the reasons; leaving one out, or
    # naming a line that ran, exits 1 and names the offending line
    tool = load_tool()
    folder = tmp_path / "traced"
    folder.mkdir()
    (folder / "named_probe.py").write_text(MODULE)
    (tmp_path / "test_probe.py").write_text(
        "import named_probe\n\n\n"
        "def test_sign():\n"
        "    assert named_probe.sign(2) == 1\n")
    monkeypatch.syspath_prepend(str(folder))
    monkeypatch.chdir(tmp_path)

    def run(named):
        # each run imports, and so traces, the module afresh
        for module in ("test_probe", "named_probe"):
            sys.modules.pop(module, None)
        status = tool.main(["-p", "no:cacheprovider", "-p", "no:terminal",
                            "test_probe.py"], folder, named)
        return status, capsys.readouterr().out.splitlines()

    unrun = [("named_probe.py", "return -1", "only negative x"),
             ("named_probe.py", "return 0", "never called")]
    count = "traced/named_probe.py: 2 of 7 lines never ran"
    mismatch = "the lines that never ran are not the named ones:"
    assert run(unrun) == (0, [
        "traced/named_probe.py:8: return -1 -- only negative x",
        "traced/named_probe.py:12: return 0 -- never called", count])
    assert run(unrun[:1]) == (1, [
        "traced/named_probe.py:8: return -1 -- only negative x",
        "traced/named_probe.py:12: return 0", count, mismatch,
        "traced/named_probe.py:12: return 0: never ran, not named"])
    assert run(unrun + [("named_probe.py", "return 1", "positive x")]) == (1, [
        "traced/named_probe.py:8: return -1 -- only negative x",
        "traced/named_probe.py:12: return 0 -- never called", count, mismatch,
        "named_probe.py: return 1: named, but ran or is gone"])
