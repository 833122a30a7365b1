"""List the lines of src/flatiso that a pytest run never executes.

    python tools/unexecuted_lines.py [PYTEST ARGS]

runs pytest in this process, with the arguments given, under a sys.settrace
hook that follows only frames whose code lies in src/flatiso/.  It then
prints each executable line that never ran as `file:line: text`, and the
count per module.  A module's executable lines are the lines of its compiled
code (co_lines() of every code object in it, nested ones included), so blank
lines, comments and docstrings never count.  Code that runs only in a child
process (the tests that start an interpreter) counts as never run.  The
exit status is pytest's.
"""
import os
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "flatiso"


def executable_lines(path):
    """The line numbers of the compiled module at path (a module's code
    starts at line 0, which is no line of the file)."""
    code = compile(Path(path).read_text(), str(path), "exec")
    lines, todo = set(), [code]
    while todo:
        c = todo.pop()
        lines.update(line for _, _, line in c.co_lines() if line)
        todo += [k for k in c.co_consts if isinstance(k, types.CodeType)]
    return lines


class LineTracer:
    """The lines run in frames whose code lies under a directory, as
    executed[real path] = {line numbers}, while the tracer is entered.
    Frames elsewhere are not traced line by line."""

    def __init__(self, directory):
        self.prefix = os.path.join(os.path.realpath(directory), "")
        self.executed = {}
        self._lines = {}                # code object -> its file's set, or None
        self._saved = None

    def _lines_of(self, code):
        if code not in self._lines:
            path = os.path.realpath(code.co_filename)
            self._lines[code] = (self.executed.setdefault(path, set())
                                 if path.startswith(self.prefix) else None)
        return self._lines[code]

    def _call(self, frame, event, arg):
        lines = self._lines_of(frame.f_code)
        if lines is None:
            return None
        lines.add(frame.f_lineno)

        def line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return line
        return line

    def __enter__(self):
        self._saved = sys.gettrace(), threading.gettrace()
        threading.settrace(self._call)
        sys.settrace(self._call)
        return self

    def __exit__(self, *exc):
        sys.settrace(self._saved[0])
        threading.settrace(self._saved[1])


def report(directory, executed):
    """`file:line: text` for each executable line of the modules under
    directory that is not in executed[real path], then one count line per
    module; files relative to the working directory."""
    listed, counts = [], []
    for path in sorted(Path(directory).rglob("*.py")):
        lines = executable_lines(path)
        missed = sorted(lines - executed.get(os.path.realpath(path), set()))
        text = path.read_text().splitlines()
        name = os.path.relpath(path)
        listed += [f"{name}:{n}: {text[n - 1].strip()}" for n in missed]
        counts.append(f"{name}: {len(missed)} of {len(lines)} lines never ran")
    return listed + counts


def main(argv):
    import pytest
    sys.path.insert(0, str(ROOT / "src"))
    with LineTracer(PACKAGE) as tracer:
        status = pytest.main(argv)
    print("\n".join(report(PACKAGE, tracer.executed)))
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
