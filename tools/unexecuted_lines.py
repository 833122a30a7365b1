"""List the lines of src/flatiso that a pytest run never executes.

    python tools/unexecuted_lines.py [PYTEST ARGS]

runs pytest in this process, with the arguments given, under a sys.settrace
hook that follows only frames whose code lies in src/flatiso/.  It then
prints each executable line that never ran as `file:line: text`, followed
by ` -- reason` where UNREACHED names the line, and the count per module.
A module's executable lines are the lines of its compiled code (co_lines()
of every code object in it, nested ones included), so blank lines,
comments and docstrings never count.  Code that runs only in a child
process (the tests that start an interpreter) counts as never run.

The exit status is pytest's when that is nonzero.  Otherwise it is 1 when
the lines that never ran are not exactly the named ones: some other line
never ran, or a named line ran or is gone.  Each such line is printed
after the counts.  The check assumes the whole suite ran; a run restricted
by -k or by test paths leaves more lines unrun.
"""
import os
import sys
import threading
import types
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "flatiso"

# The lines the test suite may leave unrun, each with its reason, as
# (module path relative to src/flatiso, stripped source text, reason).  The
# key is the file and the text, not the line number, so edits elsewhere do
# not shift it; a key stands for as many lines as it is listed times.
UNREACHED = [
    ("isomono.py", "raise StepUnderflow(",
     "monodromy_on_loop's Liouville check: once two successive levels agree "
     "within LOOP_TOL, det M and exp(int tr A dz) agree far inside its "
     "relative 1e-6, and no input was found that breaks it"),
    ("isomono.py",
     'f"Liouville check failed: det {det} vs exp(int tr) {target}")',
     "the message of the Liouville check above"),
]


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


def never_run(directory, executed):
    """(path, module, number of executable lines, [(line, stripped text)])
    for each module under directory, module its path relative to directory
    as UNREACHED gives it, the list holding its executable lines that are
    not in executed[real path]."""
    out = []
    for path in sorted(Path(directory).rglob("*.py")):
        lines = executable_lines(path)
        text = path.read_text().splitlines()
        missed = [(n, text[n - 1].strip())
                  for n in sorted(lines - executed.get(os.path.realpath(path), set()))]
        out.append((path, path.relative_to(directory).as_posix(), len(lines), missed))
    return out


def report(directory, executed, named=()):
    """`file:line: text` for each executable line of the modules under
    directory that is not in executed[real path], with ` -- reason` where
    named (entries as in UNREACHED) gives one, then one count line per
    module; files relative to the working directory."""
    reasons = {(module, text): reason for module, text, reason in named}
    listed, counts = [], []
    for path, module, total, missed in never_run(directory, executed):
        name = os.path.relpath(path)
        listed += [f"{name}:{n}: {text}"
                   + (f" -- {reasons[module, text]}" if (module, text) in reasons else "")
                   for n, text in missed]
        counts.append(f"{name}: {len(missed)} of {total} lines never ran")
    return listed + counts


def mismatches(directory, executed, named):
    """The lines that break the named list: each line that never ran and
    that named does not give, as `file:line: text: never ran, not named`,
    and each named line that ran or is gone, as `module: text: named, but
    ran or is gone`.  Empty when the lines that never ran are exactly the
    named ones."""
    left = Counter((module, text) for module, text, _ in named)
    out = []
    for path, module, _, missed in never_run(directory, executed):
        for n, text in missed:
            if left[module, text]:
                left[module, text] -= 1
            else:
                out.append(f"{os.path.relpath(path)}:{n}: {text}: never ran, not named")
    return out + [f"{module}: {text}: named, but ran or is gone"
                  for (module, text), k in left.items() for _ in range(k)]


def main(argv, directory=PACKAGE, named=UNREACHED):
    import pytest
    sys.path.insert(0, str(ROOT / "src"))
    with LineTracer(directory) as tracer:
        status = pytest.main(argv)
    print("\n".join(report(directory, tracer.executed, named)))
    bad = mismatches(directory, tracer.executed, named)
    if bad:
        print("\n".join(["the lines that never ran are not the named ones:"] + bad))
    return int(status) or int(bool(bad))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
