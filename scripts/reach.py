"""List the statements of ``src/towercalc`` that the test suite never runs.

    python scripts/reach.py [pytest arguments]

Runs pytest in this process under a ``sys.settrace`` line tracer.  Every
Python child that a test starts loads the same tracer through a
``sitecustomize`` put first on its ``PYTHONPATH``, and writes its lines at
exit.  Then each statement of the package (docstrings aside) that no process
reached, and that ``ALLOWED`` does not name, is printed, and the exit status
is 1 if there is any.

``ALLOWED`` keys a statement by its file and a fragment of its text that
starts on the statement's first line and may run on over the next lines,
indentation aside.  Each fragment must occur in its file exactly once (a
tier-1 test checks this), so the list survives edits that move lines.  Not
part of tier-1: the traced suite takes about three times as long as the
plain one.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "towercalc"

ALLOWED = [
    # (file, fragment, why the statement stays unreached)
    (
        "exactnum.py",
        "return NotImplemented\nreturn self.coeffs == other.coeffs",
        "ParamPoly.__eq__ protocol return: lets Python try the other operand's __eq__",
    ),
    (
        "exactnum.py",
        "return NotImplemented\nreturn self.cols == other.cols",
        "ExactMatrix.__eq__ protocol return: lets Python try the other operand's __eq__",
    ),
    (
        "exactnum.py",
        "return NotImplemented\nif self.cols != other.rows:",
        "ExactMatrix.__mul__ protocol return: lets Python try the other operand's __rmul__",
    ),
    (
        "exactnum.py",
        'raise AssertionError("re-substitution failed")',
        "fault check: fires when solve_linear reads its solution off the wrong column",
    ),
    (
        "symplectic.py",
        'raise AssertionError("rank-1 hom must have a line as kernel-perp")',
        "fault check: fires when _perp_in_w returns the kernel itself, not its perp",
    ),
    (
        "scenarios.py",
        'raise TypeError("cannot serialize %r" % (value,))',
        "fault check: fires when a check kind returns a value with no JSON form, an iterator",
    ),
]

# Installed as the tracer of this process and, as a sitecustomize, of every
# Python child; ``OUT`` is filled in per run.
TRACER = '''
import atexit, os, sys

SRC = %(src)r
OUT = %(out)r
HITS = set()
_paths = {}


def _call(frame, event, arg):
    name = frame.f_code.co_filename
    path = _paths.get(name)
    if path is None:
        real = os.path.realpath(name)
        path = _paths[name] = real if real.startswith(SRC) else ""
    if not path:
        return None

    def line(frame, event, arg):
        if event == "line":
            HITS.add((path, frame.f_lineno))
        return line

    return line


def _dump():
    sys.settrace(None)
    if OUT:
        with open(os.path.join(OUT, "%%d.hits" %% os.getpid()), "w") as f:
            f.writelines("%%s\\t%%d\\n" %% hit for hit in HITS)


sys.settrace(_call)
atexit.register(_dump)
'''


def statements(path: Path):
    """Each statement of ``path`` but docstrings, with the lines any one of
    which the tracer reports when the statement runs."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    docstrings = {
        id(node.body[0])
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
        and isinstance(node.body[0].value.value, str)
    }
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or id(node) in docstrings:
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        body = getattr(node, "body", None)
        # A compound statement runs its header; `try` runs only its body.
        last = node.end_lineno if not body else body[0].lineno - (not isinstance(node, ast.Try))
        yield node.lineno, range(first, last + 1)


def stripped(name: str) -> str:
    """The text of ``src/towercalc/<name>`` with every line stripped, as
    ``ALLOWED`` fragments are written."""
    return "\n".join(line.strip() for line in (SRC / name).read_text(encoding="utf-8").splitlines())


def allowed_lines() -> set:
    """(file, line) of the statement that each ``ALLOWED`` fragment names."""
    lines = set()
    for name, fragment, _ in ALLOWED:
        text = stripped(name)
        lines.add((name, text[: text.index(fragment)].count("\n") + 1))
    return lines


def main(argv) -> int:
    import pytest

    out = tempfile.mkdtemp(prefix="reach-")
    child = Path(out) / "site"
    child.mkdir()
    (child / "sitecustomize.py").write_text(TRACER % {"src": str(SRC) + os.sep, "out": out})
    tracer = {}
    exec(TRACER % {"src": str(SRC) + os.sep, "out": ""}, tracer)

    real_init = subprocess.Popen.__init__

    def init(self, args, *rest, env=None, **kwargs):
        env = dict(os.environ if env is None else env)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(child), env.get("PYTHONPATH")]))
        real_init(self, args, *rest, env=env, **kwargs)

    subprocess.Popen.__init__ = init
    os.chdir(ROOT)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *argv])
    finally:
        sys.settrace(None)
        subprocess.Popen.__init__ = real_init
    hits = set(tracer["HITS"])
    for dump in Path(out).glob("*.hits"):
        for row in dump.read_text().splitlines():
            path, line = row.split("\t")
            hits.add((path, int(line)))
    shutil.rmtree(out)
    if status != 0:
        print("reach: pytest exited %d, so the counts below are incomplete" % status)

    allowed = allowed_lines()
    total = left = 0
    missed = set()
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        for line, span in sorted(statements(path), key=lambda s: s[0]):
            total += 1
            if any((str(path), l) in hits for l in span):
                continue
            missed.add((path.name, line))
            if (path.name, line) not in allowed:
                left += 1
                print("%s:%d: %s" % (path.relative_to(ROOT), line, source[line - 1].strip()))
    for name, line in sorted(allowed - missed):
        print("src/towercalc/%s:%d: allowlisted, but reached" % (name, line))
    print(
        "reach: %d statements, %d unreached, %d of them allowlisted, %d left"
        % (total, len(missed), len(missed & allowed), left)
    )
    return 1 if left or status else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
