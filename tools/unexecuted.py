"""List the statements of src/redload/*.py that no test executes.

    python3 tools/unexecuted.py -q --deselect tests/test_acceptance.py
    python3 tools/unexecuted.py tests/test_trace.py

Runs pytest in this process, with every argument passed through, under a
`sys.settrace` line trace of the package's modules, then prints one
`module:line  source` line per statement that no test executed, in file
order. Docstrings are not statements here. Standard library only, since
the line trace that `coverage` would give must also work where it is not
installed; the package is imported from src/ once tracing has begun, so
its module-level statements count. The exit code is pytest's.

Statements that run only in a subprocess stay listed, since the trace
sees this process alone: `__main__.py`, the `__main__` guard in `cli.py`,
and `BinaryEvents.__next__`, which only the benchmark's tracer calls.
Tests with a wall-clock bound may fail under the trace, which slows the
package several times; a run of Tier-1 without `test_acceptance.py` takes
minutes.
"""

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "redload"


def statement_lines(source):
    """{line: first line of its statement} over the lines that can start
    a statement's code, and the first lines of every statement but
    docstrings. A compound statement owns only its header lines."""
    tree = ast.parse(source)
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and \
                    isinstance(first.value, ast.Constant) and \
                    isinstance(first.value.value, str):
                docstrings.add(first)
    owner, starts = {}, set()
    # ast.walk goes outside in, so an inner statement's lines win.
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or node in docstrings or \
                isinstance(node, (ast.Global, ast.Nonlocal)):
            continue
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if body else node.end_lineno
        first = min([node.lineno] + [d.lineno for d in getattr(
            node, "decorator_list", ())])
        for line in range(first, max(last, node.lineno) + 1):
            owner[line] = node.lineno
        starts.add(node.lineno)
    return owner, starts


def main(argv):
    files = {str(path): path for path in sorted(PACKAGE.glob("*.py"))}
    executed = {name: set() for name in files}

    def trace_lines(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return trace_lines

    def trace_calls(frame, event, arg):
        return trace_lines if frame.f_code.co_filename in executed else None

    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    threading.settrace(trace_calls)
    sys.settrace(trace_calls)
    try:
        code = pytest.main(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    for name, path in files.items():
        source = path.read_text(encoding="utf-8")
        owner, starts = statement_lines(source)
        ran = {owner[line] for line in executed[name] if line in owner}
        lines = source.splitlines()
        for line in sorted(starts - ran):
            print(f"{path.name}:{line}  {lines[line - 1].strip()}")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
