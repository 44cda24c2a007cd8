"""Opt-in pytest plugin: the function-body lines of `src/confsv` that no test runs.

    PYTHONPATH=src:tests python -m pytest -p linecov

Traces every thread with `sys.settrace` and, at the end of the session, lists
each never-run line as `path:line` with its count.  Tracing starts when the
plugin is imported, before `confsv` is, so a function that runs only at
import time, such as a helper called from a class body, counts as run.  Only
statements inside function bodies count; docstrings and `global`/`nonlocal`
compile to no code.  The plugin never loads unless asked for.
"""

import ast
import importlib.util
import sys
import threading
from pathlib import Path

# the package's directory, found without importing it
ROOT = importlib.util.find_spec("confsv").submodule_search_locations[0]
_ran: set[tuple[str, int]] = set()


def _trace(frame, event, arg):
    path = frame.f_code.co_filename
    if not path.startswith(ROOT):
        return None

    def line(frame, event, arg):
        if event == "line":
            _ran.add((path, frame.f_lineno))
        return line

    return line


def body_lines(path: Path) -> set[int]:
    """First lines of the statements inside function bodies, docstrings aside."""
    funcs = [n for n in ast.walk(ast.parse(path.read_text()))
             if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    skip = {id(f.body[0]) for f in funcs if ast.get_docstring(f) is not None}
    return {node.lineno for f in funcs for top in f.body for node in ast.walk(top)
            if isinstance(node, ast.stmt) and id(node) not in skip
            and not isinstance(node, (ast.Global, ast.Nonlocal))}


threading.settrace(_trace)
sys.settrace(_trace)


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    threading.settrace(None)
    total, never = 0, []
    for path in sorted(Path(ROOT).rglob("*.py")):
        lines = body_lines(path)
        total += len(lines)
        never += [f"{path.relative_to(Path(ROOT).parents[1])}:{n}"
                  for n in sorted(lines) if (str(path), n) not in _ran]
    terminalreporter.section("linecov")
    for entry in never:
        terminalreporter.write_line(entry)
    terminalreporter.write_line(f"{len(never)} of {total} function-body lines never ran")
