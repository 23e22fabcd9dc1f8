"""A pytest plugin that lists the statements of the package no test executes.

Run it over the tier-1 suite from the repository root:

    PYTHONPATH=src:tools python -m pytest -q --continue-on-collection-errors \
        -p unexecuted_statements

A `sys.settrace` line collector starts before pytest loads any conftest (so
before a conftest imports the package) and records the lines executed in
the main process, threads included; subprocesses and pool workers are not
seen. At the end of the run the terminal summary gives the number of `ast`
statements of `src/speechfeatures` none of whose header lines ran, and their
`file:line` list. Docstrings are not counted. A statement's header lines are
all of its lines for a simple statement, and the lines before its body (its
decorators included) for a compound one.
"""

import ast
import os
import sys
import threading

import pytest

PACKAGE = os.path.realpath(os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir, "src", "speechfeatures"))


def _docstrings(tree):
    """The Expr nodes that are a module, class or function docstring."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                yield first


def _header_lines(node):
    body = getattr(node, "body", None)
    if isinstance(body, list) and body and isinstance(body[0], ast.stmt):
        start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        return range(start, max(body[0].lineno, start + 1))
    return range(node.lineno, node.end_lineno + 1)


def unexecuted(executed):
    """The sorted (file name, line) of every statement of the package none
    of whose header lines is in executed[real path of its file]."""
    found = []
    for fname in sorted(os.listdir(PACKAGE)):
        if not fname.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, fname)
        with open(path, encoding="utf-8") as fp:
            tree = ast.parse(fp.read(), filename=path)
        skip = {id(node) for node in _docstrings(tree)}
        lines = executed.get(path, set())
        for node in ast.walk(tree):
            if (isinstance(node, ast.stmt) and id(node) not in skip
                    and not lines.intersection(_header_lines(node))):
                found.append((fname, node.lineno))
    return sorted(found)


class LineCollector:
    """Records the lines run in package files while it is started."""

    def __init__(self):
        self.files = {}  # code file name -> real path if in the package, else None
        self.executed = {}  # real path -> line numbers run

    def _trace_call(self, frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in self.files:
            path = os.path.realpath(filename)
            self.files[filename] = path if os.path.dirname(path) == PACKAGE else None
        if self.files[filename] is None:
            return None  # no line events for code outside the package
        lines = self.executed.setdefault(self.files[filename], set())

        def trace_line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return trace_line
        return trace_line

    def start(self):
        threading.settrace(self._trace_call)
        sys.settrace(self._trace_call)

    def pytest_terminal_summary(self, terminalreporter):
        sys.settrace(None)
        threading.settrace(None)
        found = unexecuted(self.executed)
        terminalreporter.write_sep(
            "=", f"{len(found)} unexecuted statements in src/speechfeatures")
        for fname, line in found:
            terminalreporter.write_line(f"src/speechfeatures/{fname}:{line}")


@pytest.hookimpl(tryfirst=True)
def pytest_load_initial_conftests(early_config):
    collector = LineCollector()
    early_config.pluginmanager.register(collector, "unexecuted-statements-collector")
    collector.start()
