"""Print each statement of ``src/radarkit`` that no tier-1 test executes.

Runs the tier-1 suite in this process under ``sys.settrace`` and
``threading.settrace``, records the lines run in the package's files, and
then lists, as ``path:line: source``, every statement that has bytecode but
never ran.  A compound statement (``if``, ``for``, ``def``, ...) counts as
run when its header ran; a simple statement when any of its lines ran.

    python3 tools/untested_lines.py                 # the whole tier-1 suite
    python3 tools/untested_lines.py tests/test_evaluation.py -k match

Extra arguments replace the default ``tests`` path and go to pytest.  Only
the standard library and pytest are needed.  Tracing makes the suite run
about twice as long.  The exit status is pytest's when that is not 0, else
1 if any statement is listed, else 0.
"""

from __future__ import annotations

import ast
import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "radarkit") + os.sep


def run_traced(args) -> tuple[int, dict[str, set[int]]]:
    """Run pytest on `args` while recording, per package file, the lines
    that started executing; returns pytest's exit code and those lines."""
    import pytest

    executed: dict[str, set[int]] = {}
    tracers = {}

    def local_tracer(lines):
        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local
        return local

    def trace(frame, event, arg):
        path = frame.f_code.co_filename
        if path not in tracers:
            full = os.path.abspath(path)
            tracers[path] = (local_tracer(executed.setdefault(full, set()))
                             if full.startswith(PACKAGE) else None)
        local = tracers[path]
        if local is not None:
            local(frame, "line", arg)  # the first line of the call
        return local

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider", *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), executed


def _code_lines(code) -> set[int]:
    """Lines that carry bytecode in `code` and every code object nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, type(code)):
            lines |= _code_lines(const)
    return lines


def untested(path: str, executed: set[int]) -> list[int]:
    """First lines of the statements in `path` that have bytecode and never ran."""
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    has_code = _code_lines(compile(source, path, "exec"))
    missed = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt):
            continue
        body = getattr(node, "body", None)
        end = body[0].lineno - 1 if isinstance(body, list) and body else node.end_lineno
        start = min([d.lineno for d in getattr(node, "decorator_list", ())] + [node.lineno])
        span = set(range(start, max(end, node.lineno) + 1))
        if span & has_code and not span & executed:
            missed.append(node.lineno)
    return sorted(missed)


def main(argv) -> int:
    code, executed = run_traced(argv or [os.path.join(ROOT, "tests")])
    total = 0
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = PACKAGE + name
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        for lineno in untested(path, executed.get(path, set())):
            print(f"{os.path.relpath(path, ROOT)}:{lineno}: {lines[lineno - 1].strip()}")
            total += 1
    print(f"{total} statements in src/radarkit never ran", file=sys.stderr)
    return code or int(total > 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
