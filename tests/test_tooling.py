"""Checks on the package source itself."""

import ast
from pathlib import Path

import hh1lab


def test_package_source_has_no_assert_statements():
    # invariants raise errors.InvariantViolation, which `python -O` keeps
    offenders = []
    for path in sorted(Path(hh1lab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        offenders += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.Assert)]
    assert offenders == []
