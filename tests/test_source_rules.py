"""The source rules of tools/source_rules.py: the package keeps them, and
each rule finds a violation planted in a copy of a module."""

import ast
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "source_rules", ROOT / "tools" / "source_rules.py")
source_rules = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(source_rules)


def test_the_package_keeps_every_rule_as_ci_runs_them():
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "source_rules.py"), "all"],
        capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert "src/eqcube/cli.py:" in result.stdout  # render_value's Fraction


def test_an_unknown_rule_is_refused(capsys):
    assert source_rules.main(["no-such-rule"]) == 2
    assert "Usage:" in capsys.readouterr().err


@pytest.mark.parametrize("rule, module, line, site", [
    ("private-imports", "cli.py", "from .exact_linalg import _vector",
     "_vector"),
    ("private-imports", "screen.py", "from . import recursion\n"
     "_planted = recursion._orbits", "recursion._orbits"),
    ("generated-code", "quotient.py", '_planted = eval("1")', "eval"),
    ("no-floats", "screen.py", "_planted = 0.5", "0.5"),
    ("no-floats", "oracle.py", "from math import sqrt",
     "from math import sqrt"),
    ("fraction-edge", "recursion.py",
     "def _planted():\n    return Fraction(1, 2)", "_planted"),
])
def test_each_rule_names_a_planted_violation(capsys, rule, module, line,
                                             site):
    path = f"src/eqcube/{module}"
    source = (ROOT / path).read_text()
    tree = ast.parse(source + line + "\n")
    lineno = source.count("\n") + line.count("\n") + 1
    found = {name: check(path, tree)
             for name, (_, check) in source_rules.RULES.items()}
    assert found.pop(rule) == [f"{path}:{lineno}: {site}"]
    # the other rules still pass on the planted module
    assert not any(found.values())


def test_an_edge_function_that_builds_no_fraction_is_named():
    path = "src/eqcube/cli.py"
    source = (ROOT / path).read_text()
    assert source.count("return str(Fraction(v))") == 1
    tree = ast.parse(source.replace("return str(Fraction(v))",
                                    "return str(v)"))
    assert source_rules.fraction_edge(path, tree) == [
        f"{path}: render_value is in EDGE but builds no Fraction"]
