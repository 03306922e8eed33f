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


_PLANTED = '''

def _planted_sign(x):
    if x < 0:
        return -1
    return 1


_planted_sign(5)
'''


def _load(monkeypatch, path, name):
    """Import the module at `path` as `name`, registered in sys.modules
    for the length of the test (a dataclass looks its module up)."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)


def _traced_copy(monkeypatch, tmp_path, name, extra=""):
    """The coverage findings, with no allowlist, of importing a copy of
    exact_linalg.py with `extra` appended under the tracer, and the
    copy's lines."""
    path = tmp_path / "exact_linalg.py"
    path.write_text((ROOT / "src/eqcube/exact_linalg.py").read_text() + extra)
    _, hits = source_rules.traced_lines(
        tmp_path, lambda: _load(monkeypatch, path, name))
    return (source_rules.coverage_sites(tmp_path, hits, {}),
            path.read_text().splitlines())


def test_the_coverage_rule_names_a_planted_untested_branch(monkeypatch,
                                                           tmp_path):
    clean, _ = _traced_copy(monkeypatch, tmp_path, "clean_copy")
    planted, text = _traced_copy(monkeypatch, tmp_path, "planted_copy",
                                 _PLANTED)
    path = tmp_path / "exact_linalg.py"
    # an import runs the definitions, not the functions' bodies
    body = "    return ((i - 1) * m + (j - 1)) * m + (k - 1)"
    assert (f"{path}:{text.index(body) + 1}: flat_index: {body.strip()}"
            in clean)
    line = text.index("        return -1") + 1
    assert planted == clean + [f"{path}:{line}: _planted_sign: return -1"]


def test_the_coverage_allowlist_fails_on_a_line_that_runs_or_is_gone(
        monkeypatch, tmp_path, capsys):
    path = tmp_path / "planted.py"
    path.write_text(_PLANTED)
    _, hits = source_rules.traced_lines(
        tmp_path, lambda: _load(monkeypatch, path, "planted"))
    allowed = {("planted.py", "_planted_sign", "return -1"): "unreachable",
               ("planted.py", "_planted_sign", "return 1"): "wrong",
               ("planted.py", "_planted_sign", "return 0"): "gone"}
    assert source_rules.coverage_sites(tmp_path, hits, allowed) == [
        f"{path}:6: _planted_sign: return 1 is in UNRUN but runs",
        "planted.py: _planted_sign: return 0 is in UNRUN but is no line "
        "of the module"]
    assert capsys.readouterr().out == (
        f"{path}:5: _planted_sign: return -1 does not run: unreachable\n")


def test_the_tracer_in_place_before_is_restored(tmp_path):
    before = sys.gettrace()
    assert source_rules.traced_lines(tmp_path, lambda: 7) == (7, set())
    assert sys.gettrace() is before
