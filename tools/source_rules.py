"""The source rules of the eqcube package, as CI runs them.

Usage: python3 tools/source_rules.py RULE [RULE ...]
       python3 tools/source_rules.py coverage

RULE is one of the names below, or `all`.  Every module of src/eqcube
(found next to this script's directory) is parsed once; each rule prints
its sites and the script exits 1 if any rule found a violation, 0
otherwise, and 2 for an unknown rule.

  private-imports  a name that starts with _ belongs to its module
  generated-code   only exact_linalg._compiled runs generated code
  no-floats        every value the package computes is an int or a
                   Fraction
  fraction-edge    Fractions are built only in the edge functions, and
                   each edge function builds one

`coverage` runs alone and is not part of `all`: it runs the tests/
suite under a line tracer, which takes about three times as long as a
plain run, and exits 1 if the run fails or if a line of src/eqcube
that the tests do not run is missing from UNRUN, or one in it runs.
"""

from __future__ import annotations

import ast
import dis
import os
import pathlib
import sys
import types
from typing import Callable, Iterable

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "eqcube"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def private_imports(path: str, tree: ast.Module) -> list[str]:
    """Any `from .module import _name` in the package, and any
    `name._private` where name is an imported eqcube module
    (`from . import module`, `import eqcube.module [as name]`) or a name
    imported from one (`from .module import Name`, then
    `Name._private`)."""
    bad = []
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "eqcube"):
            bad += [f"{path}:{node.lineno}: {alias.name}"
                    for alias in node.names if alias.name.startswith("_")]
            modules |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "eqcube":
                    parts = alias.name.split(".")
                    modules |= ({alias.asname} if alias.asname else
                                {".".join(parts[:k + 1])
                                 for k in range(len(parts))})
    bad += [f"{path}:{node.lineno}: {ast.unparse(node)}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and _private(node.attr)
            and ast.unparse(node.value) in modules]
    return bad


_BUILTINS = {"exec", "eval", "compile"}


def _runs_builtin(call: ast.Call) -> bool:
    f = call.func
    if isinstance(f, ast.Name):
        return f.id in _BUILTINS
    return (isinstance(f, ast.Attribute) and f.attr in _BUILTINS
            and isinstance(f.value, ast.Name)
            and f.value.id in ("builtins", "__builtins__"))


def generated_code(path: str, tree: ast.Module) -> list[str]:
    """A call to the exec, eval or compile builtins (bare or as
    builtins.name) anywhere but exact_linalg._compiled, whose tests
    check that the source it runs holds no data."""
    allowed = {id(node) for fn in tree.body
               if pathlib.PurePath(path).name == "exact_linalg.py"
               and isinstance(fn, ast.FunctionDef) and fn.name == "_compiled"
               for node in ast.walk(fn)}
    return [f"{path}:{node.lineno}: {ast.unparse(node.func)}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and _runs_builtin(node)
            and id(node) not in allowed]


_EXACT_MATH = {"comb", "factorial", "gcd", "lcm", "isqrt", "prod", "perm"}


def no_floats(path: str, tree: ast.Module) -> list[str]:
    """A float literal, a call to float, and any math function outside
    the exact integer ones (as math.name or imported from math)."""
    bad = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and type(node.value) is float:
            bad.append(f"{path}:{node.lineno}: {node.value!r}")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            bad.append(f"{path}:{node.lineno}: {ast.unparse(node)}")
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name)
              and node.value.id == "math" and node.attr not in _EXACT_MATH):
            bad.append(f"{path}:{node.lineno}: {ast.unparse(node)}")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            bad += [f"{path}:{node.lineno}: from math import {a.name}"
                    for a in node.names if a.name not in _EXACT_MATH]
    return bad


# the functions that may build a Fraction: rendering, exact quotients,
# parsing, the polynomial coefficients, and the reported values
EDGE = {
    "cli.py": {"render_value"},
    "exact_linalg.py": {"exact_quotient", "TensorVector.__truediv__"},
    "krawtchouk.py": {"TriPoly.render", "TriPoly.__truediv__",
                      "TriPoly.specialize_n"},
    "oracle.py": {"parse_rational", "ps_initial_triangle",
                  "verify_perfect_structure", "ps_brute_interweight"},
    "recursion.py": {"_sites"},
    "screen.py": {"hunt_witness"},
}


def _fraction_sites(node, names, scope=()):
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            inner = scope + (child.name,)
        if isinstance(child, ast.Call) and (
                isinstance(child.func, ast.Name) and child.func.id in names
                or isinstance(child.func, ast.Attribute)
                and child.func.attr == "Fraction"):
            yield child.lineno, ".".join(scope) or "<module>"
        yield from _fraction_sites(child, names, inner)


def fraction_edge(path: str, tree: ast.Module) -> list[str]:
    """Every call that builds a Fraction (as Fraction, an alias of it,
    or fractions.Fraction), listed by its enclosing function; the ones
    outside EDGE are violations, and so is each EDGE entry of the module
    that builds none, so the allowlist never outgrows the code."""
    names = {alias.asname or alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom)
             and node.module == "fractions"
             for alias in node.names if alias.name == "Fraction"}
    edge = EDGE.get(pathlib.PurePath(path).name, set())
    bad, built = [], set()
    for lineno, name in _fraction_sites(tree, names):
        print(f"{path}:{lineno}: Fraction built in {name}")
        built.add(name)
        if name not in edge:
            bad.append(f"{path}:{lineno}: {name}")
    return bad + [f"{path}: {name} is in EDGE but builds no Fraction"
                  for name in sorted(edge - built)]


# The lines of src/eqcube that no test runs, by module, enclosing
# function and source text, each with its reason.  The coverage rule
# fails on any other line that does not run, and on an entry here whose
# line runs or is gone, so the allowlist never outgrows the code.
UNRUN = {
    ("cli.py", "<module>", "raise SystemExit(main())"):
        "the __main__ call: tests run `python -m eqcube.cli` in a "
        "subprocess, which the tracer does not follow",
    ("quotient.py", "min_poly",
     'raise ArithmeticError("minimal polynomial must be integral")'):
        "Gauss's lemma: the monic minimal polynomial of an integer "
        "matrix has integer coefficients",
    ("quotient.py", "min_poly",
     'raise ArithmeticError("no dependence among I, A, ..., A^m")'):
        "Cayley-Hamilton: A^m is a combination of I, A, ..., A^(m-1)",
}


def _code_lines(code: types.CodeType) -> set[int]:
    """The lines where the bytecode of `code`, or of a code object
    nested in it, starts a line: the lines a line tracer can see run."""
    lines = {line for _, line in dis.findlinestarts(code) if line}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= _code_lines(const)
    return lines


def _scopes(tree: ast.Module) -> dict[int, str]:
    """The enclosing function or class of each line, dotted as
    `fraction_edge` names it; a module-level line is absent."""
    names = {}

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                inner = scope + (child.name,)
                names.update(dict.fromkeys(
                    range(child.lineno, child.end_lineno + 1),
                    ".".join(inner)))
            visit(child, inner)

    visit(tree, ())
    return names


def traced_lines(package: pathlib.Path, run: Callable[[], object]
                 ) -> tuple[object, set[tuple[str, int]]]:
    """run()'s result, and (file, line) of each line of the modules in
    `package` that ran meanwhile in this thread.  The `sys.settrace`
    tracer follows only frames of the package's code, and the tracer in
    place before is restored after."""
    prefix = str(package) + os.sep
    hits = set()

    def local(frame, event, arg):
        hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        return local(frame, event, arg)

    before = sys.gettrace()
    sys.settrace(tracer)
    try:
        result = run()
    finally:
        sys.settrace(before)
    return result, hits


def coverage_sites(package: pathlib.Path, hits: Iterable[tuple[str, int]],
                   allowed: dict) -> list[str]:
    """Each line of the modules in `package` that the tracer can see but
    that is not among `hits`, unless `allowed` names it; each line that
    `allowed` names and that ran; and each entry of `allowed` that names
    no line.  Prints the allowed lines that did not run, with their
    reasons."""
    hits = set(hits)
    bad, seen = [], set()
    for path in sorted(package.glob("*.py")):
        shown = path.relative_to(ROOT) if path.is_relative_to(ROOT) else path
        source = path.read_text()
        text = source.splitlines()
        scopes = _scopes(ast.parse(source))
        for line in sorted(_code_lines(compile(source, str(path), "exec"))):
            key = (path.name, scopes.get(line, "<module>"),
                   text[line - 1].strip())
            site = f"{shown}:{line}: {key[1]}: {key[2]}"
            ran = (str(path), line) in hits
            if key in allowed:
                seen.add(key)
                if ran:
                    bad.append(f"{site} is in UNRUN but runs")
                else:
                    print(f"{site} does not run: {allowed[key]}")
            elif not ran:
                bad.append(site)
    return bad + [f"{name}: {scope}: {line} is in UNRUN but is no line "
                  f"of the module" for name, scope, line in allowed
                  if (name, scope, line) not in seen]


def coverage() -> int:
    """Run the tests under the tracer and check src/eqcube's unrun
    lines against UNRUN."""
    import pytest  # only this rule needs it, to run the suite in-process

    sys.path.insert(0, str(PACKAGE.parent))
    status, hits = traced_lines(PACKAGE, lambda: pytest.main(
        ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")]))
    if status != 0:
        print(f"the traced test run failed: pytest exit {int(status)}",
              file=sys.stderr)
        return 1
    bad = coverage_sites(PACKAGE, hits, UNRUN)
    if bad:
        print("lines of src/eqcube no test runs:\n" + "\n".join(bad),
              file=sys.stderr)
        return 1
    return 0


RULES = {
    "private-imports": ("private names used across modules", private_imports),
    "generated-code": ("generated code outside exact_linalg._compiled",
                       generated_code),
    "no-floats": ("floats in src/eqcube", no_floats),
    "fraction-edge": ("Fractions built outside the edge", fraction_edge),
}


def main(argv: list[str]) -> int:
    if argv == ["coverage"]:
        return coverage()
    names = list(RULES) if argv == ["all"] else argv
    unknown = [name for name in names if name not in RULES]
    if not names or unknown:
        print(__doc__, file=sys.stderr)
        return 2
    trees = [(path.relative_to(ROOT).as_posix(), ast.parse(path.read_text()))
             for path in sorted(PACKAGE.glob("*.py"))]
    status = 0
    for name in names:
        header, rule = RULES[name]
        bad = [site for path, tree in trees for site in rule(path, tree)]
        if bad:
            print(f"{header}:\n" + "\n".join(bad), file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
