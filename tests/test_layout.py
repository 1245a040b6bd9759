"""Layout rules: nothing public in the package is dead weight, and the
parser reaches no budgeted operation.

Every public top-level function or class defined in ``src/transfinita`` must
be exported from the package, used somewhere else in the package, or
imported by the benchmark in ``bench/``.  Code that only tests use belongs
under ``tests/``.  Every public method or property of a public class must be
read as an attribute somewhere in ``src``, ``tests`` or ``bench``.  The
parser, which folds constants, imports only ``ordinal`` and ``natural``
and reads sums, products and unary operands in one loop, and importing the
CLI loads none of the modules that start-up can do without.
sympy serves the tests as a reference and no module of the package imports
it.
``expr`` moves values along the numeric tower through its tables, never by
an ``isinstance`` test on a tower type.  Only ``natural`` reads an exponent
as a monomial: it alone defines the ``_exp_*`` operations, and neither
``surrational`` nor ``cuts`` builds an ordinal itself.  Value classes are
immutable through ``ordinal._Frozen``, and none refuses assignment with
methods of its own.
"""

import ast
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "transfinita"
BENCH = ROOT / "bench"


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _imported_names(tree: ast.AST, package_only: bool) -> set:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if package_only and not (node.module or "").startswith("transfinita"):
                continue
            names.update(alias.name for alias in node.names)
    return names


def _used_names(tree: ast.AST, skip) -> set:
    """Names read, as bare names or ``from ... import`` names, outside
    ``skip``.  No module in the package reaches another through an
    attribute, so an attribute of the same name (``self.depth``) is not a
    use."""
    names = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        stack.extend(ast.iter_child_nodes(node))
    return names


def _orphans() -> list:
    modules = {p.stem: _parse(p) for p in sorted(SRC.glob("*.py"))}
    exported = _imported_names(modules.pop("__init__"), package_only=False)
    bench = set()
    for path in BENCH.glob("*.py"):
        bench |= _imported_names(_parse(path), package_only=True)
    out = []
    for mod, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("_") or name in exported or name in bench:
                continue
            if any(name in _used_names(t, node) for t in modules.values()):
                continue
            out.append(f"{mod}.{name}")
    return out


def test_every_public_definition_is_used():
    assert _orphans() == []


def _attributes_read(tree: ast.AST) -> set:
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def _unread_members() -> list:
    """Public methods and properties of public classes in the package that
    nothing in ``src``, ``tests`` or ``bench`` reads as an attribute."""
    paths = [*SRC.glob("*.py"), *(ROOT / "tests").glob("*.py"), *BENCH.glob("*.py")]
    read = set()
    for path in paths:
        read |= _attributes_read(_parse(path))
    out = []
    for path in sorted(SRC.glob("*.py")):
        for cls in _parse(path).body:
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                continue
            for node in cls.body:
                if (
                    isinstance(node, ast.FunctionDef)
                    and not node.name.startswith("_")
                    and node.name not in read
                ):
                    out.append(f"{cls.name}.{node.name}")
    return out


def test_every_public_member_is_read():
    assert _unread_members() == []


def test_parser_imports_only_ordinal_and_natural():
    # The parser folds constants, so it must reach no operation that reads a
    # budget or the evaluation context, and it builds its powers of w
    # itself, so it needs no recursive operation at all.  The package
    # imports itself by relative imports only, so an absolute one counts as
    # a breach too.
    reached, names = set(), set()
    for node in ast.walk(_parse(SRC / "parser.py")):
        if isinstance(node, ast.ImportFrom):
            name = node.module or ""
            if node.level or name.startswith("transfinita"):
                reached.add(name)
                names |= {a.name for a in node.names}
        elif isinstance(node, ast.Import):
            reached |= {a.name for a in node.names if a.name.startswith("transfinita")}
    assert reached <= {"ordinal", "natural"}
    assert not {n for n in names if n.startswith("rec_")}


def test_parser_reads_sums_products_and_unaries_in_one_loop():
    # parse_expr's loop replaced one method per precedence level; only
    # argument lists and brackets recurse, through parse_atom
    defined = {
        n.name for n in ast.walk(_parse(SRC / "parser.py")) if isinstance(n, ast.FunctionDef)
    }
    assert "parse_expr" in defined
    assert not defined & {"parse_sum", "parse_product", "parse_unary"}


def test_only_tokenize_reads_the_token_pattern():
    readers = {
        getattr(node, "name", f"line {node.lineno}")
        for node in _parse(SRC / "parser.py").body
        for n in ast.walk(node)
        if isinstance(n, ast.Name) and n.id == "_TOKEN" and isinstance(n.ctx, ast.Load)
    }
    assert readers == {"tokenize"}


def test_reference_front_end_has_its_own_tokenizer():
    tree = _parse(ROOT / "tests" / "reference_tree.py")
    from_package = _imported_names(tree, package_only=True)
    assert not {n for n in from_package if "token" in n.lower()}
    assert any(
        isinstance(node, ast.FunctionDef) and node.name == "tokenize" for node in tree.body
    )


def test_parser_loads_no_module_of_its_own():
    # every line pays the parser's imports at start-up; those beyond the
    # package are to be ones that re has loaded already
    stdlib = set()
    for node in ast.walk(_parse(SRC / "parser.py")):
        if isinstance(node, ast.ImportFrom) and not node.level:
            stdlib.add(node.module)
        elif isinstance(node, ast.Import):
            stdlib |= {a.name for a in node.names}
    stdlib -= {"__future__", "re"}
    probe = f"import re, sys; print(all(m in sys.modules for m in {sorted(stdlib)!r}))"
    done = subprocess.run(
        [sys.executable, "-I", "-S", "-c", probe], capture_output=True, text=True, timeout=60
    )
    assert done.stdout.strip() == "True", (stdlib, done.stderr)


# Modules that no eval call or batch child needs before its first record:
# dataclasses loads inspect, ast, dis and tokenize, typing is annotations
# only, and the oracle serves --oracle alone.
_NOT_AT_START_UP = ("dataclasses", "inspect", "typing", "transfinita.oracle")


def test_cli_start_up_loads_no_heavy_module():
    probe = (
        f"import sys; sys.path.insert(0, {str(SRC.parent)!r}); import transfinita.cli; "
        f"print([m for m in {_NOT_AT_START_UP!r} if m in sys.modules])"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-S", "-c", probe], capture_output=True, text=True, timeout=60
    )
    assert done.stdout.strip() == "[]", done.stderr


_TOWER_TYPES = {"Ordinal", "SurInteger", "SurRational", "GaussianSurRational"}


def test_expr_dispatches_on_the_tower_by_table():
    # promotion, lowering and the natural operators read expr's tower
    # tables; an isinstance test on a tower type would be a second ladder
    named = []
    for node in ast.walk(_parse(SRC / "expr.py")):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"
            and len(node.args) == 2
        ):
            named += [
                (n.id, node.lineno)
                for n in ast.walk(node.args[1])
                if isinstance(n, ast.Name) and n.id in _TOWER_TYPES
            ]
    assert named == []


def test_monomial_operations_live_in_natural():
    # one algorithm per monomial operation on exponents, in natural.py
    defined = [
        f"{path.stem}.{node.name}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(_parse(path))
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_exp_")
    ]
    assert defined and all(d.startswith("natural.") for d in defined), defined
    for mod in ("surrational", "cuts"):
        from_ordinal = {
            alias.name
            for node in ast.walk(_parse(SRC / f"{mod}.py"))
            if isinstance(node, ast.ImportFrom) and node.module == "ordinal"
            for alias in node.names
        }
        assert not from_ordinal & {"_make", "_finite"}, mod


def test_no_module_imports_sympy():
    # sympy is the tests' reference for gcds; the library needs only the
    # standard library
    importers = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module or ""]
            else:
                continue
            if any(n == "sympy" or n.startswith("sympy.") for n in names):
                importers.append(f"{path.stem}:{node.lineno}")
    assert importers == []


def test_immutability_comes_from_frozen():
    # every value class refuses assignment through ordinal._Frozen, which
    # alone defines __setattr__
    defining = sorted(
        path.stem
        for path in SRC.glob("*.py")
        for node in ast.walk(_parse(path))
        if isinstance(node, ast.FunctionDef) and node.name == "__setattr__"
    )
    assert defining == ["ordinal"]
