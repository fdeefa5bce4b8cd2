"""Every public top-level name of the package is used by the package or by
its benchmark. A name that only the tests read belongs in ``tests/``. No
module of the package imports or reads another module's underscore name.
The package imports only the standard library, numpy and itself, and makes
its random streams in one place, ``sampling.RngState.generator``. Every
integer argument of the CLI carries its bounds, and every per-choice range
covers its argument's choices, so that the bounds sweep reaches them all."""

import ast
import sys
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# read only by tests until the planned ``growth`` subcommand prints it
ALLOWED = {("exact", "bound_sequences")}


def public_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return {n for n in names if not n.startswith("_")}


def used_names(tree: ast.Module, defined: set[str]) -> set[str]:
    """Names read, attributes taken and names imported in ``tree``; a top-level
    definition of ``defined`` does not count as a use of itself."""
    used = set()
    for top in tree.body:
        names = set()
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
        used |= names - ({top.name} & defined if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else set())
    return used


def test_every_public_name_in_src_is_used_by_src_or_perfbench():
    modules = sorted((ROOT / "src").rglob("*.py"))
    trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in modules + sorted((ROOT / "perfbench").glob("*.py"))}
    defined = {p: public_names(trees[p]) for p in modules}
    used = set().union(*(used_names(t, defined.get(p, set())) for p, t in trees.items()))
    unused = {(p.stem, n) for p in modules for n in defined[p] - used}
    assert unused <= ALLOWED, sorted(unused - ALLOWED)
    assert ALLOWED <= {(p.stem, n) for p in modules for n in defined[p]}, "an allowed name no longer exists"


def foreign_private_names(stem: str, tree: ast.Module, stems: set[str]) -> set[str]:
    """``module.name`` of every underscore name of another package module that
    ``tree`` imports (``from .m import _x``) or reads (``m._x`` after ``from . import m``)."""
    found, aliases = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("butterfly_trees")):
            source = (node.module or "").rpartition(".")[2]
            for alias in node.names:
                if source in stems and source != stem and alias.name.startswith("_"):
                    found.add(f"{source}.{alias.name}")
                elif alias.name in stems:
                    aliases[alias.asname or alias.name] = alias.name
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
            source = aliases[node.value.id]
            if source != stem and node.attr.startswith("_") and not node.attr.startswith("__"):
                found.add(f"{source}.{node.attr}")
    return found


def test_no_src_module_reads_another_modules_underscore_names():
    modules = sorted((ROOT / "src").rglob("*.py"))
    stems = {p.stem for p in modules}
    found = {
        (p.stem, name) for p in modules for name in foreign_private_names(p.stem, ast.parse(p.read_text(encoding="utf-8")), stems)
    }
    assert not found, sorted(found)


def test_src_imports_only_the_standard_library_numpy_and_itself():
    # scipy stays in the tests, as the oracle of the p-values and distances that src/ computes
    allowed = set(sys.stdlib_module_names) | {"numpy", "butterfly_trees"}
    found = set()
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                found |= {alias.name.partition(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and not node.level:
                found.add(node.module.partition(".")[0])
    assert found and found <= allowed, sorted(found - allowed)
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    assert [d.partition(">")[0] for d in project["dependencies"]] == ["numpy"]


# numpy.random's makers of a seed sequence, a bit generator or a generator, by call name
STREAM_MAKERS = {"SeedSequence", "default_rng", "Generator", "RandomState", "BitGenerator", "MT19937", "PCG64", "PCG64DXSM", "Philox", "SFC64", "spawn", "jumped"}


def stream_makers(tree: ast.Module) -> set[str]:
    """Dotted name of the class and function scope (``<module>`` at top level) of
    every call in ``tree`` whose callee is named in ``STREAM_MAKERS``."""
    found = set()

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            inner = scope + (child.name,) if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else scope
            if isinstance(child, ast.Call):
                callee = child.func.attr if isinstance(child.func, ast.Attribute) else getattr(child.func, "id", None)
                if callee in STREAM_MAKERS:
                    found.add(".".join(scope) or "<module>")
            visit(child, inner)

    visit(tree, ())
    return found


def test_only_rngstate_generator_makes_a_random_stream():
    # one stream scheme: every generator of the package comes from RngState(seed, stream).generator()
    found = {(p.stem, scope) for p in sorted((ROOT / "src").rglob("*.py")) for scope in stream_makers(ast.parse(p.read_text(encoding="utf-8")))}
    assert found == {("sampling", "RngState.generator")}, sorted(found)


def test_no_cli_argument_is_a_bare_int():
    # an integer argument's type is cli._bounded_int, which carries the low and high that the
    # bounds sweep (test_bounds_sweep.py) reads back: a bare type=int would have no bound to try
    found = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.keyword) and node.arg == "type" and isinstance(node.value, ast.Name) and node.value.id == "int":
                found.append(f"{path.stem}:{node.value.lineno}")
    assert not found, found
    from butterfly_trees import cli

    _, subcommands = cli._parser()
    untyped = [(cmd, a.dest) for cmd, sub in subcommands.items() for a in sub._actions if type(a.default) is int and not hasattr(a.type, "low")]
    assert not untyped, untyped


def test_every_per_choice_range_is_keyed_by_its_arguments_choices():
    # so that no choice escapes its range, and --n's own type cuts none of them
    from butterfly_trees import cli

    _, subcommands = cli._parser()
    for cmd, (key, ranges) in cli._N_RANGES.items():
        actions = {a.dest: a for a in subcommands[cmd]._actions}
        assert set(ranges) == set(actions[key].choices), cmd
        assert actions["n"].type.low == min(low for low, _ in ranges.values()) and actions["n"].type.high is None, cmd
