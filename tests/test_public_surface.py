"""The package re-exports only what the package itself uses, defines only
what it uses, and every option it offers is set somewhere.

A name that `confsv/__init__.py` re-exports, and every public top-level
function and class in `src/confsv`, must be used, as a name or an attribute,
somewhere in `src/confsv` outside `__init__`; its own definition is not a
use.  A helper that only the tests call is a second code path to keep in step
with the module path, and an op whose last caller is gone is dead code; these
tests keep both from growing back.  The allowlist, empty now, would hold an
unused name that stays on purpose.

Only `training` writes and reads the checkpoint kinds ("asr", "speaker",
"adaptation"): no other module holds the string "kind", so a command cannot
pick a loader by peeking at the metadata, and `checkpoint` keeps only the
byte format.

A parameter with a default in `src/confsv` must be passed, by keyword or by
position, at some call in the package or the benchmark (`perfbench/`, its
tests aside).  The tests do not count as callers: a parameter that only a
test sets is an option the program never uses, and the branches behind its
other values are code that only the tests run.  One that no call passes is a
constant with a second name.  `UNPASSED`, the parameters' allowlist, holds
one that stays on purpose, with its first planned caller.
"""

import ast
import math
from pathlib import Path

import confsv
from confsv.heads import AttentiveStatsPooling

SRC = Path(confsv.__file__).parent
ROOT = Path(__file__).resolve().parent.parent

# name -> why it stays without a caller in src/
KEPT: dict[str, str] = {}

# "module.callable(parameter)" -> why it stays although no program call passes it
UNPASSED: dict[str, str] = {
    "datapipe.add_noise(return_info)":
        "the per-step augmentation record of ROADMAP item 3a is its first planned caller",
}


def _trees():
    return {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in sorted(SRC.glob("*.py"))}


def _reexports(init: ast.Module) -> dict[str, str]:
    """Re-exported name -> the module that defines it."""
    return {
        alias.asname or alias.name: node.module
        for node in init.body
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
        for alias in node.names
    }


def _used_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _used_in_package(trees) -> set[str]:
    return set().union(*(_used_names(tree) for mod, tree in trees.items() if mod != "__init__"))


def unused_reexports(trees) -> list[str]:
    used = _used_in_package(trees)
    return [
        f"{home}.{name}"
        for name, home in _reexports(trees["__init__"]).items()
        if name not in used and name not in KEPT
    ]


def test_every_reexport_has_a_caller_in_the_package():
    assert unused_reexports(_trees()) == []


def test_every_kept_name_is_reexported_and_still_unused():
    trees = _trees()
    assert set(KEPT) <= set(_reexports(trees["__init__"]))
    # a kept name that gains a caller leaves the allowlist
    assert not set(KEPT) & _used_in_package(trees)


def test_a_reexported_helper_without_a_caller_is_caught():
    trees = _trees()
    trees["adaptation"].body += ast.parse(
        "def build_adaptation(backbone, cfg):\n"
        "    return SpeakerAdaptation(backbone, cfg)\n"
    ).body
    trees["__init__"].body += ast.parse("from .adaptation import build_adaptation").body
    assert unused_reexports(trees) == ["adaptation.build_adaptation"]


def unused_definitions(trees) -> list[str]:
    """Public top-level functions and classes that no other top-level statement uses."""
    users: dict[str, set] = {}
    for mod, tree in trees.items():
        if mod == "__init__":
            continue
        for i, stmt in enumerate(tree.body):
            for name in _used_names(stmt):
                users.setdefault(name, set()).add((mod, getattr(stmt, "name", i)))
    return [
        f"{mod}.{node.name}"
        for mod, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in KEPT
        and not users.get(node.name, set()) - {(mod, node.name)}
    ]


def test_every_public_definition_has_a_user_in_the_package():
    assert unused_definitions(_trees()) == []


class _DropGlu(ast.NodeTransformer):
    """`ad.glu(h)` -> `h`: the op's only call goes."""

    def visit_Call(self, node):
        self.generic_visit(node)
        if isinstance(node.func, ast.Attribute) and node.func.attr == "glu":
            return node.args[0]
        return node


def test_an_op_whose_last_caller_goes_is_caught():
    trees = _trees()
    trees["conformer"] = _DropGlu().visit(trees["conformer"])
    assert unused_definitions(trees) == ["autodiff.glu"]


def test_a_recursive_definition_does_not_use_itself():
    trees = _trees()
    trees["autodiff"].body += ast.parse(
        "def flip(a, n):\n"
        "    return a if n == 0 else flip(transpose(a), n - 1)\n"
    ).body
    assert unused_definitions(trees) == ["autodiff.flip"]


def _parse(paths):
    return [ast.parse(p.read_text(), filename=str(p)) for p in paths]


def _caller_trees():
    """The program's own calls: the package and the benchmark, not their tests."""
    return _parse([*SRC.glob("*.py"), *(ROOT / "perfbench").glob("*.py")])


def _defaulted_parameters(trees):
    """(module, callable, parameter, position) of every parameter with a default.

    `__init__` goes by its class name and a method's position does not count
    `self`; keyword-only parameters have no position.  `forward` runs through
    `Module.__call__`, so it is not matched by name.
    """
    for mod, tree in trees.items():
        owner = {id(f): c.name for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                 for f in c.body}
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef) or fn.name == "forward":
                continue
            cls = owner.get(id(fn))
            name = cls if cls and fn.name == "__init__" else fn.name
            args = fn.args.posonlyargs + fn.args.args
            first = len(args) - len(fn.args.defaults)
            for i in range(first, len(args)):
                yield mod, name, args[i].arg, i - (cls is not None)
            for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
                if default is not None:
                    yield mod, name, arg.arg, None


def _calls(trees) -> dict[str, list[tuple[float, set]]]:
    """Called name -> (positional count, keyword names) of each call.

    A `*args` call passes every position and a `**kwargs` call (keyword None)
    every keyword.
    """
    calls: dict[str, list[tuple[float, set]]] = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                n_pos = math.inf if starred else len(node.args)
                calls.setdefault(name, []).append((n_pos, {k.arg for k in node.keywords}))
    return calls


def unset_parameters(trees, caller_trees) -> list[str]:
    calls = _calls(caller_trees)
    return [
        f"{mod}.{name}({param})"
        for mod, name, param, pos in _defaulted_parameters(trees)
        if not any(None in keys or param in keys or (pos is not None and n_pos > pos)
                   for n_pos, keys in calls.get(name, ()))
    ]


def unpassed_outside_allowlist(trees) -> list[str]:
    return [p for p in unset_parameters(trees, _caller_trees()) if p not in UNPASSED]


def test_every_parameter_with_a_default_is_passed_somewhere():
    assert unpassed_outside_allowlist(_trees()) == []


def test_every_unpassed_entry_is_defined_and_still_unpassed():
    trees = _trees()
    defined = {f"{mod}.{name}({param})" for mod, name, param, _ in _defaulted_parameters(trees)}
    assert set(UNPASSED) <= defined
    # an entry whose parameter gains a program caller leaves the allowlist
    assert set(UNPASSED) <= set(unset_parameters(trees, _caller_trees()))


def _with_global_context(trees):
    """`trees` with a defaulted `global_context` parameter on AttentiveStatsPooling."""
    init = next(
        f for c in ast.walk(trees["heads"])
        if isinstance(c, ast.ClassDef) and c.name == "AttentiveStatsPooling"
        for f in c.body if isinstance(f, ast.FunctionDef) and f.name == "__init__"
    )
    init.args.args.append(ast.arg("global_context", ast.Name("bool")))
    init.args.defaults.append(ast.Constant(True))
    return trees


def test_a_parameter_that_no_call_passes_is_caught():
    assert unpassed_outside_allowlist(_with_global_context(_trees())) == [
        "heads.AttentiveStatsPooling(global_context)"
    ]


def _a_call_in_the_tests():
    """Never run: a call under tests/ that passes `global_context`."""
    return AttentiveStatsPooling(4, global_context=False)


def test_a_parameter_that_only_the_tests_pass_is_caught():
    test_calls = _calls(_parse((ROOT / "tests").rglob("*.py")))
    assert any("global_context" in keys for _, keys in test_calls["AttentiveStatsPooling"])
    assert unpassed_outside_allowlist(_with_global_context(_trees())) == [
        "heads.AttentiveStatsPooling(global_context)"
    ]


def modules_reading_checkpoint_kinds(trees) -> list[str]:
    """Modules other than `training` that hold the string constant "kind"."""
    return [
        mod for mod, tree in trees.items()
        if mod != "training"
        and any(isinstance(node, ast.Constant) and node.value == "kind" for node in ast.walk(tree))
    ]


def test_only_training_reads_and_writes_checkpoint_kinds():
    assert modules_reading_checkpoint_kinds(_trees()) == []


def test_a_command_that_reads_the_kind_itself_is_caught():
    trees = _trees()
    trees["cli"].body += ast.parse(
        "def checkpoint_kind(path):\n"
        "    return load_checkpoint(path)[0].get('kind')\n"
    ).body
    assert modules_reading_checkpoint_kinds(trees) == ["cli"]
