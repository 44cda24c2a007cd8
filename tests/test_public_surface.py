"""The package re-exports only what the package itself uses.

A name that `confsv/__init__.py` re-exports must be used, as a name or an
attribute, somewhere in `src/confsv` outside `__init__`; its own definition
is not a use.  A helper that only the tests call is a second code path to
keep in step with the module path; this test keeps such helpers from growing
back.  The allowlist holds the few unused names that stay on purpose.
"""

import ast
from pathlib import Path

import confsv

SRC = Path(confsv.__file__).parent

# name -> why it stays without a caller in src/
KEPT = {
    "cosine_score": "one-trial reference that score_trials is tested against",
    "adapted_snorm": "one-trial reference that snorm_scores is tested against",
    "ctc_loss": "one-utterance CTC that acceptance criterion 6 checks by enumeration",
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
        "def build_adaptation(backbone, cfg, seed=0):\n"
        "    return SpeakerAdaptation(backbone, cfg, seed=seed)\n"
    ).body
    trees["__init__"].body += ast.parse("from .adaptation import build_adaptation").body
    assert unused_reexports(trees) == ["adaptation.build_adaptation"]
