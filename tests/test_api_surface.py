"""The public surface: every exported name resolves, and every public
top-level function or class of the package is called from the package,
exported, or kept on the allowlist below for a stated reason."""

import ast
import pathlib
from functools import lru_cache

import monosplit

SRC = pathlib.Path(monosplit.__file__).parent

# public names with no caller in the package and no export, and why they stay
ALLOWED = {
    "check_g_cocoercivity": "the only oracle on sample pairs, not a replay of a run",
    "summability_monitors": "the partial-sum certificate; its fate is ROADMAP item 4",
    "decade_trend": "the decade trend an acceptance test reads off a run",
}


@lru_cache(maxsize=None)
def modules():
    """The parsed modules of the package, by name."""
    return {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def public_definitions():
    """(name, node) of every public top-level function and class."""
    for tree in modules().values():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                yield node.name, node


@lru_cache(maxsize=None)
def uses():
    """(node, names) of every top-level statement of the modules other than
    __init__: each name, attribute and imported name it refers to."""
    out = []
    for name, tree in modules().items():
        if name == "__init__":
            continue
        for top in tree.body:
            names = set()
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name)
            out.append((top, names))
    return out


def test_every_exported_name_resolves():
    missing = [name for name in monosplit.__all__ if not hasattr(monosplit, name)]
    assert missing == []
    assert len(set(monosplit.__all__)) == len(monosplit.__all__)


def test_every_public_definition_is_used_exported_or_allowed():
    referenced = {name for name, node in public_definitions()
                  if any(name in names for top, names in uses() if top is not node)}
    unused = [name for name, _ in public_definitions()
              if name not in referenced and name not in monosplit.__all__]
    # the allowlist names exactly what needs it, so a stale entry fails too
    assert sorted(unused) == sorted(ALLOWED)
