"""Every public module-level function and class of ``spinlearn`` is reached from somewhere.

A public name must be used by other code in ``src/spinlearn`` (a call, an attribute or an
import; docstrings and comments do not count) or appear in the text of ``perfbench/``,
whose operations run library names.  A name that only tests reach belongs in
``tests/oracles.py``.  The exceptions below each wait for the ROADMAP item named.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent

# name -> the ROADMAP item that decides its fate
UNREACHED = {
    "heisenberg.spin_k_worst_case_asymptotic": "item 11: the large-j laws as tested series",
    "memory.fidelity_given_m_asymptote": "item 11: the large-j laws as tested series",
    "memory.thermal_fidelity_asymptote": "item 11: the large-j laws as tested series",
    "memory.tricomi_geometric_asymptote": "item 11: the large-j laws as tested series",
    "heisenberg.interaction_time": "item 16: a CLI route for the evolution time",
}


def _public_definitions_and_uses():
    definitions, used = {}, set()
    for path in sorted((ROOT / "src" / "spinlearn").glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                definitions[f"{path.stem}.{node.name}"] = node.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return definitions, used


def test_every_public_name_is_reached_from_src_or_perfbench():
    definitions, used = _public_definitions_and_uses()
    bench = "\n".join(p.read_text() for p in sorted((ROOT / "perfbench").rglob("*"))
                      if p.is_file() and p.suffix in (".py", ".json", ".md"))
    unreached = {qualified for qualified, name in definitions.items()
                 if name not in used and not re.search(rf"\b{name}\b", bench)}
    assert sorted(unreached - UNREACHED.keys()) == []
    # an exception that is reached again, or no longer defined, leaves the list
    assert sorted(UNREACHED.keys() - unreached) == []
