"""README's list of tuning values matches the module constants.

Each line of the list names a value as `module.NAME` = value.  A constant
renamed or given another value without the README following fails here,
and so does a public numeric constant of a search module that the list
leaves out.
"""

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
INTRO = "The tuning values are module constants"
ENTRY = re.compile(r"`(\w+)\.([A-Z_]+)` = (-?[0-9](?:[0-9.e+-]*[0-9])?)")
MODULES = ("localsearch", "weighting", "reduction", "pathrelink", "relaxation")


def documented():
    text = (ROOT / "README.md").read_text()
    start = text.index(INTRO)
    # the list ends at the first blank line after its first entry
    end = text.index("\n\n", text.index("\n- ", start))
    return {f"{mod}.{name}": ast.literal_eval(value)
            for mod, name, value in ENTRY.findall(text[start:end])}


def test_readme_tuning_values_match_constants():
    listed = documented()
    assert {"localsearch.WIDTH", "localsearch.GAIN_FLOOR", "weighting.WINDOW",
            "reduction.CORE_MULTIPLIER", "pathrelink.POOL_SIZE",
            "relaxation.CORE_FACTOR"} <= set(listed)
    for key, value in listed.items():
        mod, name = key.split(".")
        assert getattr(importlib.import_module(f"gubcover.{mod}"), name) == value, key


def test_readme_lists_every_tuning_constant():
    listed = documented()
    for mod in MODULES:
        module = importlib.import_module(f"gubcover.{mod}")
        for name, value in vars(module).items():
            if name.isupper() and isinstance(value, (int, float)):
                assert f"{mod}.{name}" in listed, f"{mod}.{name} missing from README"
