"""README's code references resolve: every backticked `module.name` whose
module is an oossim module names something that module has. A trailing
`*`, as in `uplink.detect_*`, stands for any name with that prefix."""

import importlib
import pkgutil
import re
from pathlib import Path

import oossim

README = Path(__file__).resolve().parent.parent / "README.md"
MODULES = {info.name for info in pkgutil.iter_modules(oossim.__path__)}


def references() -> list[str]:
    dotted = re.findall(r"`([A-Za-z_]\w*(?:\.\w+)+\*?)`", README.read_text())
    return [ref for ref in dotted if ref.split(".")[0] in MODULES]


def resolves(ref: str) -> bool:
    module, *path, last = ref.split(".")
    owner = importlib.import_module(f"oossim.{module}")
    for name in path:
        owner = getattr(owner, name, None)
    if last.endswith("*"):
        return any(name.startswith(last[:-1]) for name in dir(owner))
    return hasattr(owner, last)


def test_every_code_reference_resolves():
    refs = references()
    assert refs
    assert [ref for ref in refs if not resolves(ref)] == []


def test_a_reference_resolves_only_to_what_exists():
    assert resolves("uplink.detect_*") and resolves("fronthaul.Chain.run")
    assert not resolves("uplink.detect_nothing*") and not resolves("fronthaul.Chain.walk")
    assert not resolves("experiments.no_such_name")
