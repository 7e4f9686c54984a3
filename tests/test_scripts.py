"""Every script under scripts/ imports, so the public names it uses exist, and every method that
perfbench/tracing.py wraps by name is defined on its class."""

import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def test_scripts_found():
    assert SCRIPTS


@pytest.mark.parametrize("path", SCRIPTS, ids=[p.stem for p in SCRIPTS])
def test_script_imports(path):
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)


def test_traced_methods_resolve():
    # the benchmark's traced run wraps each (module, class, attrs) of METHODS; a deleted method fails it there
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.METHODS
    for module, cls, attrs, _ in tracing.METHODS:
        defined = vars(getattr(importlib.import_module(f"unidiv.{module}"), cls))
        assert [a for a in attrs if a not in defined] == [], (module, cls)
