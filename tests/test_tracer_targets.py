"""The benchmark tracer's patch targets exist.

``perfbench/tracer.py`` wraps termdp functions by module and name; a target
that was renamed or removed would silently drop out of the trace.  The
tracer is read with ``ast``, not imported, so this test runs without it.
"""

import ast
import importlib
from pathlib import Path

import pytest

from termdp.model import FiniteMdp, MemoryPolicy

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _target_tables() -> dict[str, dict[str, tuple[str, str]]]:
    tables = {}
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("LAYER_FUNCTIONS", "REPORT_FUNCTIONS"):
                tables[name] = ast.literal_eval(node.value)
    return tables


TABLES = _target_tables()


def test_both_tables_are_found():
    assert set(TABLES) == {"LAYER_FUNCTIONS", "REPORT_FUNCTIONS"}
    assert all(TABLES.values())


@pytest.mark.parametrize(
    "module, attr",
    sorted({target for table in TABLES.values() for target in table.values()}),
)
def test_patched_function_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


def test_patched_methods_and_properties_resolve():
    assert callable(MemoryPolicy.__dict__["__post_init__"])
    for attr in ("state_cards", "action_cards"):
        assert callable(FiniteMdp.__dict__[attr].fget)
