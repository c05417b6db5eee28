"""Access to the JSON schemas that pin the CLI's output formats."""

from __future__ import annotations

import json
from importlib import resources

SCHEMA_NAMES = ("pmf_value", "pmf_table", "moment_report",
                "root_certification", "verify_report", "sample_report")


def load_schema(name: str) -> dict:
    if name not in SCHEMA_NAMES:
        raise KeyError(f"no such schema: {name!r} (have {SCHEMA_NAMES})")
    path = resources.files(__package__) / "schemas" / f"{name}.schema.json"
    return json.loads(path.read_text())
