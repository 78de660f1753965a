"""Versioned JSON schemas for every artifact the CLI emits, one ``{name}.schema.json`` each."""

import json
from importlib import resources

_SUFFIX = ".schema.json"
SCHEMA_NAMES = tuple(sorted(path.name.removesuffix(_SUFFIX)
                            for path in resources.files(__package__).iterdir()
                            if path.name.endswith(_SUFFIX)))


def load_schema(name: str) -> dict:
    """The schema of the artifact ``name``; FileNotFoundError when there is none."""
    return json.loads(resources.files(__package__).joinpath(f"{name}{_SUFFIX}").read_text())
