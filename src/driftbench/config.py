"""Flat key-value configuration for the benchmark harness.

Config files are JSON objects with dotted flat keys, e.g.::

    {"data.dir": "/data/gas", "drca.components": 127, "methods": "drca,ldsp"}

Every key has a typed default; unknown keys are errors, so typos fail loudly
instead of silently running with defaults.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

from .adaptation import METHOD_NAMES, SelfTrainConfig
from .classifier import ClassifierConfig
from .data_io import SyntheticConfig
from .subspace import DrcaConfig, LdspConfig


class ConfigError(ValueError):
    """Raised for unknown keys, type mismatches, or invalid values."""


def _as_bool(v):
    if isinstance(v, bool):
        return v
    raise TypeError("expected a boolean")


def _as_int(v):
    if isinstance(v, bool) or not isinstance(v, int):
        raise TypeError("expected an integer")
    return v


def _as_float(v):
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise TypeError("expected a number")
    # json.loads reads NaN and Infinity; the comparison also rejects an int
    # too large for a float.
    if not abs(v) <= sys.float_info.max:
        raise ValueError("expected a finite number")
    return float(v)


def _as_str(v):
    if not isinstance(v, str):
        raise TypeError("expected a string")
    return v


_CASTERS = {bool: _as_bool, int: _as_int, float: _as_float, str: _as_str}

# Each section's keys are its dataclass's fields, "<section>.<field>".
SECTIONS = {
    "synthetic": SyntheticConfig,
    "drca": DrcaConfig,
    "ldsp": LdspConfig,
    "selftrain": SelfTrainConfig,
    "classifier": ClassifierConfig,
}


def _section_defaults(*names: str) -> dict:
    return {f"{name}.{f.name}": f.default for name in names for f in fields(SECTIONS[name])}


# key -> default; the default's type picks the key's caster.
SCHEMA: dict = {
    "data.dir": "",
    "synthetic.enabled": False,
    **_section_defaults("synthetic"),
    "normalize.enabled": True,
    "methods": "all",
    **_section_defaults("drca", "ldsp", "selftrain", "classifier"),
}


def _resolve_methods(raw: str) -> tuple[str, ...]:
    if raw.strip() == "all":
        return METHOD_NAMES
    names = [m.strip() for m in raw.split(",") if m.strip()]
    if not names:
        raise ConfigError("methods must name at least one strategy")
    seen = []
    for m in names:
        if m not in METHOD_NAMES:
            raise ConfigError(f"unknown method '{m}' (choose from {', '.join(METHOD_NAMES)})")
        if m not in seen:
            seen.append(m)
    return tuple(seen)


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved harness configuration."""

    data_dir: str
    synthetic_enabled: bool
    synthetic: SyntheticConfig
    normalize: bool
    methods: tuple[str, ...]
    drca: DrcaConfig
    ldsp: LdspConfig
    selftrain: SelfTrainConfig
    classifier: ClassifierConfig
    flat: dict = field(compare=False, default_factory=dict)

    def echo(self) -> dict:
        """Flat resolved key-value view, embedded in reports."""
        return dict(self.flat)


def resolve_config(values: dict) -> RunConfig:
    """Validate a flat key-value mapping and build a typed RunConfig."""
    unknown = sorted(set(values) - set(SCHEMA))
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
    resolved = {}
    for key, default in SCHEMA.items():
        if key in values:
            try:
                resolved[key] = _CASTERS[type(default)](values[key])
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"config key '{key}': {exc}") from None
        else:
            resolved[key] = default
    methods = _resolve_methods(resolved["methods"])
    resolved["methods"] = ",".join(methods)
    sections = {}
    for name, cls in SECTIONS.items():
        try:
            sections[name] = cls(**{f.name: resolved[f"{name}.{f.name}"] for f in fields(cls)})
        except ValueError as exc:
            raise ConfigError(f"{name}.{exc}") from None
    return RunConfig(
        data_dir=resolved["data.dir"],
        synthetic_enabled=resolved["synthetic.enabled"],
        normalize=resolved["normalize.enabled"],
        methods=methods,
        flat=resolved,
        **sections,
    )


def load_run_config(path: Path | str | None = None, overrides: dict | None = None) -> RunConfig:
    """Read a JSON config file (optional), apply overrides, and resolve."""
    values: dict = {}
    if path is not None:
        raw = Path(path).read_bytes()
        try:
            doc = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigError(f"{path}: not valid JSON ({exc})") from None
        if not isinstance(doc, dict):
            raise ConfigError(f"{path}: config must be a JSON object of flat keys")
        values.update(doc)
    if overrides:
        values.update({k: v for k, v in overrides.items() if v is not None})
    return resolve_config(values)
