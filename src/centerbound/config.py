"""Run configuration: caps, sampling sizes, output format, seed.

All caps are loud: an operation that would exceed one raises CapExceeded
rather than subsampling.  A fixed seed makes every sampled check, and hence
every report, byte-identical across runs.

Sources are merged in precedence order: explicit flags > environment
variables (prefix CENTERBOUND_, e.g. CENTERBOUND_SUBGROUP_CAP=64) > a
key=value config file > defaults.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass

from .group import (DEFAULT_COSET_CAP, DEFAULT_ENUMERATION_CAP,
                    DEFAULT_SUBGROUP_CAP, DEFAULT_TUPLE_CAP)

DEFAULT_SAMPLE_PAIRS = 1000

ENV_PREFIX = "CENTERBOUND_"

OUTPUT_FORMATS = ("json", "csv", "table")


@dataclass(frozen=True)
class Config:
    enumeration_cap: int = DEFAULT_ENUMERATION_CAP
    subgroup_cap: int = DEFAULT_SUBGROUP_CAP
    coset_cap: int = DEFAULT_COSET_CAP
    sample_pairs: int = DEFAULT_SAMPLE_PAIRS
    tuple_cap: int = DEFAULT_TUPLE_CAP
    output_format: str = "table"
    seed: int = 0

    def __post_init__(self):
        for field in ("enumeration_cap", "subgroup_cap", "coset_cap",
                      "sample_pairs", "tuple_cap"):
            if getattr(self, field) < 1:
                raise ValueError(f"{field} must be positive")
        if self.output_format not in OUTPUT_FORMATS:
            raise ValueError(
                f"output_format must be one of {OUTPUT_FORMATS}")


_INT_FIELDS = ("enumeration_cap", "subgroup_cap", "coset_cap",
               "sample_pairs", "tuple_cap", "seed")


def _integer(raw: str, what: str) -> int:
    """raw as an int, else ValueError naming what."""
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{what} must be an integer, got {raw!r}") from None


def parse_config_file(path: str) -> dict:
    """Parse a key=value file ('#' starts a comment, blank lines ignored)."""
    values: dict = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if key in _INT_FIELDS:
                values[key] = _integer(value, f"{path}:{lineno}: {key}")
            elif key == "output_format":
                values[key] = value
            else:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
    return values


def env_overrides(environ=None) -> dict:
    environ = os.environ if environ is None else environ
    values: dict = {}
    for field in dataclasses.fields(Config):
        name = ENV_PREFIX + field.name.upper()
        raw = environ.get(name)
        if raw is None:
            continue
        values[field.name] = (_integer(raw, name) if field.name in _INT_FIELDS
                              else raw)
    return values


def build_config(flag_values: dict | None = None,
                 file_path: str | None = None,
                 environ=None) -> Config:
    """Merge defaults < config file < environment < explicit flags."""
    merged: dict = {}
    if file_path:
        merged.update(parse_config_file(file_path))
    merged.update(env_overrides(environ))
    if flag_values:
        merged.update({k: v for k, v in flag_values.items() if v is not None})
    return Config(**merged)
