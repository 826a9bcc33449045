"""Spec-file parsing for the experiment harness.

Run specs are INI files with three sections:

    [run]        experiment-level settings (seeds, sizes, output dir, ...)
    [instance]   problem construction knobs (graph model, noise, ...)
    [optimizer]  per-optimizer knobs (q, d_max, spsa gains, ...)

Every value is a plain string in the file; typed access goes through
RunSpec.get_* helpers so that error messages name the offending key.
Command-line overrides use the dotted form  section.key=value.
"""

from __future__ import annotations

import configparser
import os
from dataclasses import dataclass, field
from typing import Optional

from ..baselines import SpsaConfig

_SECTIONS = ("run", "instance", "optimizer")


class ConfigError(ValueError):
    """Raised for malformed spec files or override strings."""


def checked(section, build, *args):
    """build(*args), reporting a ValueError it raises as a ConfigError.

    The runners pass every constructor that validates values from the
    spec's [section] through here, so a ValueError raised anywhere else in
    a run is a program error rather than a bad spec.
    """
    try:
        return build(*args)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{section}: {exc}") from None


def spsa_config(spec, budget, shots_per_eval, max_iters=None):
    """SpsaConfig from [optimizer], given the runner's defaults.

    max_iters=None defaults the iteration count to as many +- pairs as
    the budget pays for, at least one.
    """
    shots = spec.get_int("optimizer", "shots_per_eval", shots_per_eval)
    if max_iters is None:
        # a non-positive shot count is SpsaConfig's to reject
        max_iters = max(1, budget // (2 * max(shots, 1)))
    return SpsaConfig(
        max_iters=spec.get_int("optimizer", "max_iters", max_iters),
        shots_per_eval=shots,
        a=(None if spec.get("optimizer", "a") is None
           else spec.get_float("optimizer", "a")),
        c=spec.get_float("optimizer", "c", 0.1),
        alpha=spec.get_float("optimizer", "alpha", 0.602),
        gamma=spec.get_float("optimizer", "gamma", 0.101),
        budget=budget)


def expand_seeds(text: str) -> list[int]:
    """Expand a seed expression into a sorted list of distinct seeds.

    Accepts comma-separated entries where each entry is either a single
    non-negative integer or an inclusive range "a..b".

    >>> expand_seeds("0..3, 7")
    [0, 1, 2, 3, 7]
    """
    seeds: set[int] = set()
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if ".." in part:
            lo_s, _, hi_s = part.partition("..")
            try:
                lo, hi = int(lo_s), int(hi_s)
            except ValueError:
                raise ConfigError(f"bad seed range {part!r}") from None
            if lo > hi:
                raise ConfigError(f"empty seed range {part!r}")
            seeds.update(range(lo, hi + 1))
        else:
            try:
                seeds.add(int(part))
            except ValueError:
                raise ConfigError(f"bad seed {part!r}") from None
    if not seeds:
        raise ConfigError(f"no seeds in {text!r}")
    if min(seeds) < 0:
        raise ConfigError("seeds must be non-negative")
    return sorted(seeds)


def expand_ints(text: str) -> list[int]:
    """Like expand_seeds but for size lists; order of appearance kept."""
    out: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            value = int(part)
        except ValueError:
            raise ConfigError(f"bad integer {part!r}") from None
        if value not in out:
            out.append(value)
    if not out:
        raise ConfigError(f"no values in {text!r}")
    return out


@dataclass
class RunSpec:
    """A parsed spec: three string->string tables plus typed accessors."""

    run: dict = field(default_factory=dict)
    instance: dict = field(default_factory=dict)
    optimizer: dict = field(default_factory=dict)

    def _table(self, section: str) -> dict:
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section {section!r}")
        return getattr(self, section)

    def set(self, section: str, key: str, value: str) -> None:
        self._table(section)[key] = value

    def get(self, section, key, default=None):
        return self._table(section).get(key, default)

    def get_str(self, section: str, key: str, default: Optional[str] = None) -> str:
        value = self.get(section, key, default)
        if value is None:
            raise ConfigError(f"missing required key {section}.{key}")
        return str(value)

    def get_int(self, section: str, key: str, default=None) -> int:
        raw = self.get_str(section, key, None if default is None else str(default))
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"{section}.{key}: not an integer: {raw!r}") from None

    def get_float(self, section: str, key: str, default=None) -> float:
        raw = self.get_str(section, key, None if default is None else repr(float(default)))
        try:
            value = float(raw)
        except ValueError:
            raise ConfigError(f"{section}.{key}: not a number: {raw!r}") from None
        return value

    def get_bool(self, section: str, key: str, default: bool = False) -> bool:
        raw = self.get(section, key)
        if raw is None:
            return default
        lowered = str(raw).strip().lower()
        if lowered in ("1", "true", "yes", "on"):
            return True
        if lowered in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"{section}.{key}: not a boolean: {raw!r}")

    def seeds(self) -> list[int]:
        return expand_seeds(self.get_str("run", "seeds", "0"))

    def sizes(self) -> list[int]:
        return expand_ints(self.get_str("run", "sizes", "4"))


def load_spec(path: Optional[str]) -> RunSpec:
    """Read an INI spec file; path=None yields an all-defaults spec."""
    spec = RunSpec()
    if path is None:
        return spec
    if not os.path.exists(path):
        raise ConfigError(f"spec file not found: {path}")
    parser = configparser.ConfigParser()
    # Keep keys case-sensitive so override matching is exact.
    parser.optionxform = str
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from None
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"{path}: unknown section [{section}]")
        for key, value in parser.items(section):
            spec.set(section, key, value)
    return spec


def parse_overrides(spec: RunSpec, pairs) -> RunSpec:
    """Apply section.key=value strings (from repeated --set flags)."""
    for pair in pairs:
        head, sep, value = pair.partition("=")
        if not sep:
            raise ConfigError(f"override {pair!r} missing '='")
        section, dot, key = head.partition(".")
        if not dot or not section or not key:
            raise ConfigError(f"override {pair!r} must look like section.key=value")
        spec.set(section.strip(), key.strip(), value.strip())
    return spec
