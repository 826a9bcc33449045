"""Spec-file parsing for the experiment harness.

Run specs are INI files with three sections:

    [run]        experiment-level settings (seeds, sizes, output dir, ...)
    [instance]   problem construction knobs (graph model, noise, ...)
    [optimizer]  per-optimizer knobs (lipschitz, d_max, spsa gains, ...)

Every value is a plain string in the file. The runners read every
section through RunSpec.fields, which parses each key as its type and
names the key in any error. It names every key a runner reads and
refuses any other, so a misspelt key is an error and not a silent
default. A key left unset is not passed on: the config or bandit
constructor's own default applies, apart from the few runner defaults
each runner states.
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


def _parse_bool(raw):
    lowered = str(raw).strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(raw)


# RunSpec.fields' type -> (parser, error text for a value it cannot parse)
_PARSERS = {int: (int, "not an integer"), float: (float, "not a number"),
            bool: (_parse_bool, "not a boolean"), str: (str, None)}


def checked(section, build, *args, **kwargs):
    """build(*args, **kwargs), reporting its ValueError as a ConfigError.

    The runners pass every constructor that validates values from the
    spec's [section] through here, so a ValueError raised anywhere else in
    a run is a program error rather than a bad spec.
    """
    try:
        return build(*args, **kwargs)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{section}: {exc}") from None


# the [optimizer] keys of SpsaConfig; budget is not a spec key
SPSA_KEYS = {"max_iters": int, "shots_per_eval": int, "a": float,
             "c": float, "alpha": float, "gamma": float}


def spsa_config(settings, budget, shots_per_eval, max_iters=None):
    """SpsaConfig from the parsed SPSA_KEYS, given the runner's defaults.

    max_iters=None defaults the iteration count to as many +- pairs as
    the budget pays for, at least one.
    """
    settings = {"shots_per_eval": shots_per_eval, **settings}
    if max_iters is None:
        # a non-positive shot count is SpsaConfig's to reject
        max_iters = max(1, budget // (2 * max(settings["shots_per_eval"], 1)))
    settings.setdefault("max_iters", max_iters)
    return SpsaConfig(budget=budget, **settings)


def expand_ints(text: str, key: str) -> list[int]:
    """Expand the integer list of spec key `key` into sorted distinct values.

    Accepts comma-separated entries where each entry is either a single
    non-negative integer or an inclusive range "a..b". Errors name the key.

    >>> expand_ints("0..3, 7", "run.seeds")
    [0, 1, 2, 3, 7]
    """
    values: set[int] = set()
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if ".." in part:
            lo_s, _, hi_s = part.partition("..")
            try:
                lo, hi = int(lo_s), int(hi_s)
            except ValueError:
                raise ConfigError(f"{key}: bad range {part!r}") from None
            if lo > hi:
                raise ConfigError(f"{key}: empty range {part!r}")
            values.update(range(lo, hi + 1))
        else:
            try:
                values.add(int(part))
            except ValueError:
                raise ConfigError(f"{key}: bad integer {part!r}") from None
    if not values:
        raise ConfigError(f"{key}: no values in {text!r}")
    if min(values) < 0:
        raise ConfigError(f"{key}: values must be non-negative")
    return sorted(values)


@dataclass
class RunSpec:
    """A parsed spec: three string->string tables."""

    run: dict = field(default_factory=dict)
    instance: dict = field(default_factory=dict)
    optimizer: dict = field(default_factory=dict)

    def _table(self, section: str) -> dict:
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section {section!r}")
        return getattr(self, section)

    def set(self, section: str, key: str, value: str) -> None:
        self._table(section)[key] = value

    def fields(self, section: str, **types) -> dict:
        """The keys [section] sets, each parsed as types names it.

        types maps every key the caller reads to int, float, bool or str.
        Keys the section leaves unset are left out, so the caller's
        defaults apply; a key it sets that types does not name is a
        ConfigError, and so is a value its type cannot parse.
        """
        table = self._table(section)
        unread = [key for key in table if key not in types]
        if unread:
            raise ConfigError(
                f"unknown key(s) "
                f"{', '.join(f'{section}.{key}' for key in unread)}; "
                f"[{section}] here reads {', '.join(types)}")
        out = {}
        for key, kind in types.items():
            if key not in table:
                continue
            parse, what = _PARSERS[kind]
            raw = table[key]
            try:
                out[key] = parse(raw)
            except ValueError:
                raise ConfigError(
                    f"{section}.{key}: {what}: {raw!r}") from None
        return out


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
