"""Bound-table runner: per-instance complexity estimates as one CSV."""

import os

from .. import bounds
from .config import ConfigError
from .output import write_csv

DEFAULT_RADII = "0.25,0.125,0.0625,0.03125,0.015625"

BOUNDS_HEADER = ["instance", "lipschitz", "epsilon", "delta", "lower",
                 "upper", "trivial", "beta", "c_fit"]


def _parse_radii(text):
    radii = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            radii.append(float(part))
        except ValueError:
            raise ConfigError(f"bad radius {part!r}") from None
    if len(radii) < 3:
        raise ConfigError("need at least 3 radii")
    return radii


def _load(entry, lipschitz):
    """An instance entry is a breakpoint file path or the literal 'wedge'."""
    if entry == "wedge":
        inst = bounds.wedge()
        if lipschitz is not None:
            inst = bounds.BoundInstance(inst.xs, inst.vs, lipschitz)
        return "wedge", inst
    name = os.path.basename(entry)
    try:
        return name, bounds.read_instance(entry, lipschitz)
    except OSError as exc:
        raise ConfigError(f"{entry}: {exc}") from None
    except ValueError as exc:
        raise ConfigError(f"{entry}: {exc}") from None


def run_bounds(spec):
    """Evaluate lower/upper/trivial bounds and the covering-exponent fit
    for every configured instance; write bounds.csv."""
    run = spec.fields("run", instances=str, epsilon=float, delta=float,
                      radii=str, lipschitz=float, out=str)
    entries = [part.strip()
               for part in run.get("instances", "wedge").split(",")
               if part.strip()]
    if not entries:
        raise ConfigError("run.instances is empty")
    epsilon = run.get("epsilon", 2.0 ** -5)
    delta = run.get("delta", 0.1)
    radii = _parse_radii(run.get("radii", DEFAULT_RADII))
    lipschitz = run.get("lipschitz")
    out_dir = run.get("out", os.path.join("results", "bounds"))

    rows = []
    for entry in entries:
        name, inst = _load(entry, lipschitz)
        try:
            beta, c_fit = bounds.zooming_fit(inst, radii)
            row = {
                "instance": name, "lipschitz": inst.lipschitz,
                "epsilon": epsilon, "delta": delta,
                "lower": bounds.lower_bound(inst, epsilon, delta),
                "upper": bounds.upper_bound(inst, epsilon, delta),
                "trivial": bounds.trivial_bound(epsilon),
                "beta": beta, "c_fit": c_fit,
            }
        except ValueError as exc:
            raise ConfigError(f"{name}: {exc}") from None
        rows.append(row)
    path = write_csv(os.path.join(out_dir, "bounds.csv"), BOUNDS_HEADER, rows)
    return {"bounds": path, "rows": rows}
