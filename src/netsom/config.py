"""The one table of defaults, read by the config, the stage and model
functions and the CLI, and the one cap on worker processes; it imports
nothing from netsom, so any module can."""

from __future__ import annotations

import os

DEFAULT_CONFIG: dict = {
    "seed": 0,
    "generate": {"model": "hk", "n": 10000, "m": 4, "p_t": 0.9, "u": 0.75},
    "som": {"width": 5, "height": 5, "epochs": 20, "log_features": []},
    "sir": {"lambda": 0.2, "mu": 1.0, "dt": 0.01, "initial": 10,
            "snapshot_every": 0.5},
    "spd": {"T": 1.5, "eps": 0.0, "max_rounds": 100, "tie": "min_id"},
    "render": {"times": None, "radius_mode": "fixed"},
}


class ConfigError(ValueError):
    pass


def resolve_config(config: dict) -> dict:
    """Overlay user config onto the defaults; unknown keys are errors."""
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    known_top = set(DEFAULT_CONFIG) | {"outdir"}
    unknown = set(config) - known_top
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    resolved = {"seed": config.get("seed", DEFAULT_CONFIG["seed"])}
    if not isinstance(resolved["seed"], int):
        raise ConfigError("seed must be an integer")
    for section in ("generate", "som", "sir", "spd", "render"):
        user = config.get(section, {})
        if user is False:
            resolved[section] = False
            continue
        if not isinstance(user, dict):
            raise ConfigError(f"section {section!r} must be an object or false")
        defaults = DEFAULT_CONFIG[section]
        bad = set(user) - set(defaults)
        if bad:
            raise ConfigError(f"unknown keys in {section!r}: {sorted(bad)}")
        resolved[section] = {**defaults, **user}
    # running neither simulation is allowed only by explicit "sir": false,
    # "spd": false; absent sections mean "run with defaults"
    return resolved


def thread_cap() -> int:
    """Most worker processes netsom runs at once: the NETSOM_THREADS
    environment variable, else the CPU count."""
    cap = os.environ.get("NETSOM_THREADS")
    if cap is None:
        return os.cpu_count() or 1
    try:
        return int(cap)
    except ValueError:
        raise ConfigError(f"NETSOM_THREADS must be an integer, got {cap!r}") from None


def worker_count(jobs: int) -> int:
    """Workers for ``jobs`` independent jobs under the cap (at least 1)."""
    return max(1, min(jobs, thread_cap()))
