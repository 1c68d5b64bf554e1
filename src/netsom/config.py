"""The one table of defaults and the one table of choice values, read by
the config, the stage and model functions and the CLI; the one cap on worker
processes and the one worker pool, :func:`fork_map`. It imports nothing from
netsom, so any module can."""

from __future__ import annotations

import os
import sys

DEFAULT_CONFIG: dict = {
    "seed": 0,
    "generate": {"model": "hk", "n": 10000, "m": 4, "p_t": 0.9, "u": 0.75},
    "som": {"width": 5, "height": 5, "epochs": 20, "log_features": []},
    "sir": {"lambda": 0.2, "mu": 1.0, "dt": 0.01, "initial": 10,
            "snapshot_every": 0.5},
    "spd": {"T": 1.5, "eps": 0.0, "max_rounds": 100, "tie": "min_id"},
    "render": {"times": None, "radius_mode": "fixed"},
}

# the values a choice key takes; each item of a list key is one of them
CHOICES: dict = {
    "generate.model": ("hk", "cnn"),
    "som.log_features": ("k", "k_nn", "b", "L", "C"),
    "spd.tie": ("min_id", "random"),
    "render.radius_mode": ("fixed", "population"),
}


class ConfigError(ValueError):
    pass


def _check(name: str, value, default) -> None:
    """A user value must be of its default's kind, its numbers finite, and
    a choice key's values listed in CHOICES; a bool is never a number."""
    def number(v) -> bool:  # finite, and no integer beyond the float range
        return (isinstance(v, (int, float)) and not isinstance(v, bool)
                and abs(v) <= sys.float_info.max)

    kind, ok = {
        int: ("an integer", isinstance(value, int) and number(value)),
        float: ("a finite number", number(value)),
        str: ("a string", isinstance(value, str)),
        list: ("a list of strings", isinstance(value, list)
               and all(isinstance(v, str) for v in value)),
        type(None): ("null or a non-empty list of finite numbers", value is None
                     or isinstance(value, list) and len(value) > 0
                     and all(map(number, value))),
    }[type(default)]
    if ok and name in CHOICES:
        kind = f"{kind} from {', '.join(CHOICES[name])}"
        ok = set(value if isinstance(value, list) else [value]) <= set(CHOICES[name])
    if not ok:
        raise ConfigError(f"{name} must be {kind}, got {value!r}")


def resolve_config(config: dict) -> dict:
    """Overlay user config onto the defaults; unknown keys, values of the
    wrong type, non-finite numbers and unlisted choices are errors."""
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    known_top = set(DEFAULT_CONFIG) | {"outdir"}
    unknown = set(config) - known_top
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if "outdir" in config:
        _check("outdir", config["outdir"], "")
    resolved = {"seed": config.get("seed", DEFAULT_CONFIG["seed"])}
    _check("seed", resolved["seed"], DEFAULT_CONFIG["seed"])
    if resolved["seed"] < 0:
        raise ConfigError(f"seed must be >= 0, got {resolved['seed']!r}")
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
        for key, value in user.items():
            _check(f"{section}.{key}", value, defaults[key])
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
        value = int(cap)
    except ValueError:
        value = 0
    if value < 1:
        raise ConfigError(f"NETSOM_THREADS must be an integer >= 1, got {cap!r}")
    return value


def worker_count(jobs: int) -> int:
    """Workers for ``jobs`` independent jobs under the cap (at least 1)."""
    return max(1, min(jobs, thread_cap()))


def fork_map(fn, jobs) -> list:
    """``[fn(job) for job in jobs]``, in this process when the cap allows one
    worker, else on forked workers that inherit ``fn`` and ``jobs``: only an
    index is pickled down and a result back. Each worker's NETSOM_THREADS is
    its share of the cap, so a pool that a job starts stays within it."""
    workers = worker_count(len(jobs))
    if workers == 1:
        return [fn(job) for job in jobs]
    import multiprocessing  # here, so that importing netsom does not pay for
    from concurrent import futures  # a pool a one-worker run never starts
    share = max(1, thread_cap() // workers)
    fork = multiprocessing.get_context("fork")
    with futures.ProcessPoolExecutor(workers, mp_context=fork, initializer=_forked,
                                     initargs=(fn, jobs, share)) as pool:
        return list(pool.map(_run_forked, range(len(jobs))))


# a forked worker's (fn, jobs), set by _forked
_work: tuple = ()


def _forked(fn, jobs: list, threads: int) -> None:
    global _work
    _work = (fn, jobs)
    os.environ["NETSOM_THREADS"] = str(threads)


def _run_forked(i: int):
    fn, jobs = _work
    return fn(jobs[i])
