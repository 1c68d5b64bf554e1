"""The one table of defaults and the one table of valid values, with their
one checker, read by the config, the stage and model functions and the CLI;
the one cap on worker processes and the one worker pool, :func:`fork_map`.
It imports nothing from netsom, so any module can."""

from __future__ import annotations

import operator
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

# the bounds of each number key: every (operator, limit) pair must hold
RANGES: dict = {
    "seed": ((">=", 0),),
    "generate.n": ((">=", 1),),
    "generate.m": ((">=", 1),),
    "generate.p_t": ((">=", 0), ("<=", 1)),
    "generate.u": ((">", 0), ("<", 1)),
    "som.width": ((">=", 1),),
    "som.height": ((">=", 1),),
    "som.epochs": ((">=", 1),),
    "sir.lambda": ((">=", 0),),
    "sir.mu": ((">", 0),),
    "sir.dt": ((">", 0),),
    "sir.initial": ((">=", 1),),
    "sir.snapshot_every": ((">", 0),),
    "spd.T": ((">", 1),),
    "spd.eps": ((">=", 0), ("<", 1)),
    "spd.max_rounds": ((">=", 1),),
}
_OPERATORS = {">": operator.gt, ">=": operator.ge, "<": operator.lt, "<=": operator.le}


class ConfigError(ValueError):
    pass


def check(section: str, values: dict) -> None:
    """The one check of parameter values, by config key within ``section``
    ("" for the top level): a choice key's values must be listed in CHOICES,
    and a number key's value must be finite and within its RANGES bounds;
    else ConfigError. Keys in neither table pass."""
    for key, value in values.items():
        name = f"{section}.{key}" if section else key
        if name in CHOICES:
            listed = CHOICES[name]
            if not set(value if isinstance(value, (list, tuple)) else [value]) <= set(listed):
                raise ConfigError(f"{name} must be from {', '.join(listed)}, got {value!r}")
        elif name in RANGES:
            if not abs(value) <= sys.float_info.max:  # NaN, infinite or huge
                raise ConfigError(f"{name} must be finite, got {value!r}")
            bounds = RANGES[name]
            if not all(_OPERATORS[op](value, limit) for op, limit in bounds):
                rule = " and ".join(f"{op} {limit}" for op, limit in bounds)
                raise ConfigError(f"{name} must be {rule}, got {value!r}")


def _check_type(name: str, value, default) -> None:
    """A user value must be of its default's kind and its numbers finite;
    a bool is never a number."""
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
    if not ok:
        raise ConfigError(f"{name} must be {kind}, got {value!r}")


def resolve_config(config: dict) -> dict:
    """Overlay user config onto the defaults. Unknown keys, values of the
    wrong type, values that :func:`check` rejects, and values that break a
    rule relating two keys are errors, raised before any stage runs."""
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    known_top = set(DEFAULT_CONFIG) | {"outdir"}
    unknown = set(config) - known_top
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if "outdir" in config:
        _check_type("outdir", config["outdir"], "")
    resolved = {"seed": config.get("seed", DEFAULT_CONFIG["seed"])}
    _check_type("seed", resolved["seed"], DEFAULT_CONFIG["seed"])
    check("", {"seed": resolved["seed"]})
    for section in ("generate", "som", "sir", "spd", "render"):
        user = config.get(section, {})
        # a run may skip a simulation or the figures, not a stage they need;
        # absent sections mean "run with defaults"
        may_skip = section in ("sir", "spd", "render")
        if user is False and may_skip:
            resolved[section] = False
            continue
        if not isinstance(user, dict):
            raise ConfigError(f"section {section!r} must be an object"
                              + (" or false" if may_skip else ""))
        defaults = DEFAULT_CONFIG[section]
        bad = set(user) - set(defaults)
        if bad:
            raise ConfigError(f"unknown keys in {section!r}: {sorted(bad)}")
        for key, value in user.items():
            _check_type(f"{section}.{key}", value, defaults[key])
        check(section, user)
        resolved[section] = {**defaults, **user}
    # the rules that relate two keys; the functions that read the keys check
    # them against their own inputs too
    gen, som, sir = resolved["generate"], resolved["som"], resolved["sir"]
    if gen["n"] < 3:
        raise ConfigError(f"generate.n must be >= 3, got {gen['n']}: "
                          "feature vector needs at least 3 nodes")
    if gen["model"] == "hk" and gen["n"] <= gen["m"]:
        raise ConfigError(f"generate.n must be > generate.m, got n={gen['n']}, "
                          f"m={gen['m']}")
    if som["width"] * som["height"] < 2:
        raise ConfigError(f"som.width * som.height must be >= 2, got "
                          f"{som['width']}x{som['height']}")
    if sir and sir["initial"] > gen["n"]:
        raise ConfigError(f"sir.initial must be in [1, {gen['n']}], got {sir['initial']}")
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


def fork_map(fn, jobs) -> list:
    """``[fn(job) for job in jobs]`` on one worker per job up to the
    NETSOM_THREADS cap (at least one): in this process when that is one,
    else on forked workers that inherit ``fn`` and ``jobs``: only an index
    is pickled down and a result back. Each worker's NETSOM_THREADS is its
    share of the cap, so a pool that a job starts stays within it."""
    cap = thread_cap()
    workers = max(1, min(len(jobs), cap))
    if workers == 1:
        return [fn(job) for job in jobs]
    import multiprocessing  # here, so that importing netsom does not pay for
    from concurrent import futures  # a pool a one-worker run never starts
    share = max(1, cap // workers)
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
