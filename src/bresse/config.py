"""Run configuration files, canonical hashing, and sweep expansion."""

from __future__ import annotations

import copy
import hashlib
import itertools
import json
import math
import os
from dataclasses import dataclass, replace

from .model import (
    BeamParameters,
    BoundaryCondition,
    DampingProfile,
    DampingShape,
    check_dnn_admissible,
)

_PARAM_KEYS = ("rho1", "rho2", "kappa", "kappa0", "b", "l", "L")
_TOP_KEYS = {"params", "profile", "bc", "n", "dt", "T", "seed", "lambda_grid", "outputs"}
# largest T / dt a config may ask for: about 35 min of stepping at n = 100
MAX_STEPS = 10**8


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class LambdaGrid:
    """Frequency scan request; max None means "up to the resolved band"."""
    min: float = 1.0
    max: float | None = None
    count: int = 48


@dataclass(frozen=True)
class RunConfig:
    params: BeamParameters
    profile: DampingProfile
    bc: BoundaryCondition
    n: int
    dt: float
    T: float
    seed: int
    lambda_grid: LambdaGrid
    outputs: str


def auto_dt(params: BeamParameters, n: int) -> float:
    """h / (2 c_max), the step the time integrator defaults to."""
    return (params.L / n) / (2.0 * params.max_wave_speed)


def _require(cond, message):
    if not cond:
        raise ConfigError(message)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _number(value, name: str) -> float:
    """value as a finite float, or ConfigError naming the key."""
    try:
        number = math.nan if isinstance(value, bool) else float(value)
    except (TypeError, ValueError):
        number = math.nan
    _require(math.isfinite(number), f"{name} must be a finite number, got {value!r}")
    return number


def parse_config(raw: dict) -> RunConfig:
    _require(isinstance(raw, dict), "config must be a JSON object")
    unknown = set(raw) - _TOP_KEYS
    _require(not unknown, f"unknown config keys: {sorted(unknown)}")
    for key in ("params", "profile", "bc", "n", "T"):
        _require(key in raw, f"config key {key!r} is required")

    p = raw["params"]
    _require(isinstance(p, dict) and set(p) == set(_PARAM_KEYS),
             f"params must hold exactly the keys {list(_PARAM_KEYS)}")
    values = {k: _number(p[k], f"params.{k}") for k in _PARAM_KEYS}
    try:
        params = BeamParameters(**values)
    except ValueError as err:
        raise ConfigError(f"bad params: {err}") from err

    pr = raw["profile"]
    _require(isinstance(pr, dict), "profile must be an object")
    allowed = {"alpha", "beta", "a0", "shape", "ramp"}
    _require(set(pr) <= allowed and {"alpha", "beta", "a0"} <= set(pr),
             "profile needs alpha, beta, a0 and optionally shape, ramp")
    values = {k: _number(pr.get(k, 0.0), f"profile.{k}")  # only ramp may be absent
              for k in ("alpha", "beta", "a0", "ramp")}
    try:
        shape = DampingShape(pr.get("shape", "PiecewiseConstant"))
        profile = DampingProfile(**values, shape=shape)
        profile.validate_for_length(params.L)
    except ValueError as err:
        raise ConfigError(f"bad profile: {err}") from err

    try:
        bc = BoundaryCondition(raw["bc"])
    except ValueError as err:
        raise ConfigError(f"bc must be one of DNN, DDD: {err}") from err
    if bc is BoundaryCondition.DNN:
        adm = check_dnn_admissible(params)
        _require(adm.ok,
                 f"DNN requires L away from n*pi/l; L={params.L} is within "
                 f"{adm.tol:g} of {adm.nearest_n}*pi/l")

    n = raw["n"]
    _require(_is_int(n) and n >= 4, "n must be an integer >= 4")
    T = _number(raw["T"], "T")
    _require(T > 0, "T must be positive")

    dt_raw = raw.get("dt", "auto")
    if dt_raw == "auto":
        dt = auto_dt(params, n)
    else:
        dt = _number(dt_raw, "dt")
        _require(dt > 0, "dt must be positive or the string 'auto'")
    steps = T / dt
    _require(steps <= MAX_STEPS,  # also false for an overflow to inf
             f"T / dt asks for {steps:.3g} time steps, above the cap {MAX_STEPS:.0e}")

    seed = raw.get("seed", 0)
    _require(_is_int(seed) and seed >= 0, "seed must be an integer >= 0")

    lg = raw.get("lambda_grid", {})
    _require(isinstance(lg, dict) and set(lg) <= {"min", "max", "count", "spacing"},
             "lambda_grid holds min, max, count, spacing")
    lam_max = lg.get("max", "auto")
    lam_max = None if lam_max == "auto" else _number(lam_max, "lambda_grid.max")
    _require(lg.get("spacing", "log") == "log", "only log spacing is supported")
    count = lg.get("count", 48)
    _require(_is_int(count) and count >= 2, "lambda_grid.count must be an integer >= 2")
    grid = LambdaGrid(min=_number(lg.get("min", 1.0), "lambda_grid.min"), max=lam_max,
                      count=count)
    _require(grid.min > 0, "lambda_grid.min must be positive")
    if grid.max is not None:
        _require(grid.max > grid.min, "lambda_grid.max must exceed min")

    outputs = str(raw.get("outputs", "out"))
    return RunConfig(params=params, profile=profile, bc=bc, n=n, dt=dt, T=T,
                     seed=seed, lambda_grid=grid, outputs=outputs)


def to_dict(cfg: RunConfig) -> dict:
    return {
        "params": {k: getattr(cfg.params, k) for k in _PARAM_KEYS},
        "profile": {
            "alpha": cfg.profile.alpha,
            "beta": cfg.profile.beta,
            "a0": cfg.profile.a0,
            "shape": cfg.profile.shape.value,
            "ramp": cfg.profile.ramp,
        },
        "bc": cfg.bc.value,
        "n": cfg.n,
        "dt": cfg.dt,
        "T": cfg.T,
        "seed": cfg.seed,
        "lambda_grid": {
            "min": cfg.lambda_grid.min,
            "max": "auto" if cfg.lambda_grid.max is None else cfg.lambda_grid.max,
            "count": cfg.lambda_grid.count,
            "spacing": "log",  # the only spacing; kept so config ids stay as they were
        },
        "outputs": cfg.outputs,
    }


def config_id(cfg: RunConfig) -> str:
    """Hash of the resolved physics fields; the output location is excluded
    so moving results elsewhere does not change identities."""
    payload = to_dict(cfg)
    payload.pop("outputs")
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _read_json(path: str, what: str):
    """The parsed JSON file at path, or ConfigError naming it as ``what``."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read {what} {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"{what} {path} is not valid JSON: {err}") from err


def load_config(path: str) -> RunConfig:
    return parse_config(_read_json(path, "config"))


@dataclass(frozen=True)
class SweepSpec:
    base: dict
    grid: dict          # dotted path -> list of values
    outputs: str
    max_points: int = 256


def load_sweep(path: str) -> SweepSpec:
    raw = _read_json(path, "sweep")
    _require(isinstance(raw, dict) and set(raw) <= {"base", "grid", "outputs", "max_points"},
             "sweep holds base, grid, outputs and optionally max_points")
    for key in ("base", "grid", "outputs"):
        _require(key in raw, f"sweep key {key!r} is required")
    grid = raw["grid"]
    _require(isinstance(grid, dict) and grid, "grid must be a nonempty object")
    for path_, values in grid.items():
        _require(isinstance(values, list) and values,
                 f"grid entry {path_!r} must be a nonempty list")
    max_points = raw.get("max_points", 256)
    _require(_is_int(max_points), "sweep max_points must be an integer")
    spec = SweepSpec(base=raw["base"], grid=grid, outputs=str(raw["outputs"]),
                     max_points=max_points)
    total = 1
    for values in grid.values():
        total *= len(values)
    _require(total <= spec.max_points,
             f"sweep expands to {total} points, above the cap {spec.max_points}")
    return spec


def _set_dotted(tree: dict, dotted: str, value) -> None:
    keys = dotted.split(".")
    node = tree
    for key in keys[:-1]:
        if not isinstance(node.get(key), dict):
            raise ConfigError(f"sweep path {dotted!r} does not match the base config")
        node = node[key]
    # a brand-new leaf is fine: parse_config rejects misspelled keys anyway
    node[keys[-1]] = value


def expand_sweep(spec: SweepSpec) -> list[RunConfig]:
    """Cartesian product of the grid over the base config, one RunConfig per
    point, each writing into a subdirectory named by its hash."""
    names = sorted(spec.grid)
    combos = itertools.product(*(spec.grid[name] for name in names))
    configs = []
    for combo in combos:
        raw = copy.deepcopy(spec.base)
        raw.setdefault("outputs", "out")
        for name, value in zip(names, combo):
            _set_dotted(raw, name, value)
        cfg = parse_config(raw)
        cid = config_id(cfg)
        configs.append(replace(cfg, outputs=os.path.join(spec.outputs, cid[:12])))
    return configs
