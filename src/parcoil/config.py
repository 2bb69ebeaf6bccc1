"""Run configuration: a flat, sectioned key=value text file, read as UTF-8.

``_SCHEMA`` lists every section and its keys.  A file that cannot be read
or decoded, an unknown section or key, a number that is not finite, or an
inconsistent value is a :class:`ConfigError` (exit 1 from the CLI).  The
keys of ``[coil]``, ``[parareal]``, ``[fine]`` and ``[coarse]`` are the
number fields of :class:`CoilParams`, :class:`PararealConfig` and
:class:`StepperTolerances`, with the dataclass defaults unless
``_DEFAULTS`` says otherwise.  A temperature-like tolerance field
``tol_*`` is entered in millikelvin as ``tol_*_mk`` (the customary
presentation for quench studies) and converted to kelvin; times are plain
seconds.  Every key except the problem selection and the end time has a
default; ``configs/ni_coil.cfg`` shows each one.
"""

from __future__ import annotations

import configparser
import hashlib
import math
from dataclasses import dataclass, fields

from .coil import DEFAULT_RAMP, CoilParams, CoilProblem, LinearTestProblem, RampSchedule
from .parareal import PararealConfig
from .problem import Problem
from .stepper import StepperTolerances

__all__ = ["ConfigError", "RunConfig", "load_run_config", "make_problem", "run_id"]

PROBLEM_NAMES = ("ni_coil", "linear_test")


def _key(field_name: str) -> str:
    """Config key of a dataclass field: ``tol_*`` (kelvin) is entered as ``tol_*_mk``."""
    return field_name + "_mk" if field_name.startswith("tol_") else field_name


def _number_fields(cls) -> dict:
    """Config key -> field for each number field of the dataclass ``cls``.

    The modules use postponed annotations, so ``field.type`` is a string.
    """
    return {_key(f.name): f for f in fields(cls) if f.type in ("float", "int")}


_SCHEMA = {
    "run": ("problem", "t_start", "t_end", "out_dir", "workers"),
    "coil": tuple(_number_fields(CoilParams)),
    "ramp": ("points",),
    "linear_test": ("rate", "initial"),
    "parareal": tuple(_number_fields(PararealConfig)),
    "fine": tuple(_number_fields(StepperTolerances)),
    "coarse": tuple(_number_fields(StepperTolerances)),
    "study": ("n_windows_list", "fine_tol_mk_list"),
}

# Defaults of the dataclass-backed sections where the dataclass has none
# or the config's differs.
_DEFAULTS = {
    "parareal": {"n_windows": 8, "tol_pr_mk": 10.0},
    "fine": {"tol_nr_mk": 0.1, "tol_t_mk": 0.1},
    "coarse": {"tol_nr_mk": 10.0, "tol_t_mk": 20.0, "dt_init": 0.5},
}


class ConfigError(Exception):
    """The configuration file is missing, malformed, or inconsistent."""


@dataclass(frozen=True)
class RunConfig:
    """Fully parsed run configuration."""

    problem_name: str
    t_start: float
    t_end: float
    coil_params: CoilParams
    ramp: RampSchedule
    linear_rate: float
    linear_initial: tuple[float, ...]
    parareal: PararealConfig
    n_windows_list: tuple[int, ...] = ()
    fine_tol_mk_list: tuple[float, ...] = ()
    out_dir: str = "out"
    workers: int | None = None


def _number(section: str, key: str, raw: str, integer: bool = False) -> float | int:
    try:
        value = float(raw)
    except ValueError as exc:
        raise ConfigError(f"key '{key}' in [{section}] is not a number: {raw!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"key '{key}' in [{section}] must be a finite number, got {raw!r}")
    if not integer:
        return value
    if value != int(value):
        raise ConfigError(f"key '{key}' in [{section}] must be an integer")
    return int(value)


def _number_list(section: str, key: str, raw: str, integer: bool = False) -> tuple:
    items = [chunk.strip() for chunk in raw.split(",") if chunk.strip()]
    return tuple(_number(section, key, item, integer) for item in items)


def _parse_ramp(raw: str) -> RampSchedule:
    segments = []
    for chunk in raw.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            t_str, i_str = chunk.split(":")
        except ValueError as exc:
            raise ConfigError(f"ramp point {chunk!r} is not 'time_s:current_A'") from exc
        segments.append((_number("ramp", "points", t_str), _number("ramp", "points", i_str)))
    try:
        return RampSchedule(tuple(segments))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _build(cls, section: str, values: dict, **extra):
    """``cls`` from one section's number keys, ``_DEFAULTS`` and the dataclass defaults."""
    kwargs = dict(extra)
    for key, f in _number_fields(cls).items():
        if key in values:
            value = _number(section, key, values[key], integer=f.type == "int")
        elif key in _DEFAULTS.get(section, {}):
            value = _DEFAULTS[section][key]
        else:
            continue
        kwargs[f.name] = 1e-3 * value if key != f.name else value
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"invalid [{section}] settings: {exc}") from exc


def load_run_config(path: str) -> RunConfig:
    """Parse and validate a configuration file."""
    # No header can name the empty section, so [DEFAULT] is an ordinary
    # (unknown) section rather than keys merged into every section.
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), default_section="")
    try:
        with open(path, encoding="utf-8") as handle:
            parser.read_file(handle)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror}") from exc

    sections = {name: dict(parser[name]) for name in parser.sections()}
    for name, values in sections.items():
        if name not in _SCHEMA:
            raise ConfigError(f"unknown section [{name}]; expected one of {', '.join(_SCHEMA)}")
        unknown = sorted(set(values) - set(_SCHEMA[name]))
        if unknown:
            raise ConfigError(
                f"unknown key(s) in [{name}]: {', '.join(unknown)}; "
                f"expected one of {', '.join(_SCHEMA[name])}"
            )
    if "run" not in sections:
        raise ConfigError(f"{path}: missing required section [run]")
    run = sections["run"]

    problem_name = run.get("problem", "").strip()
    if problem_name not in PROBLEM_NAMES:
        raise ConfigError(
            f"unknown problem {problem_name!r}; choose one of {', '.join(PROBLEM_NAMES)}"
        )
    t_start = _number("run", "t_start", run["t_start"]) if "t_start" in run else 0.0
    if "t_end" not in run:
        raise ConfigError("missing required key 't_end' in section [run]")
    t_end = _number("run", "t_end", run["t_end"])
    if not t_start < t_end:
        raise ConfigError("keys 't_start' and 't_end' in [run] need t_start < t_end")
    optional = {}
    if "workers" in run:
        optional["workers"] = _number("run", "workers", run["workers"], integer=True)
        if optional["workers"] < 1:
            raise ConfigError("key 'workers' in [run] must be >= 1")
    if "out_dir" in run:
        optional["out_dir"] = run["out_dir"].strip()
        if not optional["out_dir"]:
            raise ConfigError("key 'out_dir' in [run] must not be empty")

    coil_params = _build(CoilParams, "coil", sections.get("coil", {}))
    ramp_raw = sections.get("ramp", {}).get("points")
    ramp = _parse_ramp(ramp_raw) if ramp_raw is not None else DEFAULT_RAMP

    lin = sections.get("linear_test", {})
    linear_rate = _number("linear_test", "rate", lin["rate"]) if "rate" in lin else -1.0
    linear_initial: tuple[float, ...] = (1.0,)
    if "initial" in lin:
        linear_initial = _number_list("linear_test", "initial", lin["initial"])
        if not linear_initial:
            raise ConfigError("[linear_test] initial must hold at least one component")

    parareal = _build(
        PararealConfig,
        "parareal",
        sections.get("parareal", {}),
        fine_tol=_build(StepperTolerances, "fine", sections.get("fine", {})),
        coarse_tol=_build(StepperTolerances, "coarse", sections.get("coarse", {})),
    )

    study = sections.get("study", {})
    for key, integer in (("n_windows_list", True), ("fine_tol_mk_list", False)):
        if key not in study:
            continue
        values = optional[key] = _number_list("study", key, study[key], integer=integer)
        if any(v <= 0 for v in values):
            kind = "integers" if integer else "numbers"
            raise ConfigError(f"key '{key}' in [study] must hold positive {kind}")
        repeats = [v for i, v in enumerate(values) if v in values[:i]]
        if repeats:
            raise ConfigError(f"key '{key}' in [study] repeats {repeats[0]:g}")

    return RunConfig(
        problem_name=problem_name,
        t_start=t_start,
        t_end=t_end,
        coil_params=coil_params,
        ramp=ramp,
        linear_rate=linear_rate,
        linear_initial=linear_initial,
        parareal=parareal,
        **optional,
    )


def make_problem(cfg: RunConfig) -> Problem:
    """Instantiate the configured problem."""
    if cfg.problem_name == "ni_coil":
        return CoilProblem(cfg.coil_params, cfg.ramp)
    return LinearTestProblem(cfg.linear_rate, cfg.linear_initial)


def run_id(cfg: RunConfig) -> str:
    """Short content hash of the configuration, used to join output files.

    Hashes every field except the output directory and the worker count,
    which do not change the results.
    """
    values = (getattr(cfg, f.name) for f in fields(cfg) if f.name not in ("out_dir", "workers"))
    parts = [v if isinstance(v, str) else repr(v) for v in values]
    return hashlib.sha256("|".join(parts).encode()).hexdigest()[:12]
