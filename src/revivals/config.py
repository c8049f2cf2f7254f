"""Experiment configuration: JSON round-trip, validation, and shipped presets."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from importlib import resources
from numbers import Integral, Real

from .errors import ConfigError

CSV_COLUMNS = ("re_a", "im_a", "abs_a", "n_expect", "trace", "purity")

REQUIRED_FIELDS = ("dim", "omega0", "alpha_re", "nonlinearity_order", "b",
                   "gamma", "t_final")

#: annotation of a config field -> (test of a value read from JSON, its wording)
_KINDS = {
    "int": (lambda v: isinstance(v, Integral) and not isinstance(v, bool),
            "an integer"),
    "float": (lambda v: isinstance(v, Real) and not isinstance(v, bool)
              and math.isfinite(v), "a finite number"),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "tuple[str, ...]": (lambda v: isinstance(v, tuple)
                        and all(isinstance(c, str) for c in v), "a list of strings"),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """One evolution run; serializes losslessly to a flat JSON document."""

    dim: int = 0
    omega0: float = 0.0
    alpha_re: float = 0.0
    alpha_im: float = 0.0
    state_n: int = 0
    nonlinearity_order: int = 0
    b: float = -1.0
    gamma: float = -1.0
    n_thermal: float = 0.0
    full_equation: bool = False
    t_final: float = 0.0
    dt: float = 0.0
    outputs: tuple[str, ...] = CSV_COLUMNS
    comment: str = ""

    @property
    def alpha(self) -> complex:
        return complex(self.alpha_re, self.alpha_im)

    def validate(self) -> list[str]:
        """Every problem of this config; the ranges are checked once every
        field has its type."""
        problems = [f"{f.name} must be {_KINDS[f.type][1]}, got {getattr(self, f.name)!r}"
                    for f in fields(self) if not _KINDS[f.type][0](getattr(self, f.name))]
        if problems:
            return problems
        if self.dim < 2:
            problems.append(f"dim must be >= 2, got {self.dim}")
        if self.omega0 <= 0:
            problems.append(f"omega0 must be positive, got {self.omega0}")
        if self.nonlinearity_order not in (1, 2, 3):
            problems.append(f"nonlinearity_order must be 1, 2 or 3, got {self.nonlinearity_order}")
        if self.b < 0:
            problems.append(f"b must be >= 0, got {self.b}")
        if self.gamma < 0:
            problems.append(f"gamma must be >= 0, got {self.gamma}")
        if self.n_thermal < 0:
            problems.append(f"n_thermal must be >= 0, got {self.n_thermal}")
        if self.t_final <= 0:
            problems.append(f"t_final must be positive, got {self.t_final}")
        if self.dt < 0:
            problems.append(f"dt must be >= 0 (0 selects automatic), got {self.dt}")
        if not 0 <= self.state_n < max(self.dim, 1):
            problems.append(f"state_n={self.state_n} outside 0..dim-1")
        unknown = [c for c in self.outputs if c not in CSV_COLUMNS]
        if unknown:
            problems.append(f"unknown outputs {unknown}; known: {list(CSV_COLUMNS)}")
        return problems

    def require_valid(self) -> "ExperimentConfig":
        problems = self.validate()
        if problems:
            raise ConfigError("; ".join(problems))
        return self

    def to_dict(self) -> dict:
        d = asdict(self)
        d["outputs"] = list(self.outputs)
        return d

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


_FIELD_NAMES = {f.name for f in fields(ExperimentConfig)}


def config_from_dict(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigError(f"config must be a JSON object, got {type(data).__name__}")
    unknown = sorted(set(data) - _FIELD_NAMES)
    if unknown:
        raise ConfigError(f"unknown config fields: {unknown}")
    missing = [k for k in REQUIRED_FIELDS if k not in data]
    if missing:
        raise ConfigError(f"missing required fields: {missing}")
    if isinstance(data.get("outputs"), list):
        data = dict(data)
        data["outputs"] = tuple(data["outputs"])
    return ExperimentConfig(**data)


def config_from_json(text: str) -> ExperimentConfig:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}") from exc
    return config_from_dict(data)


def load_config(path: str) -> ExperimentConfig:
    """Parse the JSON config at path; a file that cannot be read as UTF-8
    text is a ConfigError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(str(exc)) from exc
    return config_from_json(text)


def parse_values(text: str) -> list[float]:
    """Comma-separated finite sweep values, as given to ``revivals sweep --values``."""
    try:
        values = [float(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise ConfigError(f"cannot parse --values {text!r}: {exc}") from exc
    if not values or not all(math.isfinite(v) for v in values):
        raise ConfigError(f"--values must be one or more finite numbers, got {text!r}")
    return values


# ---------------------------------------------------------------------------
# presets

#: figure label -> panel names; bare labels expand to all their panels.
PRESET_PANELS: dict[str, tuple[str, ...]] = {
    "fig1": ("fig1",),
    "fig2": ("fig2a", "fig2b", "fig2c", "fig2d"),
    "fig3": ("fig3a", "fig3b", "fig3c", "fig3d"),
    "fig4": ("fig4a", "fig4b", "fig4c", "fig4d"),
    "fig5": ("fig5a", "fig5b", "fig5c", "fig5d"),
    "fig6": ("fig6a", "fig6b", "fig6c", "fig6d"),
    "fig7": ("fig7a", "fig7b", "fig7c", "fig7d"),
    "fig8": ("fig8",),
}


@dataclass(frozen=True)
class PresetSpec:
    name: str
    config: ExperimentConfig
    sweep_axis: str | None = None
    sweep_values: tuple[float, ...] = ()


def preset_names() -> list[str]:
    out = []
    for panels in PRESET_PANELS.values():
        out.extend(panels)
    return out


def load_preset(name: str) -> PresetSpec:
    """Load one shipped preset (a panel name such as fig2b, or fig1/fig8)."""
    try:
        text = resources.files("revivals.presets").joinpath(f"{name}.json").read_text()
    except FileNotFoundError:
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(preset_names())}")
    data = json.loads(text)
    cfg = config_from_dict(data["config"]).require_valid()
    sweep = data.get("sweep")
    if sweep is None:
        return PresetSpec(name=name, config=cfg)
    return PresetSpec(name=name, config=cfg, sweep_axis=sweep["axis"],
                      sweep_values=tuple(sweep["values"]))


def expand_preset(label: str) -> list[str]:
    """fig2 -> all fig2 panels; a panel name passes through unchanged."""
    if label in PRESET_PANELS:
        return list(PRESET_PANELS[label])
    if label in preset_names():
        return [label]
    raise ConfigError(
        f"unknown preset {label!r}; available: "
        f"{', '.join(sorted(PRESET_PANELS) + preset_names())}")
