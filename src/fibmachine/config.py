"""Shared JSON run configuration for the CLI and the figure panels.

One JSON document names the probability sequence, the digit base, the raster
window, and the escape parameters.  Every command reads the same schema, so a
committed panel file and an ad-hoc CLI config behave identically.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from .errors import ConfigError, FibmachineError
from .numeration import FIBONACCI, BaseDef
from .probseq import ProbSeq, all_ones, from_config as probseq_from_config, json_number, to_config
from .render import GridSpec
from .spectrum import EscapeConfig, escape_radius

DEFAULT_MAX_LEVEL = 17
DEFAULT_MARGIN = 1.0
DEFAULT_SEED = 2026


@dataclass(frozen=True)
class RunConfig:
    prob_seq: ProbSeq
    base: BaseDef = FIBONACCI
    grid: GridSpec = GridSpec()
    radius: float | None = None  # explicit escape radius override
    margin: float = DEFAULT_MARGIN
    max_level: int = DEFAULT_MAX_LEVEL
    early_exit: bool = True
    seed: int = DEFAULT_SEED

    def escape_config(self) -> EscapeConfig:
        radius = self.radius
        if radius is None:
            radius = escape_radius(self.prob_seq, self.margin)
        return EscapeConfig(radius, self.max_level, self.early_exit)


def _require_keys(d: dict, allowed: set[str], where: str) -> None:
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be a JSON object, got {d!r}")
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"unknown {where} keys: {sorted(unknown)}")


def _int_field(d: dict, key: str, default: int, where: str) -> int:
    """A JSON integer, not a bool and not a float with an integral value."""
    value = d.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}{key} must be an integer, got {value!r}")
    return value


def _pixel_field(d: dict, key: str, default: int) -> int:
    """A grid pixel count: a JSON integer of at least 1."""
    value = _int_field(d, key, default, "grid ")
    if value < 1:
        raise ConfigError(f"grid {key} must be at least 1, got {value!r}")
    return value


def _grid_from_dict(d: dict) -> GridSpec:
    _require_keys(
        d, {"center", "width", "height", "pixels_x", "pixels_y", "pixels"}, "grid"
    )
    center = d.get("center", [0.0, 0.0])
    if isinstance(center, (list, tuple)) and len(center) == 2:
        parts = zip(center, ("re", "im"))
        real, imag = (json_number(x, f"grid center {part}") for x, part in parts)
        center = complex(real, imag)
    elif isinstance(center, (int, float)):
        center = complex(json_number(center, "grid center"))
    else:
        raise ConfigError(f"grid center must be a number or a [re, im] pair, got {center!r}")
    pixels = _pixel_field(d, "pixels", 800)
    px = _pixel_field(d, "pixels_x", pixels)
    py = _pixel_field(d, "pixels_y", pixels)
    return GridSpec(
        center=center,
        width=json_number(d.get("width", 5.0), "grid width"),
        height=json_number(d.get("height", 5.0), "grid height"),
        pixels_x=px,
        pixels_y=py,
    )


def config_from_dict(doc: dict) -> RunConfig:
    """Validate and build a RunConfig; a bare prob-seq dict is accepted too."""
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    if "variant" in doc and "prob_seq" not in doc:
        doc = {"prob_seq": doc}
    _require_keys(doc, {"prob_seq", "base", "grid", "escape", "seed"}, "config")
    try:
        prob_seq = (
            probseq_from_config(doc["prob_seq"]) if "prob_seq" in doc else all_ones()
        )
        base = FIBONACCI
        if "base" in doc:
            b = doc["base"]
            _require_keys(b, {"coeffs", "name"}, "base")
            coeffs = b["coeffs"]
            if not isinstance(coeffs, list) or any(type(c) is not int for c in coeffs):
                raise ConfigError(f"base coeffs must be a list of integers, got {coeffs!r}")
            base = BaseDef(tuple(coeffs), b.get("name", "custom"))
        grid = _grid_from_dict(doc.get("grid", {}))
        esc = doc.get("escape", {})
        _require_keys(esc, {"radius", "margin", "max_level", "early_exit"}, "escape")
        radius = esc.get("radius")
        max_level = _int_field(esc, "max_level", DEFAULT_MAX_LEVEL, "escape ")
        early_exit = esc.get("early_exit", True)
        if not isinstance(early_exit, bool):
            raise ConfigError(f"escape early_exit must be true or false, got {early_exit!r}")
        return RunConfig(
            prob_seq=prob_seq,
            base=base,
            grid=grid,
            radius=None if radius is None else json_number(radius, "escape radius"),
            margin=json_number(esc.get("margin", DEFAULT_MARGIN), "escape margin"),
            max_level=max_level,
            early_exit=early_exit,
            seed=_int_field(doc, "seed", DEFAULT_SEED, ""),
        )
    except ConfigError:
        raise
    except (FibmachineError, ValueError, TypeError, KeyError) as exc:
        raise ConfigError(f"invalid config: {exc}") from exc


def config_to_dict(cfg: RunConfig) -> dict[str, Any]:
    """JSON form of a RunConfig (inverse of config_from_dict)."""
    doc: dict[str, Any] = {
        "prob_seq": to_config(cfg.prob_seq),
        "grid": {
            "center": [cfg.grid.center.real, cfg.grid.center.imag],
            "width": cfg.grid.width,
            "height": cfg.grid.height,
            "pixels_x": cfg.grid.pixels_x,
            "pixels_y": cfg.grid.pixels_y,
        },
        "escape": {
            "margin": cfg.margin,
            "max_level": cfg.max_level,
            "early_exit": cfg.early_exit,
        },
        "seed": cfg.seed,
    }
    if cfg.radius is not None:
        doc["escape"]["radius"] = cfg.radius
    if cfg.base is not FIBONACCI:
        doc["base"] = {"coeffs": list(cfg.base.coeffs), "name": cfg.base.name}
    return doc


def load_config(path: str | Path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return config_from_dict(doc)
