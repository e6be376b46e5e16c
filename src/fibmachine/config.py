"""Shared JSON run configuration for the CLI and the figure panels.

One JSON document names the probability sequence, the digit base, the raster
window, and the escape parameters.  Every command reads the same schema, so a
committed panel file and an ad-hoc CLI config behave identically.

The value types a config builds live here too: GridSpec (the raster window,
also exported by render) and EscapeConfig with escape_radius (the escape
parameters, also exported by spectrum).  None of them needs numpy, so a
config loads without it; GridSpec.lam_array imports numpy when it is called.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any

from .errors import ConfigError, FibmachineError, ZeroDelta, integer, real, within
from .numeration import FIBONACCI, BaseDef
from .probseq import ProbSeq, all_ones, from_config as probseq_from_config, json_number, to_config

if TYPE_CHECKING:
    import numpy as np

#: Keeps the escape radius strictly above 1 even for an all-ones sequence.
RADIUS_EPS = 1e-9

#: Hard cap on escape levels per orbit, beside render.PIXEL_BUDGET: an orbit
#: that never escapes (the unit disk of the all-ones sequence) is stepped
#: max_level times.
LEVEL_BUDGET = 10_000

DEFAULT_MAX_LEVEL = 17
DEFAULT_MARGIN = 1.0
DEFAULT_SEED = 2026


@dataclass(frozen=True)
class GridSpec:
    """A complex-plane window sampled at pixel centers, rows growing downward."""

    center: complex = 0j
    width: float = 5.0
    height: float = 5.0
    pixels_x: int = 800
    pixels_y: int = 800

    def __post_init__(self) -> None:
        c = self.center
        finite = isinstance(c, numbers.Complex) and math.isfinite(c.real) and math.isfinite(c.imag)
        if type(c) is bool or not finite:
            raise ValueError(f"grid center must be a finite number, got {c!r}")
        for name in ("width", "height"):
            size = getattr(self, name)
            if type(size) is bool or not (isinstance(size, numbers.Real) and 0.0 < size < math.inf):
                raise ValueError(f"grid {name} must be positive and finite, got {size!r}")
        for name in ("pixels_x", "pixels_y"):
            integer(getattr(self, name), f"grid {name}", 1)

    def imag_axis(self) -> np.ndarray:
        """The imaginary part shared by the pixel centers of each row."""
        import numpy as np

        j = np.arange(self.pixels_y, dtype=np.float64)
        return self.center.imag + ((j + 0.5) / self.pixels_y - 0.5) * self.height

    def lam_array(self, rows: np.ndarray | None = None) -> np.ndarray:
        """Pixel centers as one (len(rows), pixels_x) complex array, all rows by default.

        Only the rows asked for are built, in the order given.  The two
        parts are written directly.  They are bit for bit those of
        (center + x) + 1j * y, whose zero addends change nothing because
        neither x nor y is ever -0.0.
        """
        import numpy as np

        i = np.arange(self.pixels_x, dtype=np.float64)
        x = ((i + 0.5) / self.pixels_x - 0.5) * self.width
        im = self.imag_axis()
        if rows is not None:
            im = im[rows]
        lam = np.empty((len(im), self.pixels_x), dtype=np.complex128)
        lam.real = self.center.real + x
        lam.imag = im[:, None]
        return lam


def escape_radius(p: ProbSeq, margin: float = 0.0) -> float:
    """Safe escape radius max(1 + eps, 2/delta - 1) + margin."""
    if not 0.0 <= real(margin, "margin") < math.inf:
        raise ValueError(f"margin must be nonnegative and finite, got {margin!r}")
    delta = p.delta_lower_bound()
    if delta <= 0.0:
        raise ZeroDelta(
            "the descriptor has no positive lower bound; supply an explicit radius"
        )
    return max(1.0 + RADIUS_EPS, 2.0 / delta - 1.0) + margin


@dataclass(frozen=True)
class EscapeConfig:
    """How far and how hard to chase an orbit before calling it escaped."""

    radius: float
    max_level: int
    early_exit: bool = True

    def __post_init__(self) -> None:
        if not 1.0 < real(self.radius, "escape radius") < math.inf:
            raise ValueError(
                f"escape radius must be finite and exceed 1, got {self.radius!r}"
            )
        within(integer(self.max_level, "max_level", 0), LEVEL_BUDGET, "level")
        if not isinstance(self.early_exit, bool):
            raise ValueError(f"early_exit must be True or False, got {self.early_exit!r}")


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


def _int_field(d: dict, key: str, default: int, where: str, low: int | None = None) -> int:
    """A JSON integer, not a bool and not a float with an integral value, of at least `low`."""
    try:
        return integer(d.get(key, default), f"{where}{key}", low)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


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
    pixels = _int_field(d, "pixels", 800, "grid ", 1)
    px = _int_field(d, "pixels_x", pixels, "grid ", 1)
    py = _int_field(d, "pixels_y", pixels, "grid ", 1)
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
