"""The fifteen committed display panels and their batch reproduction.

Each panel is a JSON run config shipped as package data (panels/panelNN.json)
holding the probability prefix that produced one published picture, over the
standard window [-2.5, 2.5]^2 at 400x400 with escape depth 17.  Panels are
numbered 01..15 in publication order, three per display figure; the figures
themselves are numbered 4..8, so "fig5-2" is panel 05.  The panel number is
authoritative where the two disagree.

Loading and naming panels needs no numpy; render_panel and repro_panels
import the renderer when they are called.  repro_panels paints the panels of
one grid from one walk, so each prefix of escape levels that a group of their
sequences shares is walked and painted once (levels 0-2 for all the committed
panels, 3-4 for the 13 with p_3 = 1.0, ...); the bytes are render_panel's.
"""

from __future__ import annotations

import dataclasses
import json
import re
from importlib import resources
from pathlib import Path
from typing import TYPE_CHECKING

from .config import EscapeConfig, GridSpec, RunConfig, config_from_dict
from .errors import ConfigError

if TYPE_CHECKING:
    from .probseq import ProbSeq
    from .render import IterBuffer

PANEL_COUNT = 15
FIRST_FIGURE = 4
PANELS_PER_FIGURE = 3


def panel_name(number: int) -> str:
    if not (1 <= number <= PANEL_COUNT):
        raise ConfigError(f"panel number must be 1..{PANEL_COUNT}, got {number}")
    return f"panel{number:02d}"


def panel_config(number: int) -> RunConfig:
    """Load one committed panel config from package data."""
    name = panel_name(number)
    ref = resources.files(__package__) / "panels" / f"{name}.json"
    try:
        doc = json.loads(ref.read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise ConfigError(f"missing committed panel config {name}") from exc
    return config_from_dict(doc)


def parse_target(text: str) -> list[int]:
    """Resolve a repro target to panel numbers.

    Accepts "all", a bare number ("7"), "panelNN", or "figN-M" with figure
    N in 4..8 and position M in 1..3 (mapped to (N-4)*3 + M).
    """
    t = text.strip().lower()
    if t == "all":
        return list(range(1, PANEL_COUNT + 1))
    m = re.fullmatch(r"(?:panel)?(\d{1,2})", t)
    if m:
        number = int(m.group(1))
        panel_name(number)
        return [number]
    m = re.fullmatch(r"fig(\d+)-(\d)", t)
    if m:
        fig, pos = int(m.group(1)), int(m.group(2))
        last_figure = FIRST_FIGURE + PANEL_COUNT // PANELS_PER_FIGURE - 1
        if not (FIRST_FIGURE <= fig <= last_figure and 1 <= pos <= PANELS_PER_FIGURE):
            raise ConfigError(
                f"figure targets range fig{FIRST_FIGURE}-1 .. fig{last_figure}-3"
            )
        return [(fig - FIRST_FIGURE) * PANELS_PER_FIGURE + pos]
    raise ConfigError(f"cannot parse repro target {text!r}")


def _panel_fiber(number: int, pixels: int | None) -> tuple[GridSpec, tuple[ProbSeq, EscapeConfig]]:
    """One committed panel's grid (optionally at another resolution) and its (p, cfg) fiber."""
    cfg = panel_config(number)
    grid = cfg.grid
    if pixels is not None:
        grid = dataclasses.replace(grid, pixels_x=pixels, pixels_y=pixels)
    return grid, (cfg.prob_seq, cfg.escape_config())


def render_panel(number: int, workers: int = 1, pixels: int | None = None) -> IterBuffer:
    """Rasterize one committed panel (optionally overriding the resolution)."""
    from .render import scan_grid

    grid, (p, cfg) = _panel_fiber(number, pixels)
    return scan_grid(grid, p, cfg, workers=workers)


def repro_panels(
    numbers: list[int],
    out_dir: str | Path,
    workers: int = 1,
    pixels: int | None = None,
) -> list[Path]:
    """Render the given panels to PPM files; returns the written paths, in the order given.

    The panels that share a grid go through render.write_ppms, which walks
    each prefix of levels a group of them shares once, paints the top node's
    levels once, and writes each PPM at its panel's turn from that one body.
    """
    from .render import write_ppms

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = [out_dir / f"{panel_name(number)}.ppm" for number in numbers]
    groups: dict[GridSpec, list[tuple[Path, tuple[ProbSeq, EscapeConfig]]]] = {}
    for number, path in zip(numbers, paths):
        grid, fiber = _panel_fiber(number, pixels)
        groups.setdefault(grid, []).append((path, fiber))
    for grid, panels in groups.items():
        write_ppms(grid, [fiber for _, fiber in panels], [path for path, _ in panels], workers)
    return paths
