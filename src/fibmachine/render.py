"""Escape-time rasterization of the fibered Julia set over a complex window.

A GridSpec names the window and resolution, scan_grid runs the shared escape
kernel over the pixel centers (once for each row and its mirror image across
the real axis, lambda built one block of rows at a time, optionally in row
bands across threads, with bit-identical output), scan_fibers does so for
several sequences at once, walking each prefix of levels a group of them
shares once, and the writers serialize the resulting level buffer as
binary PPM, CSV text, or PNG.  GridSpec is defined in config, which needs
no numpy, and is the same class here.
"""

from __future__ import annotations

import colorsys
import io
import os
import re
import warnings
from collections.abc import Callable, Iterator, Sequence
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial

import numpy as np

from .config import EscapeConfig, GridSpec
from .errors import ConfigError, integer, within
from .probseq import ProbSeq
from .spectrum import BLOCK, INSIDE, FiberWalk

#: Hard cap on pixels per scan.
PIXEL_BUDGET = 10**8

#: Lines of CSV text built or read per block, so its temporaries stay in cache.
CSV_BLOCK = 1 << 14

_NEWLINE, _MINUS, _ZERO, _COMMA = ord("\n"), ord("-"), ord("0"), ord(",")

#: The place values of the at most ten digits of an int32.
_PLACES = (10 ** np.arange(10)).astype(np.int32)

#: The last line of write_csv output: x, y and a value.
_LAST_LINE = re.compile(r"(\d{1,9}),(\d{1,9}),-?\d+\n", re.ASCII)

#: Successive hues advance by the golden-ratio conjugate, so nearby escape
#: levels land on well-separated colors.
HUE_STEP = 0.6180339887498949

#: HSV saturation and value of every escape-level color; INSIDE is black.
SATURATION = 0.85
VALUE = 1.0


@dataclass(eq=False)
class IterBuffer:
    """Escape levels per pixel; INSIDE (-1) marks cells that never escaped."""

    width: int
    height: int
    cells: np.ndarray

    def __post_init__(self) -> None:
        cells = np.asarray(self.cells)
        if cells.dtype != np.int32:
            if cells.dtype.kind not in "iu":
                raise ValueError(f"cells must hold integers, got dtype {cells.dtype}")
            bounds = np.iinfo(np.int32)
            if cells.size and not (bounds.min <= cells.min() and cells.max() <= bounds.max):
                raise ValueError("cells hold a value outside the int32 range")
            cells = cells.astype(np.int32)
        self.cells = cells
        if self.cells.shape != (self.height, self.width):
            raise ValueError(
                f"cells shape {self.cells.shape} does not match "
                f"{(self.height, self.width)}"
            )

    def inside_count(self) -> int:
        return int(np.count_nonzero(self.cells == INSIDE))


def scan_grid(
    grid: GridSpec, p: ProbSeq, cfg: EscapeConfig, workers: int = 1
) -> IterBuffer:
    """Rasterize escape levels over the grid: scan_fibers with one fiber."""
    (buf,) = scan_fibers(grid, [(p, cfg)], workers)
    return buf


def scan_fibers(
    grid: GridSpec, fibers: Sequence[tuple[ProbSeq, EscapeConfig]], workers: int = 1
) -> Iterator[IterBuffer]:
    """Rasterize each (p, cfg) fiber over the grid, yielding its buffer in turn.

    Every row shares the same real parts, so two rows whose imaginary parts
    have bit-equal moduli hold equal or conjugate lambdas.  Every p_i is
    real and the kernel's operations map conjugate inputs to conjugate
    outputs (up to the sign of a zero, which the modulus ignores), so such
    rows have equal levels: only the first row of each set is scanned, and
    the levels are copied to the others.  The scanned rows are split into
    min(workers, rows) disjoint bands, on at most one thread per CPU.  Each
    band is a spectrum.FiberWalk whose lambda is built from lam_array,
    BLOCK pixels' worth of rows at a time: it walks each level that a group
    of fibers shares once, keeping each fiber's levels past the top node
    small, and each fiber's turn writes them over one full-size buffer.
    The kernel is elementwise, so any worker count gives the cells of the
    sequential scan.  The bands read each `p` through its coefficient
    table, which grows under a lock, so at any worker count `p` is asked for
    the indices a scan of every row with that fiber alone asks for, each
    once, in ascending order.
    """
    within(grid.pixels_x * grid.pixels_y, PIXEL_BUDGET, "pixel")
    integer(workers, "workers", 1)
    _, first, partner = np.unique(
        np.abs(grid.imag_axis()), return_index=True, return_inverse=True
    )
    bands = min(workers, len(first))
    # band b scans rows b, b + bands, ... of the |imag| order, so the rows
    # nearest the real axis, which escape last, are shared among the bands
    deal = np.argsort(np.arange(len(first)) % bands, kind="stable")
    source = np.argsort(deal)[partner]  # the scanned row of each grid row
    rows_per_block = max(1, BLOCK // grid.pixels_x)

    def lam_blocks(rows: np.ndarray) -> Iterator[np.ndarray]:
        for at in range(0, len(rows), rows_per_block):
            yield grid.lam_array(rows[at : at + rows_per_block]).reshape(-1)

    walks = [
        FiberWalk(fibers, partial(lam_blocks, rows))
        for rows in np.array_split(first[deal], bands)
    ]
    levels = np.full((len(first), grid.pixels_x), INSIDE, dtype=np.int32)
    threads = min(bands, os.cpu_count() or 1)
    with ThreadPoolExecutor(max_workers=threads) if bands > 1 else nullcontext() as pool:
        _each_band(pool, [walk.walk for walk in walks], levels)
        for k in range(len(fibers)):
            _each_band(None, [partial(walk.fiber, k) for walk in walks], levels)
            yield IterBuffer(grid.pixels_x, grid.pixels_y, levels[source])


def _each_band(
    pool: ThreadPoolExecutor | None, tasks: list[Callable[[np.ndarray], None]], levels: np.ndarray
) -> None:
    """Run task b on band b's rows of `levels` (np.array_split's), on the pool's threads if any."""
    parts = np.array_split(levels, len(tasks))
    if pool is None:
        for task, part in zip(tasks, parts):
            task(part)
        return
    for future in [pool.submit(task, part) for task, part in zip(tasks, parts)]:
        future.result()


# ---------------------------------------------------------------------------
# serialization


def _color(level: int) -> tuple[int, int, int]:
    """Black for INSIDE, else the HSV color of the level's hue."""
    if level == INSIDE:
        return (0, 0, 0)
    r, g, b = colorsys.hsv_to_rgb((level * HUE_STEP) % 1.0, SATURATION, VALUE)
    return (int(round(r * 255)), int(round(g * 255)), int(round(b * 255)))


def _paint(buf: IterBuffer, rgb: np.ndarray) -> None:
    """Fill `rgb`, shaped (height, width, 3), with the colour of each cell.

    The colour table holds levels 0..max, then INSIDE's black last, where
    level -1 reads it; a level below INSIDE has no colour and is refused.
    The cells go through the table BLOCK pixels' worth of rows at a time, so
    the index copy that take makes stays small.
    """
    low = int(buf.cells.min(initial=INSIDE))
    if low < INSIDE:
        raise ValueError(f"cells hold level {low}, below INSIDE ({INSIDE}), which has no colour")
    top = int(buf.cells.max(initial=INSIDE))
    table = np.array([_color(level) for level in (*range(top + 1), INSIDE)], dtype=np.uint8)
    rows = max(1, BLOCK // max(buf.width, 1))
    for at in range(0, buf.height, rows):
        # "wrap" writes straight into `out`; every level from -1 up is a valid index
        block = slice(at, at + rows)
        np.take(table, buf.cells[block], axis=0, out=rgb[block], mode="wrap")


def write_ppm(buf: IterBuffer) -> bytes:
    """Binary PPM (P6): header then row-major RGB triples, built in one array; byte-exact."""
    header = f"P6\n{buf.width} {buf.height}\n255\n".encode("ascii")
    ppm = np.empty(len(header) + 3 * buf.cells.size, dtype=np.uint8)
    ppm[: len(header)] = np.frombuffer(header, dtype=np.uint8)
    _paint(buf, ppm[len(header) :].reshape(*buf.cells.shape, 3))
    return ppm.tobytes()


def write_png(buf: IterBuffer) -> bytes:
    """PNG bytes via Pillow; raises ConfigError when Pillow is missing."""
    try:
        from PIL import Image
    except ImportError as exc:
        raise ConfigError("PNG output requires the optional Pillow dependency") from exc
    rgb = np.empty((*buf.cells.shape, 3), dtype=np.uint8)
    _paint(buf, rgb)
    image = Image.fromarray(rgb, mode="RGB")
    out = io.BytesIO()
    image.save(out, format="PNG")
    return out.getvalue()


def _word_rows(strings: list[str]) -> np.ndarray:
    """One row of 4-byte words per string, NUL-padded to the longest."""
    words = -(-max(map(len, strings)) // 4)
    return np.array(strings, dtype=f"S{4 * words}").view(np.uint32).reshape(len(strings), words)


def _index_words(n: int) -> np.ndarray:
    """_word_rows of the fields "0,", "1,", .., f"{n - 1},", built from their decimal digits.

    The numbers of d digits are the run 10^(d-1)..10^d - 1 (0 joins the
    one-digit run), so each run fills d digit columns, one division by a
    place value each, and a comma after them.
    """
    width = len(str(max(n - 1, 0)))
    chars = np.zeros((n, -(-(width + 1) // 4) * 4), dtype=np.uint8)
    for d in range(1, width + 1):
        lo, hi = 10 ** (d - 1) if d > 1 else 0, min(n, 10**d)
        run = np.arange(lo, hi)
        for k in range(d):
            chars[lo:hi, k] = run // 10 ** (d - 1 - k) % 10 + _ZERO
        chars[lo:hi, d] = _COMMA
    return chars.view(np.uint32)


def _csv_blocks(cells: np.ndarray) -> Iterator[bytes]:
    """The text of write_csv as ASCII bytes, CSV_BLOCK lines of whole rows at a time.

    Each line is assembled from word tables of the "x,", "y," and "value\n"
    fields, one row per column, row and value, and the NUL padding is
    dropped from each block at once.  The value table covers min..max when
    that range is no longer than the grid, which escape levels always are,
    or than 64 values, which cost less than np.unique; otherwise it holds
    the distinct values.
    """
    h, w = cells.shape
    lo, hi = int(cells.min()), int(cells.max())
    if hi - lo < max(cells.size, 64):
        index, values = cells, range(lo, hi + 1)
    else:
        distinct, which = np.unique(cells, return_inverse=True)
        index, values, lo = which.reshape(h, w), distinct.tolist(), 0
    xs, ys = _index_words(w), _index_words(h)
    vs = _word_rows([f"{v}\n" for v in values])
    kx, ky = xs.shape[1], ys.shape[1]
    rows = max(1, min(h, CSV_BLOCK // w))
    block = np.empty((rows, w, kx + ky + vs.shape[1]), dtype=np.uint32)
    block[:, :, :kx] = xs
    for j0 in range(0, h, rows):
        part = block[: min(rows, h - j0)]
        part[:, :, kx : kx + ky] = ys[j0 : j0 + len(part), None]
        part[:, :, kx + ky :] = vs[index[j0 : j0 + len(part)] - lo]
        yield part.tobytes().translate(None, b"\0")


def write_csv(buf: IterBuffer) -> str:
    """Row-major "x,y,value" lines; INSIDE encoded as -1."""
    if buf.cells.size == 0:
        return "\n"
    return b"".join(_csv_blocks(buf.cells)).decode("ascii")


def _canonical_cells(text: str) -> np.ndarray | None:
    """The cells when text.strip() + "\n" is what write_csv writes for them, else None.

    w and h come from the last line, and each value is read back digit by
    digit from the end of its line, CSV_BLOCK lines' worth of bytes at a
    time.  The cells count only if writing them gives the text again, so
    any cells returned are the ones the general readers would return.
    """
    if not text.startswith("0,0,"):
        return None
    if text[-1] != "\n" or text[-2].isspace():  # else text is text.strip() + "\n"
        text = text.rstrip() + "\n"
    last = _LAST_LINE.fullmatch(text, text.rfind("\n", 0, -1) + 1)
    if last is None:
        return None
    w, h = int(last[1]) + 1, int(last[2]) + 1
    if 6 * w * h > len(text):  # no line is shorter than "0,0,0\n"
        return None
    try:
        raw = text.encode("ascii")
    except UnicodeEncodeError:
        return None
    data = np.frombuffer(raw, dtype=np.uint8)
    cells = np.zeros(w * h, dtype=np.int32)
    done = 0
    step = 8 * CSV_BLOCK  # bytes, about CSV_BLOCK lines of an 800-wide grid
    for start in range(0, len(raw), step):
        pos = (data[start : start + step] == _NEWLINE).nonzero()[0]
        out = cells[done : done + len(pos)]
        if len(out) < len(pos):
            return None
        done += len(pos)
        pos += start - 1
        live = np.ones(len(pos), dtype=bool)
        for place in _PLACES:
            digit = data[pos] - _ZERO  # other bytes wrap past 9
            live &= digit < 10
            if not np.count_nonzero(live):
                break
            # a value past int32 wraps here or is cut at ten digits; writing
            # it again then differs
            np.add(out, digit * place, out=out, where=live)
            pos -= live
        np.negative(out, out=out, where=data[pos] == _MINUS)
    if done != w * h:
        return None
    cells = cells.reshape(h, w)
    at = 0
    for chunk in _csv_blocks(cells):
        if not raw.startswith(chunk, at):
            return None
        at += len(chunk)
    return cells if at == len(raw) else None


def _fast_fields(body: str) -> np.ndarray | None:
    """The (lines, 3) integer fields of body, read by numpy.

    Handles text made only of digits, "-", "," and line breaks, with exactly
    two commas on every line; returns None for anything else, which the
    per-line reader then accepts or rejects exactly as before.
    """
    body = body.replace("\r\n", "\n")
    separators = body.encode("utf-8").translate(None, b"0123456789-")
    lines = separators.count(b"\n") + 1
    if separators != b",,\n" * (lines - 1) + b",,":
        return None
    fields_text = body.replace("\n", ",")
    if "-," in fields_text or fields_text.endswith("-"):
        return None  # numpy would read a lone "-" as 0
    # numpy stops at text it cannot read, such as "5-3"; older releases only
    # warn and return what came before, which at the end of the text could
    # still have the right count
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        try:
            fields = np.fromstring(fields_text, dtype=np.int64, sep=",")
        except (ValueError, DeprecationWarning):
            return None
    return fields.reshape(lines, 3) if fields.size == 3 * lines else None


def _scan_fields(body: str) -> np.ndarray:
    """The per-line reader: int() on each field, naming the first bad line."""
    rows = []
    for lineno, line in enumerate(body.splitlines(), start=1):
        parts = line.strip().split(",")
        if len(parts) != 3:
            raise ValueError(f"line {lineno}: expected x,y,value")
        rows.append([int(s) for s in parts])
    return np.array(rows, dtype=np.int64)


def parse_csv(text: str) -> IterBuffer:
    """Rebuild a buffer from write_csv output.

    Text that write_csv wrote, give or take trailing whitespace, is read on
    a fast path.  Otherwise lines may come in any order and end in CRLF,
    but every cell of the grid they span must appear exactly once; negative
    coordinates and values outside int32 are rejected, and so is any `text`
    that is not a str.
    """
    if not isinstance(text, str):
        raise ValueError(f"text must be a str, got {type(text).__name__}")
    cells = _canonical_cells(text)
    if cells is not None:
        return IterBuffer(cells.shape[1], cells.shape[0], cells)
    body = text.strip()
    if not body:
        raise ValueError("no cells in CSV text")
    fields = _fast_fields(body)
    if fields is None:
        fields = _scan_fields(body)
    xy = fields[:, :2]
    bad = (xy < 0).any(axis=1)
    if bad.any():
        raise ValueError(f"line {int(np.argmax(bad)) + 1}: negative coordinate")
    width = int(xy[:, 0].max()) + 1
    height = int(xy[:, 1].max()) + 1
    if len(fields) < width * height:
        raise ValueError("CSV text does not cover a full grid")
    # each cell at most once: with at least width * height lines, that is exactly once
    flat = xy[:, 1] * width + xy[:, 0]
    if np.bincount(flat, minlength=width * height).max() > 1:
        repeat = np.ones(len(flat), dtype=bool)
        repeat[np.unique(flat, return_index=True)[1]] = False
        k = int(np.argmax(repeat))
        raise ValueError(f"line {k + 1}: cell ({xy[k, 0]}, {xy[k, 1]}) appears twice")
    values = fields[:, 2].astype(np.int32)
    bad = values != fields[:, 2]
    if bad.any():
        raise ValueError(f"line {int(np.argmax(bad)) + 1}: value outside the int32 range")
    cells = np.empty(width * height, dtype=np.int32)
    cells[flat] = values
    return IterBuffer(width, height, cells.reshape(height, width))
