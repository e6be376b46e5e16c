"""Command line front end: every library operation as a subcommand.

All numeric output is printed with 12 significant digits.  Exit codes: 0 on
success, 2 for configuration or value errors, 3 when a capacity or budget
limit is hit.  Subcommands are thin adapters over the library calls, so the
printed results match direct library use exactly.  The numpy-backed modules
are imported by the handlers that use them, so the parser, the error mapping
and the word commands (encode, decode, succ) run without numpy.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator

from . import figures, odometer
from .config import RunConfig, load_config
from .errors import BudgetExceeded, CapacityError, FibmachineError
from .numeration import decode, encode
from .probseq import all_ones

if TYPE_CHECKING:
    from .chain import TruncatedMatrix


#: Lines of `chain matrix` CSV written at a time, rounded to whole rows.
CSV_BLOCK = 4096


def fmt(x: float) -> str:
    return f"{x:.12g}"


def fmt_complex(z: complex) -> str:
    return f"{z.real:.12g}{z.imag:+.12g}j"


def _load(args: argparse.Namespace) -> RunConfig:
    if getattr(args, "config", None):
        cfg = load_config(args.config)
    else:
        cfg = RunConfig(prob_seq=all_ones())
    if getattr(args, "seed", None) is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    return cfg


def _point(args: argparse.Namespace) -> complex:
    """The point `re im` of a spectral command; both parts must be finite."""
    for name in ("re", "im"):
        if not math.isfinite(getattr(args, name)):
            raise ValueError(f"{name} must be finite, got {getattr(args, name)!r}")
    return complex(args.re, args.im)


def _write_or_print(pieces: Iterable[str], out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)
    else:
        sys.stdout.writelines(pieces)


# ---------------------------------------------------------------------------
# subcommand bodies


def cmd_encode(args: argparse.Namespace) -> int:
    print(encode(args.number))
    return 0


def cmd_decode(args: argparse.Namespace) -> int:
    print(decode(args.word))
    return 0


def cmd_succ(args: argparse.Namespace) -> int:
    results = {}
    if args.method in ("both", "carry"):
        word, trace = odometer.succ_carry(args.word)
        results["carry"] = word
        if args.verbose:
            print(
                f"carry branch {trace.branch}: carries {trace.carries} "
                f"(indices from {trace.start_index}), halted at {trace.halted_at}"
            )
    if args.method in ("both", "transducer"):
        word, edges = odometer.succ_transducer(args.word)
        results["transducer"] = word
        if args.verbose:
            print(f"transducer path {odometer.format_path(edges)}")
    if len(set(results.values())) != 1:
        print(f"route disagreement: {results}", file=sys.stderr)
        return 2
    print(next(iter(results.values())))
    return 0


def cmd_chain_row(args: argparse.Namespace) -> int:
    from . import chain

    cfg = _load(args)
    terms = chain.transition_terms(args.state)
    for target, factor in terms:
        print(f"{target} {fmt(factor.value(cfg.prob_seq))} {factor.text()}")
    return 0


def cmd_chain_matrix(args: argparse.Namespace) -> int:
    from . import chain

    cfg = _load(args)
    matrix = chain.transition_matrix(args.level, cfg.prob_seq)
    _write_or_print(_matrix_csv(matrix), args.out)
    return 0


def _matrix_csv(matrix: TruncatedMatrix) -> Iterator[str]:
    """The CSV text of a truncated matrix, about CSV_BLOCK lines at a time.

    As in render._csv_blocks, each line is assembled from word tables: one
    of the f"{i}," fields for the state and target columns, and one of the
    formatted probabilities, of which there are at most 2*depth distinct
    rung values.  The tables are kept transposed, so a block is filled one
    contiguous word column at a time, and its NUL padding is dropped at once.
    """
    import numpy as np

    from . import render

    yield "from,to,prob\n"
    states = render._index_words(matrix.size).T.copy()
    values = np.unique(matrix.probs)
    probs = render._word_rows([fmt(v) + "\n" for v in values.tolist()]).T.copy()
    indptr = matrix.indptr
    counts = np.diff(indptr)
    bounds = np.searchsorted(indptr, range(0, len(matrix.targets), CSV_BLOCK)).tolist()
    for r0, r1 in zip(bounds, bounds[1:] + [matrix.size]):
        lo, hi = indptr[r0], indptr[r1]
        block = np.concatenate(
            (
                np.repeat(states[:, r0:r1], counts[r0:r1], axis=1),
                states.take(matrix.targets[lo:hi], axis=1),
                probs.take(np.searchsorted(values, matrix.probs[lo:hi]), axis=1),
            )
        )
        yield block.T.tobytes().translate(None, b"\0").decode("ascii")
    yield f"# leak from state {matrix.leak_state}: {fmt(matrix.leak_prob)}\n"


def cmd_chain_simulate(args: argparse.Namespace) -> int:
    from . import chain
    from .rng import SplitMix64

    cfg = _load(args)
    summary = chain.simulate(
        args.start, args.steps, cfg.prob_seq, SplitMix64(cfg.seed)
    )
    print(f"start {summary.start}")
    print(f"steps {summary.steps}")
    print(f"final_state {summary.final_state}")
    print(f"max_state {summary.max_state}")
    print(f"returns_to_zero {summary.returns_to_zero}")
    if args.verbose:
        for state in sorted(summary.visits):
            print(f"visits[{state}] {summary.visits[state]}")
    return 0


def cmd_chain_classify(args: argparse.Namespace) -> int:
    from . import chain

    cfg = _load(args)
    result = chain.classify(cfg.prob_seq)
    print(f"{result.kind.value}: {result.reason}")
    return 0


def cmd_chain_stationary(args: argparse.Namespace) -> int:
    from . import chain

    cfg = _load(args)
    measure = chain.stationary_measure(args.level, cfg.prob_seq, args.threshold)
    print(f"level {measure.level}")
    print(f"partial_sum {fmt(measure.partial_sum)}")
    print(f"unsummable {str(measure.unsummable).lower()}")
    print(f"residual {fmt(chain.stationarity_residual(args.level, cfg.prob_seq))}")
    return 0


def cmd_spectrum_orbit(args: argparse.Namespace) -> int:
    from . import spectrum

    cfg = _load(args)
    lam = _point(args)
    levels = args.levels if args.levels is not None else cfg.max_level
    values, escaped_at = spectrum._walk(cfg.prob_seq, levels, cfg.base.coeffs, lam=lam)
    for n, value in enumerate(values):
        print(f"{n} {fmt_complex(value)}")
    if escaped_at is not None:
        print(f"escaped_at {escaped_at}")
    return 0


def cmd_spectrum_member(args: argparse.Namespace) -> int:
    from . import spectrum

    cfg = _load(args)
    lam = _point(args)
    esc_cfg = cfg.escape_config()
    verdict, result = spectrum._point_spectrum(
        lam, cfg.prob_seq, esc_cfg, args.bound, need_E=True
    )
    if result.escaped:
        print(f"E escaped at level {result.level}")
    else:
        print("E inside")
    line = f"point_spectrum {verdict.status}"
    if verdict.level is not None:
        line += f" at level {verdict.level}"
    print(f"{line} (running max {fmt(verdict.bound_value)})")
    return 0


def cmd_spectrum_connectivity(args: argparse.Namespace) -> int:
    from . import spectrum

    cfg = _load(args)
    result = spectrum.non_connectedness_test(cfg.prob_seq, args.levels)
    if result.non_connected:
        print(f"NonConnected at level {result.level} (modulus {fmt(result.modulus)})")
    else:
        print("Inconclusive")
    return 0


def cmd_spectrum_residual(args: argparse.Namespace) -> int:
    from . import spectrum

    cfg = _load(args)
    res = spectrum.eigen_residual(_point(args), cfg.prob_seq, args.level)
    print(f"value {fmt(res.value)}")
    print(f"interior {fmt(res.interior)}")
    print(f"bound {fmt(res.bound)}")
    print(f"sup_norm {fmt(res.sup_norm)}")
    return 0


def cmd_render(args: argparse.Namespace) -> int:
    from . import render

    cfg = _load(args)
    grid, fiber, out = cfg.grid, (cfg.prob_seq, cfg.escape_config()), Path(args.out)
    if args.format == "ppm":
        (inside,) = render.write_ppms(grid, [fiber], [out], workers=args.workers)
    else:
        buf = render.scan_grid(grid, *fiber, workers=args.workers)
        inside = buf.inside_count()
        if args.format == "png":
            out.write_bytes(render.write_png(buf))
        else:  # write_csv's text, as the ASCII blocks it is built from
            with open(out, "wb") as fh:
                fh.writelines(render._csv_blocks(buf.cells))
    print(f"wrote {out} ({grid.pixels_x}x{grid.pixels_y}, {inside} inside)")
    return 0


def cmd_repro(args: argparse.Namespace) -> int:
    numbers = figures.parse_target(args.target)
    paths = figures.repro_panels(
        numbers, args.out_dir, workers=args.workers, pixels=args.pixels
    )
    for path in paths:
        print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# parser


@functools.cache  # parsing leaves the parser as it was, and its defaults are immutable
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fibmachine",
        description="Fibonacci-base adding machine: words, chains, spectra, pictures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON run config path")

    p = sub.add_parser("encode", help="greedy digits of an integer")
    p.add_argument("number", type=int)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="integer value of a digit word")
    p.add_argument("word")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("succ", help="successor word (increment)")
    p.add_argument("word")
    p.add_argument("--method", choices=("both", "carry", "transducer"), default="both")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=cmd_succ)

    chain_p = sub.add_parser("chain", help="the stochastic machine as a Markov chain")
    chain_sub = chain_p.add_subparsers(dest="subcommand", required=True)

    p = chain_sub.add_parser("row", help="one transition row, numeric and symbolic")
    p.add_argument("state", type=int)
    add_config(p)
    p.set_defaults(func=cmd_chain_row)

    p = chain_sub.add_parser("matrix", help="truncated transition matrix as CSV")
    p.add_argument("level", type=int)
    add_config(p)
    p.add_argument("--out")
    p.set_defaults(func=cmd_chain_matrix)

    p = chain_sub.add_parser("simulate", help="sample a trajectory")
    p.add_argument("--start", type=int, default=0)
    p.add_argument("--steps", type=int, default=1000)
    p.add_argument("--seed", type=int)
    p.add_argument("--verbose", action="store_true")
    add_config(p)
    p.set_defaults(func=cmd_chain_simulate)

    p = chain_sub.add_parser("classify", help="transience/recurrence verdict")
    add_config(p)
    p.set_defaults(func=cmd_chain_classify)

    p = chain_sub.add_parser("stationary", help="truncated stationary weights")
    p.add_argument("level", type=int)
    p.add_argument("--threshold", type=float, default=1e6)
    add_config(p)
    p.set_defaults(func=cmd_chain_stationary)

    spec_p = sub.add_parser("spectrum", help="q-recursion and membership tests")
    spec_sub = spec_p.add_subparsers(dest="subcommand", required=True)

    p = spec_sub.add_parser("orbit", help="q values at the scale indices")
    p.add_argument("re", type=float)
    p.add_argument("im", type=float)
    p.add_argument("--levels", type=int)
    add_config(p)
    p.set_defaults(func=cmd_spectrum_orbit)

    p = spec_sub.add_parser("member", help="membership in E and the point spectrum")
    p.add_argument("re", type=float)
    p.add_argument("im", type=float)
    p.add_argument("--bound", type=float, default=1e6)
    add_config(p)
    p.set_defaults(func=cmd_spectrum_member)

    p = spec_sub.add_parser("connectivity", help="sufficient non-connectedness test")
    p.add_argument("--levels", type=int, default=40)
    add_config(p)
    p.set_defaults(func=cmd_spectrum_connectivity)

    p = spec_sub.add_parser("residual", help="truncated eigenvector residual")
    p.add_argument("re", type=float)
    p.add_argument("im", type=float)
    p.add_argument("level", type=int)
    add_config(p)
    p.set_defaults(func=cmd_spectrum_residual)

    p = sub.add_parser("render", help="rasterize the escape set")
    add_config(p)
    p.add_argument("--out", default="render.ppm")
    p.add_argument("--format", choices=("ppm", "png", "csv"), default="ppm")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("repro", help="regenerate committed figure panels")
    p.add_argument("target", nargs="?", default="all",
                   help="all, a panel number, panelNN, or figN-M")
    p.add_argument("--out-dir", default="panels_out")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--pixels", type=int, help="override the square resolution")
    p.set_defaults(func=cmd_repro)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CapacityError, BudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (FibmachineError, ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # an output path that cannot be written
        where = exc.filename or "the output"
        print(f"error: cannot write {where}: {exc.strerror or exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
