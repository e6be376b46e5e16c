"""The benchmark workloads: inputs from a seed, passes, output checks.

A workload runs two parts back to back as one pass: `raster` is `panels`
then `grid-csv`, `scalar` is `analysis` then `words`.  Every part builds its
inputs from the seed with Python's own `random` (never with the program),
writes any input files into its work directory, and then runs passes.  `run_untraced` goes through `cli.main` wherever one
CLI call does a whole part of the pass; per-value operations (one word, one
lambda) call the library functions the CLI handlers call, because a
`cli.main` per value would time argparse (about 3 ms a call) instead of the
layer.  `run_traced` makes the same public calls one by one, each inside a
span.  `check` compares a pass's outputs with expectations and tallies them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from fibmachine import chain, cli, config, figures, numeration, odometer, render, spectrum
from fibmachine.rng import SplitMix64

from tracing import NullTracer

HERE = Path(__file__).resolve().parent
NULL = NullTracer()

PANEL_COUNT = 15
PANEL_PIXELS = 800


@dataclass
class Tally:
    """Operations attempted, failed (raised) and wrong (failed a check).

    A run counts the operations of a fixed number of passes, so that its
    counts depend on the seed and not on how many passes fit in its time.
    Later passes are checked into a second tally, which joins the counts
    (`join_if_wrong`) only if one of their outputs is wrong: a correct later
    pass repeats counted inputs, raises included (grid-csv moves on to
    further panels, which must all check out).
    """

    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    problems: list[str] = field(default_factory=list)

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.wrong += 1
            self.problems.append(what)

    def join_if_wrong(self, other: "Tally") -> None:
        if other.wrong:
            self.attempted += other.attempted
            self.failed += other.failed
            self.wrong += other.wrong
            self.problems += other.problems

    @property
    def correct(self) -> bool:
        return self.wrong == 0


def cli_call(argv: list[str]) -> tuple[int, str]:
    """cli.main with standard output captured; error messages still reach stderr."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


def panel_file(root: Path, number: int) -> Path:
    return root / "src" / "fibmachine" / "panels" / f"panel{number:02d}.json"


def seed_digests(kind: str) -> dict[str, str]:
    """SHA-256 per panel at 800x800, recorded at the seed commit: "ppm" or "cells"."""
    return json.loads((HERE / "panel_sha256.json").read_text(encoding="utf-8"))[kind]


def cells_digest(buf) -> str:
    return hashlib.sha256(np.ascontiguousarray(buf.cells, dtype="<i4").tobytes()).hexdigest()


def zeckendorf(n: int) -> str:
    """Greedy Fibonacci-base word of n (F_0 = 1, F_1 = 2), independent of the program."""
    fibs = [1, 2]
    while fibs[-1] <= n:
        fibs.append(fibs[-1] + fibs[-2])
    digits = []
    for f in reversed(fibs):
        if f <= n:
            digits.append("1")
            n -= f
        else:
            digits.append("0")
    return "".join(digits).lstrip("0")


# ---------------------------------------------------------------------------


class Panels:
    """`fibmachine repro all --pixels 800`: all 15 committed panels to PPM.

    The inputs are the committed panel configs, so the seed does not change
    them.  Each PPM's SHA-256 must equal the one recorded at the seed commit.
    """

    name = "panels"

    def __init__(self, seed: int, work: Path, root: Path) -> None:
        self.out_dir = work / "panels"
        self.expected = seed_digests("ppm")
        self.argv = ["repro", "all", "--pixels", str(PANEL_PIXELS), "--out-dir", str(self.out_dir)]
        self.config_paths: list[Path] = []
        self.panel_configs = PANEL_COUNT

    def run_untraced(self):
        return cli_call(self.argv)[0]

    def run_traced(self, tr):
        self.out_dir.mkdir(parents=True, exist_ok=True)
        for number in range(1, PANEL_COUNT + 1):
            cfg = tr.call("figures.panel_config", figures.panel_config, number)
            g = cfg.grid
            grid = render.GridSpec(g.center, g.width, g.height, PANEL_PIXELS, PANEL_PIXELS)
            lam = tr.call("render.lam_array", grid.lam_array)
            levels = tr.call(
                "spectrum.escape_levels",
                spectrum.escape_levels, lam, cfg.prob_seq, cfg.escape_config(),
            )
            run = cfg.max_level + 1 if (levels == spectrum.INSIDE).any() else int(levels.max()) + 1
            tr.count("spectrum.escape_levels.pixels", levels.size)
            tr.count("spectrum.escape_levels.levels_run", run)
            tr.count("spectrum.escape_levels.pixel_levels", levels.size * run)
            tr.count(
                "spectrum.escape_levels.active_pixel_levels",
                int(np.where(levels == spectrum.INSIDE, run, levels + 1).sum()),
            )
            buf = render.IterBuffer(grid.pixels_x, grid.pixels_y, levels)
            data = tr.call("render.write_ppm", render.write_ppm, buf)
            path = self.out_dir / f"{figures.panel_name(number)}.ppm"
            tr.call("io.write_file", path.write_bytes, data)
        return 0

    def check(self, rc, tally: Tally) -> None:
        for number in range(1, PANEL_COUNT + 1):
            name = f"panel{number:02d}"
            path = self.out_dir / f"{name}.ppm"
            digest = hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None
            tally.expect(rc == 0 and digest == self.expected[name], f"{name}.ppm sha256 {digest}")
            if path.exists():
                path.unlink()


class GridCsv:
    """`fibmachine render --format csv` at 800x800, then `render.parse_csv`.

    The seed orders the 15 committed panels; pass k renders the k-th panel in
    that order, so a run's median pass time covers many panels rather than
    one seed-chosen panel.  The parsed cells must equal the scanned cells,
    whose SHA-256 per panel was recorded at the seed commit (the panels
    workload pins the same kernel output through the PPM bytes).
    """

    name = "grid-csv"

    def __init__(self, seed: int, work: Path, root: Path) -> None:
        self.dir = work / "grid-csv"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.order = random.Random(seed).sample(range(1, PANEL_COUNT + 1), PANEL_COUNT)
        self.config_paths = []
        for number in range(1, PANEL_COUNT + 1):
            doc = json.loads(panel_file(root, number).read_text(encoding="utf-8"))
            doc["grid"]["pixels_x"] = doc["grid"]["pixels_y"] = PANEL_PIXELS
            path = self.dir / f"panel{number:02d}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            self.config_paths.append(path)
        self.panel_configs = 0
        self.csv = self.dir / "grid.csv"
        self.passes = 0
        self.expected = seed_digests("cells")

    def _next_config(self) -> tuple[int, Path]:
        number = self.order[self.passes % PANEL_COUNT]
        self.passes += 1
        return number, self.config_paths[number - 1]

    def run_untraced(self):
        number, path = self._next_config()
        rc, _out = cli_call(
            ["render", "--config", str(path), "--format", "csv", "--out", str(self.csv)]
        )
        parsed = render.parse_csv(self.csv.read_text(encoding="utf-8"))
        return number, rc, parsed

    def run_traced(self, tr):
        number, path = self._next_config()
        cfg = tr.call("config.load_config", config.load_config, path)
        buf = tr.call(
            "render.scan_grid",
            render.scan_grid, cfg.grid, cfg.prob_seq, cfg.escape_config(), workers=1,
        )
        text = tr.call("render.write_csv", render.write_csv, buf)
        tr.call("io.write_file", self.csv.write_text, text, encoding="utf-8")
        text = tr.call("io.read_file", self.csv.read_text, encoding="utf-8")
        parsed = tr.call("render.parse_csv", render.parse_csv, text)
        tr.count("render.pixels", buf.width * buf.height)
        tr.count("render.write_csv.bytes", len(text.encode("utf-8")))
        return number, 0, parsed

    def check(self, out, tally: Tally) -> None:
        number, rc, parsed = out
        name = f"panel{number:02d}"
        ok = rc == 0 and cells_digest(parsed) == self.expected[name]
        tally.expect(ok, f"{name}: parsed CSV cells differ from the scanned cells")


class Analysis:
    """The non-raster CLI tour for a null-recurrent and a transient sequence.

    Per sequence: `chain simulate`, `chain matrix 20`, `chain stationary 20`
    and `spectrum connectivity` through the CLI; `beta_eigen_residual(20)`;
    `in_E` + `in_point_spectrum` at seeded lambdas; `eigen_residual` at
    seeded lambdas.  All lambdas are uniform in the panel window [-2.5, 2.5]^2.
    """

    name = "analysis"
    SEQUENCES = {
        "null": {"variant": "constant_tail", "prefix": [1.0], "param": 0.5},
        "transient": {
            "variant": "power_law_complement",
            "prefix": [],
            "param": {"c": 0.5, "alpha": 2.0},
        },
    }
    # Seed-commit verdicts; ROADMAP requires that classification verdicts do not change.
    CONNECTIVITY = {"null": ("NonConnected", 4), "transient": ("Inconclusive", None)}
    STEPS = 50_000
    LEVEL = 20
    RESIDUAL_LEVEL = 12
    MEMBER_POINTS = 2_000
    RESIDUAL_POINTS = 100
    MEMBER_BOUND = 1e6
    WINDOW = 2.5
    RESIDUAL_TOLERANCE = 1e-12

    def __init__(self, seed: int, work: Path, root: Path) -> None:
        self.dir = work / "analysis"
        self.dir.mkdir(parents=True, exist_ok=True)
        rng = random.Random(seed)
        self.inputs = {}
        self.config_paths = []
        for name, prob_seq in self.SEQUENCES.items():
            path = self.dir / f"{name}.json"
            doc = {"prob_seq": prob_seq, "seed": rng.getrandbits(63)}
            path.write_text(json.dumps(doc), encoding="utf-8")
            self.config_paths.append(path)
            self.inputs[name] = {
                "config": path,
                "member": [self._lam(rng) for _ in range(self.MEMBER_POINTS)],
                "residual": [self._lam(rng) for _ in range(self.RESIDUAL_POINTS)],
            }
        self.panel_configs = 0
        self.matrix_csv = self.dir / "matrix.csv"

    def _lam(self, rng: random.Random) -> complex:
        w = self.WINDOW
        return complex(rng.uniform(-w, w), rng.uniform(-w, w))

    def _points(self, tr, inputs, run_cfg) -> dict:
        p = run_cfg.prob_seq
        esc = run_cfg.escape_config()
        member = []
        for lam in inputs["member"]:
            e = tr.call("spectrum.in_E", spectrum.in_E, lam, p, esc)
            s = tr.call("spectrum.in_point_spectrum", spectrum.in_point_spectrum, lam, p, esc, self.MEMBER_BOUND)
            member.append((lam, e.escaped, s.status))
        residual = []
        for lam in inputs["residual"]:
            try:
                r = tr.call("spectrum.eigen_residual", spectrum.eigen_residual, lam, p, self.RESIDUAL_LEVEL)
            except IndexError:
                # Known defect: the q orbit hits CLAMP before the level and
                # q_values_upto indexes past it.  Counted as a failed call.
                tr.count("spectrum.eigen_residual.failed")
                residual.append((lam, None))
            else:
                residual.append((lam, (r.value, r.bound)))
        return {"member": member, "residual": residual}

    def run_untraced(self):
        out = {}
        for name, inputs in self.inputs.items():
            cfg = str(inputs["config"])
            rec = {}
            rec["simulate"] = cli_call(["chain", "simulate", "--steps", str(self.STEPS), "--config", cfg])
            rec["matrix"] = cli_call(
                ["chain", "matrix", str(self.LEVEL), "--config", cfg, "--out", str(self.matrix_csv)]
            )
            rec["stationary"] = cli_call(["chain", "stationary", str(self.LEVEL), "--config", cfg])
            rec["connectivity"] = cli_call(["spectrum", "connectivity", "--config", cfg])
            run_cfg = config.load_config(inputs["config"])
            rec["beta"] = chain.beta_eigen_residual(self.LEVEL, run_cfg.prob_seq)
            rec.update(self._points(NULL, inputs, run_cfg))
            out[name] = self._from_cli(rec)
        return out

    def _from_cli(self, rec: dict) -> dict:
        """Reduce CLI text to the values `check` compares."""
        def fields(result):
            rc, text = result
            return rc, dict(line.split(" ", 1) for line in text.splitlines() if " " in line)

        rc_sim, sim = fields(rec["simulate"])
        rc_mat, _ = fields(rec["matrix"])
        rc_st, st = fields(rec["stationary"])
        rc_conn, conn_text = rec["connectivity"][0], rec["connectivity"][1].split()
        if conn_text[:1] == ["NonConnected"]:
            conn = ("NonConnected", int(conn_text[3]))
        else:
            conn = (conn_text[0] if conn_text else "", None)
        lines = self.matrix_csv.read_text(encoding="utf-8").splitlines() if rc_mat == 0 else []
        size = numeration.FIB64[self.LEVEL]
        return {
            "rc": max(rc_sim, rc_mat, rc_st, rc_conn),
            "steps": int(sim.get("steps", -1)),
            "final_state": int(sim.get("final_state", -1)),
            "max_state": int(sim.get("max_state", -1)),
            "matrix_ok": bool(lines) and lines[0] == "from,to,prob"
            and lines[-1].startswith(f"# leak from state {size - 1}:"),
            "stationarity": float(st.get("residual", "nan")),
            "beta": rec["beta"],
            "connectivity": conn,
            "member": rec["member"],
            "residual": rec["residual"],
        }

    def run_traced(self, tr):
        out = {}
        for name, inputs in self.inputs.items():
            run_cfg = tr.call("config.load_config", config.load_config, inputs["config"])
            p = run_cfg.prob_seq
            summary = tr.call(
                f"chain.simulate.{name}", chain.simulate, 0, self.STEPS, p, SplitMix64(run_cfg.seed)
            )
            tr.count(f"chain.simulate.{name}.steps", summary.steps)
            tr.count(f"chain.simulate.{name}.max_state", summary.max_state)
            matrix = tr.call("chain.transition_matrix", chain.transition_matrix, self.LEVEL, p)
            tr.call("chain.stationary_measure", chain.stationary_measure, self.LEVEL, p)
            stat = tr.call("chain.stationarity_residual", chain.stationarity_residual, self.LEVEL, p)
            conn = tr.call("spectrum.non_connectedness_test", spectrum.non_connectedness_test, p, 40)
            beta = tr.call("chain.beta_eigen_residual", chain.beta_eigen_residual, self.LEVEL, p)
            rec = {
                "rc": 0,
                "steps": summary.steps,
                "final_state": summary.final_state,
                "max_state": summary.max_state,
                "matrix_ok": matrix.size == numeration.FIB64[self.LEVEL]
                and matrix.leak_state == matrix.size - 1,
                "stationarity": stat,
                "beta": beta,
                "connectivity": (conn.status, conn.level),
            }
            rec.update(self._points(tr, inputs, run_cfg))
            out[name] = rec
        return out

    def check(self, out, tally: Tally) -> None:
        tol = self.RESIDUAL_TOLERANCE
        for name, rec in out.items():
            tally.expect(rec["rc"] == 0, f"{name}: a CLI command exited {rec['rc']}")
            tally.expect(
                rec["steps"] == self.STEPS and 0 <= rec["final_state"] <= rec["max_state"],
                f"{name}: simulate summary {rec['steps']} {rec['final_state']} {rec['max_state']}",
            )
            tally.expect(rec["matrix_ok"], f"{name}: transition matrix output")
            tally.expect(rec["stationarity"] <= tol, f"{name}: stationarity residual {rec['stationarity']}")
            tally.expect(rec["beta"] <= tol, f"{name}: beta eigen residual {rec['beta']}")
            tally.expect(
                rec["connectivity"] == self.CONNECTIVITY[name],
                f"{name}: connectivity {rec['connectivity']}",
            )
            for lam, e_escaped, status in rec["member"]:
                tally.expect(
                    status != "inside" or not e_escaped,
                    f"{name}: point spectrum inside but E escaped at {lam}",
                )
            for lam, res in rec["residual"]:
                tally.attempted += 1
                if res is None:
                    tally.failed += 1
                elif not res[0] <= res[1]:
                    tally.wrong += 1
                    tally.problems.append(f"{name}: eigen residual {res[0]} over bound {res[1]} at {lam}")


class Words:
    """Encode, decode and both successor routes over three word populations.

    A contiguous block of small integers (about 21-digit words), seeded
    uniform 63-bit integers (about 89-digit words with long copy tails), and
    order-3 BaseDef((1, 1, 1)) encode/decode round trips.
    """

    name = "words"
    SHORT = 5_000
    SHORT_MAX = 100_000
    LONG = 1_500
    ORDER3 = 200
    TRIBONACCI = numeration.BaseDef((1, 1, 1), "tribonacci")

    def __init__(self, seed: int, work: Path, root: Path) -> None:
        rng = random.Random(seed)
        start = rng.randrange(0, self.SHORT_MAX - self.SHORT)
        self.short = list(range(start, start + self.SHORT))
        self.long = [rng.getrandbits(63) for _ in range(self.LONG)]
        self.order3 = [rng.getrandbits(63) for _ in range(self.ORDER3)]
        self.config_paths = []
        self.panel_configs = 0
        self.expected: dict[int, tuple[str, str]] = {}

    def _words(self, tr, numbers, size):
        enc, dec = f"numeration.encode.{size}", f"numeration.decode.{size}"
        recording = not isinstance(tr, NullTracer)
        out = []
        for n in numbers:
            word = tr.call(enc, numeration.encode, n)
            value = tr.call(dec, numeration.decode, word)
            carry, _trace = tr.call("odometer.succ_carry", odometer.succ_carry, word)
            trans, edges = tr.call("odometer.succ_transducer", odometer.succ_transducer, word)
            if recording:
                tr.count("odometer.succ_transducer.edges", len(edges))
                tr.count(
                    "odometer.succ_transducer.copy_edges",
                    sum(1 for e in edges if e.src == e.dst == odometer.STATE_COPY),
                )
            out.append((n, word, value, carry, trans))
        return out

    def run_traced(self, tr):
        base = self.TRIBONACCI
        order3 = []
        for n in self.order3:
            word = tr.call("numeration.encode.order3", numeration.encode, n, base)
            order3.append((n, tr.call("numeration.decode.order3", numeration.decode, word, base)))
        return self._words(tr, self.short, "short") + self._words(tr, self.long, "long"), order3

    def run_untraced(self):
        return self.run_traced(NULL)

    def check(self, out, tally: Tally) -> None:
        fib_words, order3 = out
        for n, word, value, carry, trans in fib_words:
            if n not in self.expected:
                self.expected[n] = (zeckendorf(n), zeckendorf(n + 1))
            want, want_next = self.expected[n]
            tally.expect(
                word == want and value == n and carry == want_next and trans == want_next,
                f"word {n}: {word} {value} {carry} {trans}",
            )
        for n, value in order3:
            tally.expect(value == n, f"order-3 round trip {n} -> {value}")


PARTS = {cls.name: cls for cls in (Panels, GridCsv, Analysis, Words)}
WORKLOADS = {"raster": ("panels", "grid-csv"), "scalar": ("analysis", "words")}


class Workload:
    """Parts run one after the other as one pass; each part's time is kept.

    `run_untraced` calls `between`, if given, after each part, outside the
    part's time.
    """

    def __init__(self, name: str, parts: dict) -> None:
        self.name = name
        self.parts = {part: parts[part] for part in WORKLOADS[name]}
        self.config_paths = [p for part in self.parts.values() for p in part.config_paths]
        self.panel_configs = max(part.panel_configs for part in self.parts.values())
        self.part_times: dict[str, list[float]] = {part: [] for part in self.parts}

    def run_untraced(self, between=None):
        outs = []
        for name, part in self.parts.items():
            t0 = perf_counter()
            outs.append(part.run_untraced())
            self.part_times[name].append(perf_counter() - t0)
            if between:
                between()
        return outs

    def run_traced(self, tr):
        return [part.run_traced(tr) for part in self.parts.values()]

    def check(self, outs, tally: Tally) -> None:
        for part, out in zip(self.parts.values(), outs):
            part.check(out, tally)
