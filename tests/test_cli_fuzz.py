"""CLI fuzz: generated argv and JSON configs only ever end in exit code 0, 2 or 3.

Every subcommand gets argv drawn from pools of valid, boundary and invalid
values, and a config file drawn from small documents mutated with NaN, inf,
wrong types and unknown keys.  argparse's SystemExit(2) counts as 2; any
other exception is a traceback at the boundary and fails the test.  Sizes
are capped (levels <= 12, steps <= 1000, pixels <= 8) or past a budget that
is refused before any work, and the seed is fixed, so the run is
deterministic and short.
"""

import json
import random

import pytest

from fibmachine.cli import main

SEED = 20261018
CASES = 500

INTS = ["0", "1", "2", "7", "-1", "-3", str(2**64), str(-(2**70)), "1.5", "abc", ""]
LEVELS = ["-1", "0", "1", "2", "5", "12", "40", "100", "x"]
LEVELS_OR_HUGE = LEVELS + [str(10**6)]  # past the level budget
FLOATS = ["0", "-0.5", "0.3", "1", "2.5", "1e308", "-1e308", "nan", "inf", "-inf", "x"]
WORDS = ["", "0", "1", "10", "101", "11", "1001", "100101", "2", "abc", "1" * 70, "10" * 40]
NASTY = [float("nan"), float("inf"), float("-inf"), 1e308, 10**400, -1, 0, 2]
NASTY += ["0.5", None, True, [], {}, [0.5]]


def pick(rng, good, bad=NASTY):
    """Mostly one of the good values, sometimes one of the bad ones."""
    return rng.choice(good) if rng.random() < 0.8 else rng.choice(bad)


def prob_seq_doc(rng):
    variant = pick(
        rng,
        ["explicit", "constant_tail", "power_law_complement", "geometric_decay"],
        ["CONSTANT_TAIL", "bogus", 3, None],
    )
    doc = {"variant": variant}
    if rng.random() < 0.5:
        doc["prefix"] = pick(
            rng, [[], [0.9, 0.5], [1.0], [0.9] * 3], [[rng.choice(NASTY)], "0.5", 0.5, None]
        )
    if variant in ("power_law_complement", "geometric_decay") and rng.random() < 0.9:
        second = "alpha" if variant == "power_law_complement" else "rho"
        key = pick(rng, [second], ["alpha", "rho", "x"])
        doc["param"] = {"c": pick(rng, [0.5, 0.9]), key: pick(rng, [0.3, 0.5, 2.0])}
        if rng.random() < 0.05:
            doc["param"]["extra"] = 1
    elif rng.random() < 0.7:
        doc["param"] = pick(rng, [0.5, 1.0, 0.25])
    if rng.random() < 0.05:
        doc["unknown"] = 1
    return doc


def config_doc(rng, pixels_cap=8):
    """A small run config, mutated; the grid always stays within `pixels_cap`."""
    doc = {}
    if rng.random() < 0.9:
        doc["prob_seq"] = prob_seq_doc(rng)
    grid = {"pixels": rng.randint(1, pixels_cap)}
    for key in ("center", "width", "height", "pixels_x", "pixels_y"):
        if rng.random() < 0.3:
            if key.startswith("pixels"):
                grid[key] = pick(rng, [1, pixels_cap], [0, -2, 4.0, "4", True, None])
            elif key == "center":
                bad = [[0.0], ["a", 1], [float("nan"), 0], *NASTY]
                grid[key] = pick(rng, [0.0, [0.5, -0.5]], bad)
            else:
                grid[key] = pick(rng, [4.0, 0.5])
    if rng.random() < 0.05:
        grid["unknown"] = 1
    doc["grid"] = grid
    if rng.random() < 0.6:
        escape = {}
        for key, good in (
            ("radius", [5.0, 1.5]),
            ("margin", [1.0, 0.0]),
            ("max_level", [6, 12]),
            ("early_exit", [False, True]),
        ):
            if rng.random() < 0.5:
                escape[key] = pick(rng, good, [10**9, *NASTY])
        if rng.random() < 0.05:
            escape["unknown"] = 1
        doc["escape"] = pick(rng, [escape], [[], "x", 5])
    if rng.random() < 0.3:
        doc["base"] = pick(
            rng,
            [{"coeffs": [1, 1], "name": "fib"}, {"coeffs": [1, 1, 1]}, {"coeffs": [2, 1]}],
            [
                {"coeffs": [1.0, 1]},
                {"coeffs": "11"},
                {"coeffs": []},
                {"coeffs": [0, 1]},
                {"coeffs": [-1, 2]},
                {"name": "x"},
                {"coeffs": [1, 1], "extra": 1},
                "fib",
                [1, 1],
                None,
            ],
        )
    if rng.random() < 0.3:
        doc["seed"] = pick(rng, [7, -7, 2**70], [1.5, "7", True, None, float("nan")])
    if rng.random() < 0.05:
        doc["unknown"] = 1
    return pick(rng, [doc], [[doc], "doc", None])


def argv_for(rng, tmp_path, cfg):
    def opt(*choices):
        return rng.choice([[], *choices])

    config = opt(["--config", cfg])
    command = rng.choice(
        [
            "encode",
            "decode",
            "succ",
            "row",
            "matrix",
            "simulate",
            "classify",
            "stationary",
            "orbit",
            "member",
            "connectivity",
            "residual",
            "render",
            "repro",
            "junk",
        ]
    )
    point = [rng.choice(FLOATS), rng.choice(FLOATS)]
    if command == "encode":
        return ["encode", rng.choice(INTS)]
    if command == "decode":
        return ["decode", rng.choice(WORDS)]
    if command == "succ":
        method = opt(["--method", rng.choice(["carry", "transducer", "both", "x"])])
        return ["succ", rng.choice(WORDS), *method, *opt(["--verbose"])]
    if command == "row":
        return ["chain", "row", rng.choice(INTS), *config]
    if command == "matrix":
        # a file in a missing directory cannot be written
        out = opt(["--out", str(tmp_path / "m.csv")], ["--out", str(tmp_path / "no" / "m.csv")])
        return ["chain", "matrix", rng.choice(LEVELS), *config, *out]
    if command == "simulate":
        return [
            "chain",
            "simulate",
            *opt(["--start", rng.choice(INTS)]),
            *opt(["--steps", rng.choice(["-5", "0", "1", "1000", str(10**9), "x"])]),
            *opt(["--seed", rng.choice(INTS)]),
            *opt(["--verbose"]),
            *config,
        ]
    if command == "classify":
        return ["chain", "classify", *config]
    if command == "stationary":
        threshold = opt(["--threshold", rng.choice(FLOATS)])
        return ["chain", "stationary", rng.choice(LEVELS), *threshold, *config]
    if command == "orbit":
        return ["spectrum", "orbit", *point, *opt(["--levels", rng.choice(LEVELS_OR_HUGE)]), *config]
    if command == "member":
        return ["spectrum", "member", *point, *opt(["--bound", rng.choice(FLOATS)]), *config]
    if command == "connectivity":
        return ["spectrum", "connectivity", *opt(["--levels", rng.choice(LEVELS_OR_HUGE)]), *config]
    if command == "residual":
        return ["spectrum", "residual", *point, rng.choice(LEVELS), *config]
    if command == "render":
        # without a config the grid is the default 800x800
        return [
            "render",
            "--config",
            cfg,
            "--out",
            str(tmp_path / "r.out"),
            *opt(["--format", rng.choice(["ppm", "csv", "png", "gif"])]),
            *opt(["--workers", rng.choice(["1", "2", "0", "-1", "x"])]),
        ]
    if command == "repro":
        target = opt([rng.choice(["all", "1", "panel03", "fig4-1", "fig9-1", "99", "0", "x"])])
        return [
            "repro",
            *target,
            "--out-dir",
            str(tmp_path / "panels"),
            "--pixels",
            rng.choice(["-1", "0", "1", "8"]),
            *opt(["--workers", rng.choice(["1", "2", "0"])]),
        ]
    return rng.choice([[], ["junk"], ["chain"], ["spectrum", "nope"], ["encode"], ["--help-me"]])


def exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def test_cli_only_exits_0_2_or_3(tmp_path, capsys):
    rng = random.Random(SEED)
    cfg = tmp_path / "cfg.json"
    seen = set()
    for case in range(CASES):
        roll = rng.random()
        if roll < 0.03:
            cfg.write_text(rng.choice(["{not json", "", "[1, 2", "NaN"]))
        else:
            cfg.write_text(json.dumps(config_doc(rng)))
        argv = argv_for(rng, tmp_path, str(cfg))
        code = exit_code(argv)
        text = capsys.readouterr()
        assert code in (0, 2, 3), (case, argv, cfg.read_text(), text.err)
        seen.add(code)
    assert seen == {0, 2, 3}


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "doc, field",
    [
        ({"prob_seq": {"variant": "constant_tail", "param": NAN}}, "tail value"),
        ({"prob_seq": {"variant": "constant_tail", "param": "0.5"}}, "prob_seq param must be"),
        ({"prob_seq": {"variant": "explicit", "prefix": [True]}}, "prob_seq prefix entry must be"),
        (
            {"prob_seq": {"variant": "power_law_complement", "param": {"c": "0.5", "alpha": 2}}},
            "prob_seq param c must be a number",
        ),
        (
            {"prob_seq": {"variant": "geometric_decay", "param": {"c": 0.5, "rho": 10**400}}},
            "prob_seq param rho is out of the float range",
        ),
        (
            {"prob_seq": {"variant": "geometric_decay", "param": {"c": 0.5}}},
            "geometric_decay needs param",
        ),
        ({"grid": {"width": "5"}}, "grid width must be a number"),
        ({"grid": {"center": ["a", 1]}}, "grid center re must be a number"),
        ({"grid": {"center": True}}, "grid center must be"),
        ({"grid": {"pixels": True}}, "grid pixels must be an integer"),
        ({"escape": {"radius": NAN}}, "escape radius"),
        ({"escape": {"radius": [2.0]}}, "escape radius must be a number"),
        ({"escape": {"margin": INF}}, "margin must be nonnegative and finite"),
        ({"escape": {"max_level": 1.5}}, "escape max_level must be an integer"),
        ({"escape": []}, "escape must be a JSON object"),
        ({"base": "fib"}, "base must be a JSON object"),
        ({"seed": "7"}, "seed must be an integer"),
        ({"unknown": 1}, "unknown config keys"),
        (
            {"prob_seq": {"variant": "power_law_complement", "param": {"c": INF, "alpha": 2}}},
            "c must be a finite real number",
        ),
        (
            {"prob_seq": {"variant": "power_law_complement", "param": {"c": 0.5, "alpha": INF}}},
            "alpha must be a finite real number",
        ),
        (
            {"prob_seq": {"variant": "geometric_decay", "param": {"c": 1.0, "rho": -INF}}},
            "rho must be a finite real number",
        ),
        (
            {"prob_seq": {"variant": "constant_tail", "prefix": [NAN], "param": 0.5}},
            "prefix entry must be a finite real number",
        ),
    ],
)
def test_bad_config_fields_exit_2_naming_the_field(doc, field, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert exit_code(["spectrum", "member", "0.1", "0.1", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1, err
    assert field in err
