"""CLI surface: every subcommand in-process, outputs against the library."""

import json

import pytest

from fibmachine import (
    ConstantTail,
    PowerLawComplement,
    all_ones,
    BaseDef,
    RunConfig,
    eigen_residual,
    encode,
    in_E,
    in_point_spectrum,
    load_config,
    q_general_orbit,
    render,
    scan_grid,
    stationary_measure,
    transition_matrix,
    transition_terms,
    write_csv,
)
from fibmachine.chain import STEP_BUDGET
from fibmachine import spectrum
from fibmachine.spectrum import LEVEL_BUDGET
from fibmachine.cli import CSV_BLOCK, fmt, fmt_complex, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def cfg_file(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


HALF_DOC = {"prob_seq": {"variant": "constant_tail", "prefix": [], "param": 0.5}}


# ---------------------------------------------------------------------------
# words


def test_encode_decode_succ(capsys):
    assert run(capsys, "encode", "12") == (0, "10101\n", "")
    assert run(capsys, "decode", "10101") == (0, "12\n", "")
    code, out, _ = run(capsys, "succ", "100101")  # 17 -> 18
    assert code == 0 and out == encode(18) + "\n"


def test_succ_methods_and_verbose(capsys):
    code, out, _ = run(capsys, "succ", "101", "--method", "carry", "--verbose")
    assert code == 0
    assert "carry branch" in out and out.endswith("1000\n")
    code, out, _ = run(capsys, "succ", "101", "--method", "transducer", "--verbose")
    assert code == 0
    assert "transducer path" in out and out.endswith("1000\n")


def test_succ_verbose_exact_text(capsys):
    # 17 -> 18 through each route, trace line first
    assert run(capsys, "succ", "100101", "--method", "carry", "--verbose") == (
        0,
        "carry branch low_one: carries (1, 1, 0) (indices from 0), halted at 2\n101000\n",
        "",
    )
    assert run(capsys, "succ", "100101", "--method", "transducer", "--verbose") == (
        0,
        "transducer path (T,1/1,T)(T,00/01,I)(I,10/00,I)(I,1/0,I)\n101000\n",
        "",
    )


@pytest.mark.parametrize(
    "word, text",
    [
        ("100", "carry branch low_zero: carries (1, 0) (indices from -1), halted at 0\n101\n"),
        ("0", "carry branch low_zero: carries (1, 0) (indices from -1), halted at 0\n1\n"),
        (
            "0010010",
            "carry branch low_zero: carries (1, 1, 0) (indices from -1), halted at 1\n10100\n",
        ),
        (
            "1010101",
            "carry branch low_one: carries (1, 1, 1, 1, 0) (indices from 0), halted at 4\n"
            "10000000\n",
        ),
        ("00101", "carry branch low_one: carries (1, 1, 0) (indices from 0), halted at 2\n1000\n"),
    ],
)
def test_succ_carry_verbose_text_both_branches(capsys, word, text):
    assert run(capsys, "succ", word, "--method", "carry", "--verbose") == (0, text, "")


def test_decode_rejects_inadmissible(capsys):
    code, out, err = run(capsys, "decode", "11")
    assert code == 2 and out == "" and "error:" in err


def test_encode_capacity_exit(capsys):
    code, _, err = run(capsys, "encode", str(2**64))
    assert code == 3 and "error:" in err


# ---------------------------------------------------------------------------
# chain


def test_chain_row_matches_library(capsys, tmp_path):
    cfg = cfg_file(tmp_path, HALF_DOC)
    code, out, _ = run(capsys, "chain", "row", "4", "--config", cfg)
    assert code == 0
    p = ConstantTail((), 0.5)
    want_lines = [
        f"{t} {fmt(f.value(p))} {f.text()}" for t, f in transition_terms(4)
    ]
    assert out.splitlines() == want_lines
    assert "0 0.125 p1*p2*(1-p3)" in want_lines


def test_chain_matrix_csv(capsys, tmp_path):
    out_file = tmp_path / "m.csv"
    cfg = cfg_file(tmp_path, HALF_DOC)
    code, out, _ = run(
        capsys, "chain", "matrix", "3", "--config", cfg, "--out", str(out_file)
    )
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == "from,to,prob"
    assert lines[1] == "0,0,0.5"
    assert lines[-1].startswith("# leak from state 4:")


def test_chain_matrix_csv_text_past_one_block(capsys, tmp_path):
    # level 18 has about 11k lines, so the text is written in several blocks
    cfg = cfg_file(tmp_path, {"prob_seq": {"variant": "power_law_complement", "param": {"c": 0.5, "alpha": 2.0}}})
    matrix = transition_matrix(18, PowerLawComplement(0.5, 2.0))
    lines = ["from,to,prob"]
    for row in (matrix.row(i) for i in range(matrix.size)):
        lines += [f"{row.state},{target},{fmt(prob)}" for target, prob in row.entries]
    lines.append(f"# leak from state {matrix.leak_state}: {fmt(matrix.leak_prob)}")
    want = "\n".join(lines) + "\n"
    assert len(lines) > 2 * CSV_BLOCK
    assert run(capsys, "chain", "matrix", "18", "--config", cfg) == (0, want, "")
    out_file = tmp_path / "m.csv"
    assert run(capsys, "chain", "matrix", "18", "--config", cfg, "--out", str(out_file)) == (0, "", "")
    assert out_file.read_text(encoding="utf-8") == want


def test_chain_matrix_budget_exit(capsys):
    code, _, err = run(capsys, "chain", "matrix", "32")
    assert code == 3 and "error:" in err


def test_chain_simulate_deterministic(capsys, tmp_path):
    cfg = cfg_file(tmp_path, HALF_DOC)
    args = ("chain", "simulate", "--steps", "200", "--seed", "9", "--config", cfg)
    first = run(capsys, *args)
    second = run(capsys, *args)
    assert first == second and first[0] == 0
    assert "final_state" in first[1]
    # the deterministic machine walks straight up
    code, out, _ = run(capsys, "chain", "simulate", "--steps", "50")
    assert code == 0 and "final_state 50" in out and "max_state 50" in out


def test_chain_simulate_step_budget_exit(capsys):
    code, out, err = run(capsys, "chain", "simulate", "--steps", str(STEP_BUDGET + 1))
    assert code == 3 and out == "" and "budget" in err


def test_chain_simulate_rejects_non_integer_steps(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["chain", "simulate", "--steps", "2.5"])
    assert exc.value.code == 2
    assert "--steps" in capsys.readouterr().err


def test_chain_classify(capsys, tmp_path):
    code, out, _ = run(capsys, "chain", "classify")
    assert code == 0 and out.startswith("Transient:")
    cfg = cfg_file(tmp_path, HALF_DOC)
    code, out, _ = run(capsys, "chain", "classify", "--config", cfg)
    assert code == 0 and out.startswith("NullRecurrent:")


def test_chain_stationary(capsys):
    code, out, _ = run(capsys, "chain", "stationary", "7")
    assert code == 0
    sm = stationary_measure(7, all_ones())
    assert f"partial_sum {fmt(sm.partial_sum)}" in out
    assert "unsummable false" in out
    assert "residual 0" in out


def test_chain_stationary_refuses_a_threshold_that_is_not_positive(capsys):
    for bad in ("nan", "-inf", "-1", "0"):
        code, out, err = run(capsys, "chain", "stationary", "7", f"--threshold={bad}")
        assert (code, out) == (2, "") and "threshold must be positive" in err, bad
    code, out, _ = run(capsys, "chain", "stationary", "7", "--threshold=inf")
    assert code == 0 and "unsummable false" in out


# ---------------------------------------------------------------------------
# spectrum


def test_spectrum_orbit_fixed_point(capsys):
    code, out, _ = run(capsys, "spectrum", "orbit", "1", "0", "--levels", "5")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 6
    assert lines[0] == f"0 {fmt_complex(1 + 0j)}"
    assert all(line.endswith(fmt_complex(1 + 0j)) for line in lines)


def test_spectrum_orbit_level_budget_exit(capsys, tmp_path):
    code, out, err = run(capsys, "spectrum", "orbit", "0.5", "0", "--levels", "20000")
    assert code == 3 and out == "" and "level budget" in err
    assert run(capsys, "spectrum", "orbit", "0.5", "0", "--levels", str(LEVEL_BUDGET))[0] == 0


def test_spectrum_orbit_config_max_level_budget_exit(capsys, tmp_path):
    cfg = cfg_file(tmp_path, {**HALF_DOC, "escape": {"max_level": LEVEL_BUDGET + 1}})
    code, out, err = run(capsys, "spectrum", "orbit", "0.5", "0", "--config", cfg)
    assert code == 3 and out == "" and "level budget" in err


def test_spectrum_member_inside_and_escaped(capsys):
    code, out, _ = run(capsys, "spectrum", "member", "0", "0")
    assert code == 0
    assert "E inside" in out
    assert "point_spectrum inside (running max 1)" in out
    code, out, _ = run(capsys, "spectrum", "member", "2", "0")
    assert code == 0
    assert "E escaped at level" in out and "point_spectrum escaped" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["0", "0"],
        ["2", "0"],
        ["0.3", "0.4"],
        ["0", "0", "--bound", "1e-300"],  # the bound is crossed at level 0
        ["0.9", "0.1", "--bound", "1.5"],
        ["1", "0", "--bound", "inf"],
        ["1.3e308", "1.3e308"],
    ],
)
@pytest.mark.parametrize("doc", [None, HALF_DOC])
def test_spectrum_member_runs_in_E_once(capsys, monkeypatch, tmp_path, argv, doc):
    # in_E's tests run once, on the one walk of lambda that also gives the
    # running maximum; in_E itself is not called, and the numpy lane runs at
    # most once, where that walk could not decide them
    walks, lanes, calls = [], [], []

    def counted(record, function):
        def call(*args):
            record.append(args)
            return function(*args)

        return call

    monkeypatch.setattr(spectrum, "_lane", counted(walks, spectrum._lane))
    monkeypatch.setattr(spectrum, "_numpy_lane", counted(lanes, spectrum._numpy_lane))
    monkeypatch.setattr(spectrum, "in_E", counted(calls, in_E))
    config = ["--config", cfg_file(tmp_path, doc)] if doc else []
    code, out, _ = run(capsys, "spectrum", "member", *argv, *config)
    assert code == 0 and len(walks) == 1 and len(lanes) <= 1 and not calls
    monkeypatch.undo()
    # the text of the two public tests, each run on its own
    cfg = load_config(config[1]) if doc else RunConfig(prob_seq=all_ones())
    lam = complex(float(argv[0]), float(argv[1]))
    bound = float(argv[3]) if len(argv) > 2 else 1e6
    esc = in_E(lam, cfg.prob_seq, cfg.escape_config())
    verdict = in_point_spectrum(lam, cfg.prob_seq, cfg.escape_config(), bound)
    want = f"E escaped at level {esc.level}\n" if esc.escaped else "E inside\n"
    want += f"point_spectrum {verdict.status}"
    want += f" at level {verdict.level}" if verdict.level is not None else ""
    assert out == want + f" (running max {fmt(verdict.bound_value)})\n"


def test_spectrum_connectivity(capsys, tmp_path):
    code, out, _ = run(capsys, "spectrum", "connectivity")
    assert code == 0 and out == "Inconclusive\n"
    doc = {"prob_seq": {"variant": "constant_tail", "prefix": [1.0, 1.0, 0.4], "param": 0.4}}
    cfg = cfg_file(tmp_path, doc)
    code, out, _ = run(capsys, "spectrum", "connectivity", "--config", cfg)
    assert code == 0 and out == "NonConnected at level 3 (modulus 1.5)\n"


def test_spectrum_residual(capsys):
    code, out, _ = run(capsys, "spectrum", "residual", "1", "0", "8")
    assert code == 0
    res = eigen_residual(1.0, all_ones(), 8)
    lines = out.splitlines()
    assert lines[0] == f"value {fmt(res.value)}"
    assert lines[1] == "interior 0"
    assert lines[2] == f"bound {fmt(res.bound)}"
    assert lines[3] == "sup_norm 1"


# ---------------------------------------------------------------------------
# render and repro


SMALL_RENDER = {
    "prob_seq": {"variant": "constant_tail", "prefix": [], "param": 0.5},
    "grid": {"pixels": 20, "width": 5.0, "height": 5.0},
    "escape": {"max_level": 12},
}


def test_render_ppm_worker_independence(capsys, tmp_path):
    cfg = cfg_file(tmp_path, SMALL_RENDER)
    one = tmp_path / "a.ppm"
    many = tmp_path / "b.ppm"
    code, out, _ = run(capsys, "render", "--config", cfg, "--out", str(one))
    assert code == 0 and out.startswith(f"wrote {one} (20x20, ")
    code, _, _ = run(
        capsys, "render", "--config", cfg, "--out", str(many), "--workers", "4"
    )
    assert code == 0
    assert one.read_bytes() == many.read_bytes()
    assert one.read_bytes().startswith(b"P6\n20 20\n255\n")


def test_render_csv_streams_write_csv_text(capsys, tmp_path):
    # 150 x 121 pixels: past one CSV block, and an odd height
    doc = dict(SMALL_RENDER, grid={"pixels_x": 150, "pixels_y": 121, "width": 5.0, "height": 4.0})
    cfg = cfg_file(tmp_path, doc)
    assert 150 * 121 > render.CSV_BLOCK
    out_file = tmp_path / "r.csv"
    code, out, err = run(capsys, "render", "--config", cfg, "--out", str(out_file), "--format", "csv")
    run_cfg = load_config(cfg)
    buf = scan_grid(run_cfg.grid, run_cfg.prob_seq, run_cfg.escape_config())
    assert code == 0 and err == ""
    assert out == f"wrote {out_file} (150x121, {buf.inside_count()} inside)\n"
    assert out_file.read_bytes() == write_csv(buf).encode("ascii")


def test_render_csv_and_png(capsys, tmp_path):
    pytest.importorskip("PIL.Image")
    cfg = cfg_file(tmp_path, SMALL_RENDER)
    csv_out = tmp_path / "r.csv"
    png_out = tmp_path / "r.png"
    assert run(capsys, "render", "--config", cfg, "--out", str(csv_out), "--format", "csv")[0] == 0
    assert run(capsys, "render", "--config", cfg, "--out", str(png_out), "--format", "png")[0] == 0
    assert csv_out.read_text().count("\n") == 400
    assert png_out.read_bytes().startswith(b"\x89PNG")


def test_repro_single_panel_and_figure_alias(capsys, tmp_path):
    a_dir = tmp_path / "a"
    b_dir = tmp_path / "b"
    code, out, _ = run(
        capsys, "repro", "3", "--out-dir", str(a_dir), "--pixels", "12"
    )
    assert code == 0 and "panel03.ppm" in out
    code, _, _ = run(
        capsys, "repro", "fig4-3", "--out-dir", str(b_dir), "--pixels", "12"
    )
    assert code == 0
    assert (a_dir / "panel03.ppm").read_bytes() == (b_dir / "panel03.ppm").read_bytes()


def test_repro_bad_target_exit(capsys, tmp_path):
    code, _, err = run(capsys, "repro", "fig9-1", "--out-dir", str(tmp_path))
    assert code == 2 and "error:" in err


@pytest.mark.parametrize("key", ["pixels", "pixels_x", "pixels_y"])
def test_pixel_count_below_one_exits_2_naming_the_key(capsys, tmp_path, key):
    doc = {**SMALL_RENDER, "grid": {"pixels": 20, key: 0}}
    out_path = tmp_path / "never.ppm"
    code, out, err = run(capsys, "render", "--config", cfg_file(tmp_path, doc), "--out", str(out_path))
    assert (code, out) == (2, "")
    assert err == f"error: grid {key} must be at least 1, got 0\n"
    assert not out_path.exists()


def test_repro_pixels_below_one_exits_2(capsys, tmp_path):
    code, out, err = run(capsys, "repro", "3", "--out-dir", str(tmp_path), "--pixels", "-4")
    assert (code, out) == (2, "")
    assert err == "error: grid pixels_x must be at least 1, got -4\n"


def test_bad_config_exit(capsys, tmp_path):
    bad = cfg_file(tmp_path, {"prob_seq": {"variant": "constant_tail"}, "oops": 1})
    code, _, err = run(capsys, "chain", "classify", "--config", bad)
    assert code == 2 and "error:" in err



def test_render_level_budget_exit(capsys, tmp_path):
    doc = {**SMALL_RENDER, "escape": {"max_level": LEVEL_BUDGET + 1}}
    cfg = cfg_file(tmp_path, doc)
    out_path = tmp_path / "never.ppm"
    code, out, err = run(capsys, "render", "--config", cfg, "--out", str(out_path))
    assert code == 3 and out == "" and "level budget" in err
    assert not out_path.exists()
    code, out, err = run(capsys, "spectrum", "member", "0.5", "0.0", "--config", cfg)
    assert code == 3 and out == "" and "level budget" in err


def test_render_rejects_non_integer_max_level(capsys, tmp_path):
    cfg = cfg_file(tmp_path, {**SMALL_RENDER, "escape": {"max_level": 12.5}})
    code, out, err = run(capsys, "render", "--config", cfg, "--out", str(tmp_path / "x.ppm"))
    assert code == 2 and out == "" and "max_level" in err


# ---------------------------------------------------------------------------
# spectral input at the boundary


NULL_DOC = {"prob_seq": {"variant": "constant_tail", "prefix": [1.0], "param": 0.5}}


def test_spectrum_residual_escaped_orbit_exit(capsys, tmp_path):
    # the q orbit at 0.9+0.1i passes CLAMP at level 15, short of level 16
    cfg = cfg_file(tmp_path, NULL_DOC)
    code, out, err = run(capsys, "spectrum", "residual", "0.9", "0.1", "16", "--config", cfg)
    assert code == 2 and out == ""
    assert err == (
        "error: the q orbit at lambda (0.9+0.1j) passes 1e+150 at level 15, "
        "before the requested level 16\n"
    )
    assert run(capsys, "spectrum", "residual", "0.9", "0.1", "14", "--config", cfg)[0] == 0


@pytest.mark.parametrize("command", [["orbit"], ["member"], ["residual"]])
@pytest.mark.parametrize("point", [["nan", "0"], ["0", "inf"], ["inf", "nan"]])
def test_spectrum_refuses_non_finite_point(capsys, command, point):
    level = ["8"] if command == ["residual"] else []
    code, out, err = run(capsys, "spectrum", *command, *point, *level)
    name = "re" if point[0] != "0" else "im"
    assert code == 2 and out == ""
    assert err.startswith(f"error: {name} must be finite")


def test_spectrum_member_refuses_nan_bound(capsys):
    code, out, err = run(capsys, "spectrum", "member", "0.5", "0", "--bound", "nan")
    assert code == 2 and out == "" and "bound" in err
    code, out, _ = run(capsys, "spectrum", "member", "1", "0", "--bound", "inf")
    assert code == 0 and "point_spectrum inside" in out


def test_spectrum_orbit_reads_the_config_base(capsys, tmp_path):
    orbit = ("spectrum", "orbit", "0.5", "0.25")
    plain = run(capsys, *orbit, "--config", cfg_file(tmp_path, HALF_DOC))
    fib = cfg_file(tmp_path, {**HALF_DOC, "base": {"coeffs": [1, 1]}}, "fib.json")
    assert run(capsys, *orbit, "--config", fib) == plain
    order3 = cfg_file(tmp_path, {**HALF_DOC, "base": {"coeffs": [1, 1, 1]}}, "order3.json")
    code, out, _ = run(capsys, *orbit, "--levels", "9", "--config", order3)
    want = q_general_orbit(0.5 + 0.25j, ConstantTail((), 0.5), BaseDef((1, 1, 1)), levels=9)
    assert code == 0 and len(want) == 10 and not plain[1].startswith(out)
    assert out == "".join(f"{n} {fmt_complex(v)}\n" for n, v in enumerate(want))
    # an order-3 orbit that passes CLAMP names its escape level like order 2
    code, out, _ = run(capsys, "spectrum", "orbit", "1e100", "0", "--config", order3)
    assert code == 0 and out.splitlines()[-1] == "escaped_at 1"


def test_config_base_coeffs_must_be_integers(capsys, tmp_path):
    for coeffs in ([1.9, True], [1, 1.0], "11", [2, None]):
        cfg = cfg_file(tmp_path, {**HALF_DOC, "base": {"coeffs": coeffs}})
        code, out, err = run(capsys, "spectrum", "orbit", "0.5", "0", "--config", cfg)
        assert code == 2 and out == "" and "base coeffs" in err, coeffs


def test_config_prefix_errors_exit_2(capsys, tmp_path):
    for prob_seq, message in [
        ({"variant": "constant_tail", "prefix": "1", "param": 0.5}, "prefix must be a list"),
        ({"variant": "constant_tail", "prefix": "0.5", "param": 0.5}, "prefix must be a list"),
        (
            {"variant": "power_law_complement", "prefix": [0.5], "param": {"c": 0.5, "alpha": 2}},
            "power_law_complement takes no prob_seq prefix",
        ),
        (
            {"variant": "geometric_decay", "prefix": [0.5], "param": {"c": 1.0, "rho": 0.9}},
            "geometric_decay takes no prob_seq prefix",
        ),
    ]:
        cfg = cfg_file(tmp_path, {"prob_seq": prob_seq})
        code, out, err = run(capsys, "spectrum", "orbit", "0.5", "0", "--config", cfg)
        assert code == 2 and out == "" and message in err, prob_seq


def test_spectrum_orbit_past_the_float_range_escapes_at_level_0(capsys):
    code, out, err = run(capsys, "spectrum", "orbit", "1.3e308", "1.3e308")
    assert (code, err) == (0, "")
    assert out == "0 1.3e+308+1.3e+308j\nescaped_at 0\n"
    code, out, _ = run(capsys, "spectrum", "member", "1.3e308", "1.3e308")
    assert code == 0 and out.startswith("E escaped at level 0\npoint_spectrum escaped at level 0")


# ---------------------------------------------------------------------------
# one parser per process


def exits(capsys, *argv):
    """(code, out, err) of a call, SystemExit included, as the CLI would end it."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = ("exit", exc.code)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_the_parser_is_built_once_and_serves_every_call_as_a_fresh_one(capsys, tmp_path):
    from fibmachine import cli

    cfg = cfg_file(tmp_path, HALF_DOC)
    calls = [
        ("encode", "12"),
        ("succ", "101", "--method", "carry", "--verbose"),
        ("succ", "101"),
        ("chain", "row", "7", "--config", cfg),
        ("chain", "stationary", "5", "--threshold", "10", "--config", cfg),
        ("chain", "stationary", "5"),
        ("chain", "simulate", "--steps", "20", "--seed", "3", "--verbose"),
        ("chain", "simulate", "--steps", "20"),
        ("spectrum", "residual", "0.2", "0.1", "6"),
        ("spectrum", "member", "0.3", "0.1", "--bound", "100"),
        ("decode", "10101"),
        ("chain", "matrix"),  # an argparse error: exit 2
        ("encode", "12"),
        ("chain", "--help"),
        ("chain", "classify", "--config", cfg),
    ]
    fresh = []
    for argv in calls:
        cli.build_parser.cache_clear()
        fresh.append(exits(capsys, *argv))
    assert fresh[11][0] == ("exit", 2) and "required: level" in fresh[11][2]
    assert fresh[13][0] == ("exit", 0) and "usage: fibmachine chain" in fresh[13][1]
    parser = cli.build_parser()
    assert [exits(capsys, *argv) for argv in calls] == fresh
    assert cli.build_parser() is parser
