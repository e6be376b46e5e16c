"""Run-config schema, the committed panels, and target parsing."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibmachine import (
    ConfigError,
    ConstantTail,
    GeometricDecay,
    GridSpec,
    PowerLawComplement,
    RunConfig,
    ZeroDelta,
    all_ones,
    config_from_dict,
    config_to_dict,
    load_config,
    panel_config,
    panel_name,
    parse_target,
    render_panel,
    repro_panels,
    scan_grid,
)
from fibmachine.numeration import FIBONACCI, BaseDef


# ---------------------------------------------------------------------------
# config schema


def test_config_round_trip():
    cfg = RunConfig(
        prob_seq=ConstantTail((1.0, 0.5), 0.5),
        radius=7.5,
        margin=0.5,
        max_level=9,
        early_exit=False,
        seed=99,
    )
    again = config_from_dict(config_to_dict(cfg))
    assert again == cfg


PROBS = st.floats(min_value=0.0, max_value=1.0, exclude_min=True)
POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
FINITE = st.floats(allow_nan=False, allow_infinity=False)
PREFIXES = st.lists(PROBS, max_size=5).map(tuple)

PROB_SEQS = st.one_of(
    st.builds(ConstantTail, PREFIXES, st.none() | PROBS),
    st.builds(ConstantTail, PREFIXES, PROBS),
    st.builds(PowerLawComplement, POSITIVE, POSITIVE),
    st.builds(GeometricDecay, POSITIVE, PROBS.filter(lambda rho: rho < 1.0)),
)

# non-increasing coefficients, as BaseDef requires
COEFFS = st.lists(st.integers(1, 9), min_size=2, max_size=5).map(lambda c: sorted(c)[::-1])
BASES = st.just(FIBONACCI) | st.builds(BaseDef, COEFFS.map(tuple), st.text(max_size=8))

GRIDS = st.builds(
    GridSpec,
    st.builds(complex, FINITE, FINITE),
    POSITIVE,
    POSITIVE,
    st.integers(1, 10**6),
    st.integers(1, 10**6),
)


@settings(max_examples=100, deadline=None)
@given(
    st.builds(
        RunConfig,
        prob_seq=PROB_SEQS,
        base=BASES,
        grid=GRIDS,
        radius=st.none() | st.floats(allow_nan=False),
        margin=st.floats(allow_nan=False),
        max_level=st.integers(),
        early_exit=st.booleans(),
        seed=st.integers(),
    )
)
def test_config_round_trip_property(cfg):
    doc = config_to_dict(cfg)
    assert config_from_dict(doc) == cfg
    # and through JSON text, which carries every float exactly
    assert config_from_dict(json.loads(json.dumps(doc))) == cfg


def test_config_bare_variant_shorthand():
    cfg = config_from_dict({"variant": "constant_tail", "prefix": [1.0, 0.5], "param": 0.5})
    assert cfg.prob_seq == ConstantTail((1.0, 0.5), 0.5)
    assert cfg.max_level == 17 and cfg.seed == 2026


def test_config_grid_forms():
    cfg = config_from_dict(
        {
            "prob_seq": {"variant": "constant_tail", "prefix": [], "param": 1.0},
            "grid": {"center": 1.5, "pixels": 32},
        }
    )
    assert cfg.grid.center == 1.5 + 0j
    assert cfg.grid.pixels_x == cfg.grid.pixels_y == 32
    cfg = config_from_dict({"grid": {"center": [0.25, -1.0]}, "prob_seq": {"variant": "constant_tail"}})
    assert cfg.grid.center == 0.25 - 1j


def test_config_rejects_unknown_keys():
    base = {"prob_seq": {"variant": "constant_tail"}}
    with pytest.raises(ConfigError):
        config_from_dict({**base, "bogus": 1})
    with pytest.raises(ConfigError):
        config_from_dict({**base, "grid": {"wat": 2}})
    with pytest.raises(ConfigError):
        config_from_dict({**base, "escape": {"radius": 3.0, "nope": 1}})
    with pytest.raises(ConfigError):
        config_from_dict({**base, "prob_seq": {"variant": "no_such_variant"}})
    with pytest.raises(ConfigError):
        config_from_dict({**base, "grid": {"center": [1, 2, 3]}})
    with pytest.raises(ConfigError):
        config_from_dict("not a dict")


def test_config_invalid_probability_wrapped():
    with pytest.raises(ConfigError):
        config_from_dict({"prob_seq": {"variant": "constant_tail", "prefix": [1.5]}})


def test_config_escape_radius_override():
    cfg = config_from_dict(
        {"prob_seq": {"variant": "constant_tail"}, "escape": {"radius": 7.5}}
    )
    assert cfg.radius == 7.5
    assert cfg.escape_config().radius == 7.5
    # without an override the radius is derived from the descriptor
    dflt = RunConfig(prob_seq=ConstantTail((), 0.5))
    assert dflt.escape_config().radius == 4.0  # 2/0.5 - 1 + margin 1


def test_config_derived_radius_requires_positive_delta():
    cfg = RunConfig(prob_seq=GeometricDecay(1.0, 0.25))
    with pytest.raises(ZeroDelta):
        cfg.escape_config()


def test_config_custom_base_round_trip():
    cfg = RunConfig(prob_seq=all_ones(), base=BaseDef((1, 1, 1), "order3"))
    doc = config_to_dict(cfg)
    assert doc["base"] == {"coeffs": [1, 1, 1], "name": "order3"}
    assert config_from_dict(doc).base == BaseDef((1, 1, 1), "order3")
    assert "base" not in config_to_dict(RunConfig(prob_seq=all_ones(), base=FIBONACCI))


def test_load_config(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"prob_seq": {"variant": "constant_tail", "param": 0.5}}))
    assert load_config(path).prob_seq == ConstantTail((), 0.5)
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(bad)


# ---------------------------------------------------------------------------
# committed panels


def test_panel_name_and_range():
    assert panel_name(1) == "panel01"
    assert panel_name(15) == "panel15"
    for bad in (0, 16, -3):
        with pytest.raises(ConfigError):
            panel_name(bad)


def test_parse_target_forms():
    assert parse_target("all") == list(range(1, 16))
    assert parse_target("7") == [7]
    assert parse_target("panel07") == [7]
    assert parse_target("Panel3") == [3]
    assert parse_target("fig4-1") == [1]
    assert parse_target("fig5-2") == [5]
    assert parse_target("fig8-3") == [15]
    for bad in ("fig9-1", "fig3-1", "fig4-4", "panel16", "junk", "fig4"):
        with pytest.raises(ConfigError):
            parse_target(bad)


def test_all_panels_share_the_standard_frame():
    for number in range(1, 16):
        cfg = panel_config(number)
        assert cfg.prob_seq.p(1) == 1.0
        assert cfg.grid.center == 0j
        assert cfg.grid.width == cfg.grid.height == 5.0
        assert cfg.grid.pixels_x == cfg.grid.pixels_y == 400
        assert cfg.max_level == 17
        assert cfg.margin == 1.0
        assert cfg.early_exit is True
        assert cfg.seed == 2026
        # every committed sequence settles to the all-ones tail
        assert cfg.prob_seq.p(18) == 1.0


def test_panel_parameter_spot_checks():
    p01 = panel_config(1).prob_seq
    assert p01.p(2) == 0.999 and p01.p(3) == 0.909 and p01.p(11) == 0.526
    p07 = panel_config(7).prob_seq
    assert p07.p(2) == 0.999 and p07.p(3) == 0.5 and p07.p(4) == 1.0
    assert panel_config(12).prob_seq.p(5) == 0.284859
    assert panel_config(11).prob_seq.p(5) == 0.284864
    assert panel_config(15).prob_seq.p(7) == 0.46041617
    assert panel_config(14).prob_seq.p(7) == 0.46041639
    # the panels of one figure differ only in the parameter under study
    a, b = panel_config(2).prob_seq, panel_config(3).prob_seq
    assert a.p(4) != b.p(4)
    assert all(a.p(i) == b.p(i) for i in range(1, 18) if i != 4)


def test_render_panel_pixels_override_and_workers(tmp_path):
    small = render_panel(7, workers=1, pixels=24)
    assert small.width == small.height == 24
    assert np.array_equal(small.cells, render_panel(7, workers=3, pixels=24).cells)


def test_repro_panels_writes_ppm(tmp_path):
    paths = repro_panels([1, 7], tmp_path, pixels=16)
    assert [p.name for p in paths] == ["panel01.ppm", "panel07.ppm"]
    for p in paths:
        data = p.read_bytes()
        assert data.startswith(b"P6\n16 16\n255\n")
        assert len(data) == len(b"P6\n16 16\n255\n") + 3 * 16 * 16


def test_small_parameter_shrinks_inside_set():
    # same frame, all-ones sequence, versus panel 07's p_3 = 0.5
    cfg = panel_config(7)
    grid = type(cfg.grid)(
        center=cfg.grid.center,
        width=cfg.grid.width,
        height=cfg.grid.height,
        pixels_x=50,
        pixels_y=50,
    )
    dimmed = scan_grid(grid, cfg.prob_seq, cfg.escape_config(), workers=1)
    baseline_cfg = RunConfig(prob_seq=all_ones(), grid=grid)
    baseline = scan_grid(grid, all_ones(), baseline_cfg.escape_config(), workers=1)
    assert dimmed.inside_count() < baseline.inside_count()


@pytest.mark.parametrize("max_level", [17.9, 17.0, True, "17", None])
def test_config_rejects_non_integer_max_level(max_level):
    doc = {"prob_seq": {"variant": "constant_tail"}, "escape": {"max_level": max_level}}
    with pytest.raises(ConfigError, match="max_level"):
        config_from_dict(doc)


def test_config_non_finite_radius_rejected_by_escape_config():
    cfg = config_from_dict(
        {"prob_seq": {"variant": "constant_tail"}, "escape": {"radius": float("inf")}}
    )
    with pytest.raises(ValueError, match="radius"):
        cfg.escape_config()


@pytest.mark.parametrize(
    "doc,field",
    [
        ({"seed": 1.5}, "seed"),
        ({"seed": True}, "seed"),
        ({"seed": "7"}, "seed"),
        ({"grid": {"pixels": 2.7}}, "pixels"),
        ({"grid": {"pixels": False}}, "pixels"),
        ({"grid": {"pixels_x": 3.0}}, "pixels_x"),
        ({"grid": {"pixels_x": True}}, "pixels_x"),
        ({"grid": {"pixels_y": "64"}}, "pixels_y"),
        ({"grid": {"pixels_y": 2.5}}, "pixels_y"),
        ({"escape": {"early_exit": "no"}}, "early_exit"),
        ({"escape": {"early_exit": 0}}, "early_exit"),
        ({"escape": {"early_exit": None}}, "early_exit"),
    ],
)
def test_config_refuses_coercing_integers_and_booleans(doc, field):
    with pytest.raises(ConfigError, match=field):
        config_from_dict({"prob_seq": {"variant": "constant_tail"}, **doc})


def test_config_keeps_json_integers_and_booleans():
    cfg = config_from_dict(
        {
            "prob_seq": {"variant": "constant_tail"},
            "grid": {"pixels": 24, "pixels_y": 12},
            "escape": {"early_exit": False},
            "seed": 2**63,
        }
    )
    assert (cfg.grid.pixels_x, cfg.grid.pixels_y) == (24, 12)
    assert cfg.early_exit is False and cfg.seed == 2**63


@pytest.mark.parametrize(
    "grid,message",
    [
        ({"pixels": 0}, "grid pixels must be at least 1, got 0"),
        ({"pixels": -5, "pixels_x": 8, "pixels_y": 8}, "grid pixels must be at least 1, got -5"),
        ({"pixels_x": 0}, "grid pixels_x must be at least 1, got 0"),
        ({"pixels": 8, "pixels_x": -2}, "grid pixels_x must be at least 1, got -2"),
        ({"pixels_y": 0}, "grid pixels_y must be at least 1, got 0"),
        ({"pixels_x": 4, "pixels_y": -1}, "grid pixels_y must be at least 1, got -1"),
    ],
)
def test_config_refuses_a_pixel_count_below_one_naming_the_key(grid, message):
    with pytest.raises(ConfigError) as err:
        config_from_dict({"prob_seq": {"variant": "constant_tail"}, "grid": grid})
    assert str(err.value) == message


@pytest.mark.parametrize("grid,field", [({"width": float("inf")}, "width"), ({"center": [0.0, float("nan")]}, "center")])
def test_config_refuses_non_finite_grid_values(grid, field):
    with pytest.raises(ConfigError, match=field):
        config_from_dict({"prob_seq": {"variant": "constant_tail"}, "grid": grid})


@pytest.mark.parametrize("coeffs", [[1.9, True], [True, True], [2, 1.0], "21", 3])
def test_config_refuses_non_integer_base_coeffs(coeffs):
    base = {"prob_seq": {"variant": "constant_tail"}}
    with pytest.raises(ConfigError, match="base coeffs"):
        config_from_dict({**base, "base": {"coeffs": coeffs}})
    assert config_from_dict({**base, "base": {"coeffs": [2, 1]}}).base.coeffs == (2, 1)
