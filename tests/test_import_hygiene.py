"""numpy loads on first array use, and the lazy names are the real objects.

The word arithmetic, configs, panel configs and the three word commands run
in a fresh interpreter without importing numpy.  The names the package takes
from its numpy-backed modules come through its module __getattr__ and are the
very objects of those modules.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fibmachine
from fibmachine import config, render, spectrum

#: Each step runs in order in one fresh interpreter; after each, the script
#: records whether numpy has been imported.  argv[1] is a JSON config path.
SCRIPT = r"""
import contextlib, io, json, sys

steps = []

def step(name, out=None):
    steps.append({"step": name, "numpy": "numpy" in sys.modules, "out": out})

import fibmachine
step("import fibmachine")
from fibmachine import config, figures
step("from fibmachine import config, figures")
for number in range(1, figures.PANEL_COUNT + 1):
    figures.panel_config(number)
step("panel_config(1..15)")
config.load_config(sys.argv[1])
step("load_config")
from fibmachine import decode, encode, succ_carry, succ_transducer
word = encode(12)
step("words", [word, decode(word), succ_carry(word)[0], succ_transducer(word)[0]])
from fibmachine import cli
for argv in (["encode", "12"], ["decode", "1010"], ["succ", "1010"]):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main(argv)
    step("cli " + " ".join(argv), [code, out.getvalue()])
print(json.dumps({"module": fibmachine.__file__, "steps": steps}))
"""

CONFIG = {
    "prob_seq": {"variant": "geometric_decay", "param": {"c": 0.9, "rho": 0.5}},
    "grid": {"center": [0.5, -0.25], "width": 3.0, "height": 2.0, "pixels": 40},
    "escape": {"margin": 0.5, "max_level": 20, "early_exit": False},
    "seed": 7,
}


def test_words_configs_and_word_commands_never_import_numpy(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(CONFIG))
    src = str(Path(fibmachine.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(path)], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["module"] == fibmachine.__file__
    steps = report["steps"]
    assert [s["step"] for s in steps if s["numpy"]] == []
    assert [s["out"] for s in steps if s["out"] is not None] == [
        ["10101", 12, "100000", "100000"],
        [0, "10101\n"],
        [0, "7\n"],
        [0, "10000\n"],
    ]
    assert len(steps) == 8


@pytest.mark.parametrize("name", sorted(fibmachine._LAZY))
def test_every_lazy_name_is_the_object_of_its_home_module(name):
    home = importlib.import_module(f"fibmachine.{fibmachine._LAZY[name]}")
    want = home if name == fibmachine._LAZY[name] else getattr(home, name)
    assert getattr(fibmachine, name) is want
    assert vars(fibmachine)[name] is want  # cached: the next lookup skips __getattr__


def test_moved_value_types_are_one_object_each():
    assert render.GridSpec is config.GridSpec is fibmachine.GridSpec
    assert spectrum.EscapeConfig is config.EscapeConfig is fibmachine.EscapeConfig
    assert spectrum.escape_radius is config.escape_radius is fibmachine.escape_radius
    assert spectrum.LEVEL_BUDGET is config.LEVEL_BUDGET
    assert spectrum.RADIUS_EPS is config.RADIUS_EPS


def test_an_unknown_attribute_still_raises_attribute_error():
    with pytest.raises(AttributeError, match="^module 'fibmachine' has no attribute 'no_such_name'$"):
        fibmachine.no_such_name
    assert not hasattr(fibmachine, "cli_main")
    assert "no_such_name" not in dir(fibmachine)
