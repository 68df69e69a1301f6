"""Start-up guards: each command imports only the scipy it runs, and the
README's config for each command runs.

Importing ``itkit.cli`` must load no scipy module, and ``it-check``, ``xsec``,
``greens``, ``delays`` and a ``coincidence`` simulation must finish without
one: delay inversion is a plain-float Newton solve that needs no
``scipy.optimize``, and the field spline is itkit's own, with numpy alone.
Every check runs in a fresh interpreter, because by the time these tests
run the pytest process has imported scipy through other test modules.  The
same fresh interpreters make a first call through each function-local scipy
import, which no other test can reach before scipy is already loaded.

``itkit.bessel`` computes the Hankel function in pure Python, not with
``scipy.special.hankel1``: importing ``scipy.special`` raises the resident
memory of ``xsec`` and ``greens`` from about 29 to 53 MB.  The ``greens``
guard runs one half-integer-order (N = 1) and one integer-order (N = 4)
scan, so both paths of ``hankel_h1`` are covered.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import itkit
from itkit import cli

SRC = str(Path(itkit.__file__).resolve().parents[1])
README = Path(__file__).resolve().parents[1] / "README.md"


def readme_configs() -> dict[str, str]:
    """The fenced block after each "`command` — ..." paragraph of README.md."""
    configs, command, block = {}, None, None
    for line in README.read_text().splitlines():
        if block is not None:
            if line.startswith("```"):
                configs[command] = "\n".join(block) + "\n"
                command, block = None, None
            else:
                block.append(line)
        elif match := re.match(r"`([a-z-]+)` — ", line):
            command = match.group(1)
        elif command is not None and line.startswith("```"):
            block = []
    return configs


README_CONFIGS = readme_configs()
# an integer-order greens scan, beside the README's half-integer one (N = 1)
GREENS_N4 = "n_particles = 4\nenergy = 0.5\nr_min = 0.2\nr_max = 100.0\nn_r = 50\n"

# appended to every script: the scipy modules loaded, as the last stdout line
REPORT_SCIPY = (
    "\nimport json, sys\n"
    "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))\n"
)


def fresh(script: str, *args: str) -> tuple[str, list[str]]:
    """Run ``script`` in a new interpreter; return its stdout and the scipy modules it loaded."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", script + REPORT_SCIPY, *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    *lines, last = proc.stdout.splitlines()
    return "\n".join(lines), json.loads(last)


def test_readme_documents_every_command():
    assert sorted(README_CONFIGS) == sorted(cli.COMMANDS)


@pytest.mark.parametrize("command", sorted(README_CONFIGS))
def test_readme_config_runs(tmp_path, command):
    config = tmp_path / "config.txt"
    config.write_text(README_CONFIGS[command])
    assert cli.main([command, "--config", str(config), "--out", str(tmp_path / "out")]) == 0


def test_import_cli_loads_no_scipy():
    _, loaded = fresh("import itkit.cli")
    assert loaded == []


def test_import_cli_builds_no_g17_table():
    # the %.17g kernel's lookup tables are built on first use, not at import,
    # and the package loads no module beyond numpy and the stdlib ones it names
    out, _ = fresh(
        "import __future__, argparse, contextlib, dataclasses, functools, json, math\n"
        "import pathlib, sys, warnings\n"
        "import numpy\n"
        "before = set(sys.modules)\n"
        "from itkit import cli, core\n"
        "print(json.dumps([sorted(m for m in set(sys.modules) - before if m.split('.')[0] != 'itkit'),\n"
        "                  core._g17_scales.cache_info().currsize, core._g17_text.cache_info().currsize]))\n")
    assert json.loads(out.splitlines()[-1]) == [[], 0, 0]


def run_command(tmp_path, command: str, config_text: str) -> tuple[int, list[str]]:
    config = tmp_path / f"{command}.txt"
    config.write_text(config_text)
    out, loaded = fresh("import sys\nfrom itkit import cli\nprint(cli.main(sys.argv[1:]))",
                        command, "--config", str(config), "--out", str(tmp_path / "out"))
    return int(out.splitlines()[-1]), loaded


@pytest.mark.parametrize("command, config_text", [
    pytest.param("it-check", README_CONFIGS["it-check"], id="it-check"),
    pytest.param("xsec", README_CONFIGS["xsec"], id="xsec"),
    pytest.param("greens", README_CONFIGS["greens"], id="greens"),
    pytest.param("greens", GREENS_N4, id="greens_n4"),
    pytest.param("coincidence", README_CONFIGS["coincidence"], id="coincidence"),
    pytest.param("delays", README_CONFIGS["delays"], id="delays"),
])
def test_command_loads_no_scipy(tmp_path, command, config_text):
    code, loaded = run_command(tmp_path, command, config_text)
    assert code == 0
    assert loaded == []


# first calls of the functions that load scipy, or once did, each checked
# against a known property, with the scipy module the call has to load (None:
# it must load none)
FIRST_CALLS = {
    "fit_pair_model": ("scipy.optimize", """
from itkit.coincidence import PairGeometry, PairModelParams, fit_pair_model, synthesize_dataset
geometry = PairGeometry(1.0, 1.0)
ds = synthesize_dataset(geometry, PairModelParams(1.0, 10.0), 8.0, 30000, seed=1)
params, _, _ = fit_pair_model(ds, PairModelParams(0.8, 10.0))
print(abs(params.sigma - 1.0) < 0.1)
"""),
    "evolve_split_operator": ("scipy.fft", """
from itkit import GaussianPacketSpec, POSITION, UniformField, centered_grid_1d, sample_gaussian
from itkit.propagate import EvolutionSpec, evolve_split_operator
psi = sample_gaussian(GaussianPacketSpec([1.0], [0.25], [0.0]),
                      centered_grid_1d(600.0, 2048, 0.0), POSITION)
out = evolve_split_operator(psi, EvolutionSpec(1.0, 0.0, 50.0, 10, UniformField([1e-3])))
print(abs(out.norm() - psi.norm()) < 1e-9)
"""),
    "interpolate_field": (None, """
import numpy as np
from itkit import GaussianPacketSpec, MOMENTUM, centered_grid_1d, sample_gaussian
from itkit.propagate import interpolate_field
phi = sample_gaussian(GaussianPacketSpec([1.0], [0.25]), centered_grid_1d(4.0, 256, 1.0), MOMENTUM)
nodes = phi.grid.axis(0)[100:110, None]
print(np.allclose(interpolate_field(phi, nodes), phi.values[100:110], rtol=1e-12, atol=0.0))
"""),
}


@pytest.mark.parametrize("name", sorted(FIRST_CALLS))
def test_first_call_through_deferred_import(name):
    module, script = FIRST_CALLS[name]
    out, loaded = fresh(script)
    assert out.splitlines()[-1] == "True"
    assert loaded == [] if module is None else module in loaded
