"""Start-up guard: what importing swapsim and running each command loads.

A bare `import swapsim` loads the package alone, with no submodule and no
numpy: every name is imported from its module. scipy is a test dependency
only: the gate response behind `swap-predict`, `report` and `fourfold-scan`'s
prediction, the source calibration under every noise kind and
`calibrate_temporal`'s bisection use numpy alone. The Monte Carlo
(`swapsim.mc`) loads only when a command simulates: `import swapsim.cli`,
`tomo`, `report` and `swap-predict` never compile it. No command loads
`concurrent.futures`, since every run is generated in the caller's thread.
The checks run in a fresh interpreter because this test session has already
imported scipy (tests/conftest.py uses it as an oracle) and the Monte Carlo.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import swapsim
from swapsim import config, mc

SRC = Path(swapsim.__file__).resolve().parent.parent
MC_MODULES = ["swapsim.mc"]

SCRIPT = r"""
import json
import sys
from pathlib import Path


def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))


def mc_modules():
    return sorted(m for m in ("swapsim.mc",) if m in sys.modules)


def pool_modules():
    return sorted(m for m in sys.modules if m == "concurrent.futures" or m.startswith("concurrent.futures."))


import swapsim

loaded = {"import swapsim": [0, scipy_modules(), mc_modules(), pool_modules()]}
import swapsim.cli

loaded["import swapsim.cli"] = [0, scipy_modules(), mc_modules(), pool_modules()]
import numpy as np
from swapsim import cli, qstate, tomography

out = Path(sys.argv[1])
rho = qstate.DensityMatrix(
    0.9 * qstate.bell_density(qstate.BellKind.PSI_PLUS).matrix + 0.025 * np.eye(4), ("A", "B")
)
run = tomography.simulate_counts(rho, tomography.standard_settings(16), 2000, rng_seed=1)
(out / "counts.csv").write_text(tomography.run_to_csv(run))
(out / "fss.ini").write_text("[source]\nmodel = fss\n")
fss = ["--config", str(out / "fss.ini")]
# The commands that do not simulate run first, then g2 loads the Monte Carlo.
commands = {
    "tomo": ["tomo", "reconstruct", "--input", str(out / "counts.csv"), "--bootstrap", "100"],
    "report": ["report"],
    "swap-predict": ["swap-predict", "--gates", "10:500:10"],
    "report fss": ["report", *fss],
    "swap-predict fss": ["swap-predict", "--gates", "10:500:10", *fss],
    "g2": ["g2", "--duration", "1e-4"],
    "mc-run": ["mc-run", "--duration", "1e-4"],
    "hom": ["hom", "--duration", "1e-4"],
    "fourfold-scan": ["fourfold-scan", "--delays=-300:300:150", "--duration-per-point", "1e-4"],
}
for name, argv in commands.items():
    code = cli.main([*argv, "--out-dir", str(out)])
    loaded[name] = [code, scipy_modules(), mc_modules(), pool_modules()]
from swapsim.interference import calibrate_temporal

calibrate_temporal(0.569, 0.8314, 47.0)
loaded["calibrate_temporal"] = [0, scipy_modules(), mc_modules(), pool_modules()]
print(json.dumps(loaded))
"""


def _run_fresh(*argv):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", *argv], env=env, capture_output=True, text=True, timeout=300, check=True
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_import_swapsim_loads_no_submodule_and_no_numpy():
    loaded = _run_fresh(
        "import json, sys, swapsim; print(json.dumps(sorted("
        "m for m in sys.modules if m.startswith(('swapsim.', 'numpy.')) or m == 'numpy')))"
    )
    assert loaded == []


def test_swapsim_loads_no_scipy(tmp_path):
    loaded = _run_fresh(SCRIPT, str(tmp_path))
    simulating = list(loaded).index("g2")
    for k, (command, (code, scipy, mc_loaded, pool)) in enumerate(loaded.items()):
        assert (command, code, scipy, pool) == (command, 0, [], [])
        assert (command, mc_loaded) == (command, MC_MODULES if k >= simulating else [])


def test_mc_shares_config_types_and_unknown_names_raise():
    assert mc.ApparatusConfig is config.ApparatusConfig
    assert mc.McError is config.McError
    with pytest.raises(AttributeError, match="'no_such_name'"):
        swapsim.no_such_name
