"""Start-up guard: importing swapsim, every command and the temporal calibration load no scipy.

scipy is a test dependency only: the gate response behind `swap-predict`,
`report` and `fourfold-scan`'s prediction, the source calibration under every
noise kind and `calibrate_temporal`'s bisection use numpy alone. The check
runs in a fresh interpreter because this test session has already imported
scipy (tests/conftest.py uses it as an oracle).
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import swapsim

SRC = Path(swapsim.__file__).resolve().parent.parent

SCRIPT = r"""
import json
import sys
from pathlib import Path


def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))


import swapsim
import swapsim.cli

loaded = {"import": scipy_modules()}
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
commands = {
    "tomo": ["tomo", "reconstruct", "--input", str(out / "counts.csv"), "--bootstrap", "100"],
    "mc-run": ["mc-run", "--duration", "1e-4"],
    "g2": ["g2", "--duration", "1e-4"],
    "hom": ["hom", "--duration", "1e-4"],
    "fourfold-scan": ["fourfold-scan", "--delays=-300:300:150", "--duration-per-point", "1e-4"],
    "report": ["report"],
    "swap-predict": ["swap-predict", "--gates", "10:500:10"],
    "report fss": ["report", *fss],
    "swap-predict fss": ["swap-predict", "--gates", "10:500:10", *fss],
}
for name, argv in commands.items():
    code = cli.main([*argv, "--out-dir", str(out)])
    loaded[name] = [code, scipy_modules()]
swapsim.calibrate_temporal(0.569, 0.8314, 47.0)
loaded["calibrate_temporal"] = [0, scipy_modules()]
print(json.dumps(loaded))
"""


def test_swapsim_loads_no_scipy(tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    loaded = json.loads(proc.stdout.strip().splitlines()[-1])
    assert loaded.pop("import") == []
    for command, (code, modules) in loaded.items():
        assert (command, code, modules) == (command, 0, [])
