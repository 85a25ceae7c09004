"""Start-up guard: what importing swapsim and running each command loads.

scipy is a test dependency only: the gate response behind `swap-predict`,
`report` and `fourfold-scan`'s prediction, the source calibration under every
noise kind and `calibrate_temporal`'s bisection use numpy alone. The Monte
Carlo (`swapsim.mc`, and `concurrent.futures` for its worker pool) loads only
when a command simulates: `import swapsim`, `tomo`, `report` and
`swap-predict` never compile it. The check runs in a fresh interpreter
because this test session has already imported scipy (tests/conftest.py uses
it as an oracle) and the Monte Carlo.
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
MC_MODULES = ["concurrent.futures", "swapsim.mc"]

SCRIPT = r"""
import json
import sys
from pathlib import Path


def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))


def mc_modules():
    return sorted(m for m in ("swapsim.mc", "concurrent.futures") if m in sys.modules)


import swapsim

loaded = {"import swapsim": [0, scipy_modules(), mc_modules()]}
import swapsim.cli

loaded["import swapsim.cli"] = [0, scipy_modules(), mc_modules()]
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
    loaded[name] = [code, scipy_modules(), mc_modules()]
swapsim.calibrate_temporal(0.569, 0.8314, 47.0)
loaded["calibrate_temporal"] = [0, scipy_modules(), mc_modules()]
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
    simulating = list(loaded).index("g2")
    for k, (command, (code, scipy, mc_loaded)) in enumerate(loaded.items()):
        assert (command, code, scipy) == (command, 0, [])
        assert (command, mc_loaded) == (command, MC_MODULES if k >= simulating else [])


# Every name `from swapsim import *` gave when the package imported mc eagerly,
# less the in-memory stream type and its `simulate`, which the tests now own.
PARENT_NAMES = set(
    """
    ApparatusConfig BellKind BoundCheck BsmConvention BsmPovm BsmSettings ConfigError DensityMatrix
    InterferenceError McError MeasurementSetting NoiseKind NoiseModel PATTERNS PureState QStateError
    Run RunConfig SourceError SourceParams SwapCurve SwapError SwapResult
    TomographyError TomographyRun apply_noise bell_density bell_state bootstrap_errors
    born_probabilities bsm_povm calibrate calibrate_temporal classical_bound_check compose config
    control_no_heralding default_config dephasing depolarizing
    effective_indistinguishability emit_pair fidelity_mixed fidelity_pure fourfold_coincidences
    fss_phase_diffusion g2_histogram gate_response herald hom_histogram horodecki_s ideal_pair
    interference linear_inversion load_config maximally_mixed mc mle_reconstruct params
    partial_trace pattern_operators permute_qubits predict project_to_physical pure_density qstate
    read_stream simulate_counts simulate_runs simulate_tomography_run source
    standard_settings swap tensor tomography write_stream
    """.split()
)
MC_NAMES = (
    "Run",
    "fourfold_coincidences",
    "g2_histogram",
    "hom_histogram",
    "read_stream",
    "simulate_runs",
    "simulate_tomography_run",
    "write_stream",
)


def test_package_keeps_its_public_names():
    for name in MC_NAMES:
        assert getattr(swapsim, name) is getattr(mc, name), name
    assert mc.ApparatusConfig is config.ApparatusConfig is swapsim.ApparatusConfig
    assert mc.McError is config.McError is swapsim.McError
    namespace = {}
    exec("from swapsim import *", namespace)
    assert set(namespace) - {"__builtins__"} == PARENT_NAMES
    assert PARENT_NAMES <= set(dir(swapsim))
    with pytest.raises(AttributeError, match="'no_such_name'"):
        swapsim.no_such_name
