"""Run configuration: flat sectioned text files (or JSON) and validation.

Every key is a field of the parameter tree (``params.from_dict`` builds it);
unknown keys are rejected and physical constraints are enforced by the
parameter types themselves at load time.
"""
from __future__ import annotations

import configparser
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

from .interference import BsmSettings
from .params import atomic_file, from_dict, to_dict
from .qstate import POLARIZATION_KETS
from .source import SourceParams
from .tomography import MIN_BOOTSTRAP_RESAMPLES

# Background level that reproduces the reported zero-delay autocorrelation
# band in the tuned configuration.
TUNED_G2_BACKGROUND_RATIO = 0.0055

# The apparatus's nested parameter sets are file sections of their own.
_NESTED_SECTIONS = ("source", "bsm")

# Each topology's detectors in channel order, which fixes the per-channel
# draw order, with the signal photons each receives per excitation pulse
# (Alice's and Bob's without an analyzer).
TOPOLOGIES = {
    "swap": {"bsm1": 0.25, "bsm2": 0.25, "alice": 0.5, "bob": 0.5},
    "hbt_x": {"d1": 0.5, "d2": 0.5},
    "hbt_xx": {"d1": 0.5, "d2": 0.5},
    "hom": {"d1": 0.25, "d2": 0.25},
}
BACKGROUND_WINDOW_NS = 2.0  # background photons arrive uniformly over this time after their pulse
G2_HALF_PS = 500  # coincidence-window half-widths: g2 peak, HOM cluster, analyzer detection
HOM_HALF_PS = 1000
ANALYZER_HALF_PS = 1000
HISTOGRAM_BIN_PS = 100.0  # default g2 and HOM histogram bin width


class ConfigError(ValueError):
    """Malformed or physically invalid run configuration."""


class McError(ValueError):
    """Invalid apparatus configuration or analysis input."""


@dataclass(frozen=True)
class ApparatusConfig:
    """Every physical parameter of one Monte Carlo run.

    The source and the heralding measurement are the same parameter sets the
    density-matrix route reads; the remaining fields are the apparatus's own
    pulse train, routing and detectors.
    """

    source: SourceParams = field(default_factory=SourceParams)
    bsm: BsmSettings = field(default_factory=BsmSettings)
    rep_rate_hz: float = 76e6
    mzi_delay_ns: float = 2.0
    efficiency: float | Mapping[str, float] = 0.8  # one value or one per channel
    dead_time_ns: float = 20.0
    dark_rate_hz: float = 0.0
    background_ratio: float = 0.0
    topology: str = "swap"  # a key of TOPOLOGIES
    hom_copolarized: bool = True
    bsm_delay_offset_ps: float = 0.0
    alice_setting: str | None = "H"
    bob_setting: str | None = "V"

    def __post_init__(self):
        # Each bound is written so that NaN fails it.
        for name, value in (
            ("repetition rate", self.rep_rate_hz),
            ("excitation-pulse splitting delay", self.mzi_delay_ns),
        ):
            if not 0 < value < math.inf:
                raise McError(f"{name} {value} must be positive and finite")
        if self.topology not in TOPOLOGIES:
            raise McError(f"unknown topology {self.topology!r}")
        for name, value in (
            ("dead time", self.dead_time_ns),
            ("dark rate", self.dark_rate_hz),
            ("background ratio", self.background_ratio),
        ):
            if not 0 <= value < math.inf:
                raise McError(f"{name} {value} must be >= 0 and finite")
        if not math.isfinite(self.bsm_delay_offset_ps):
            raise McError(f"BSM delay offset {self.bsm_delay_offset_ps} must be finite")
        if isinstance(self.efficiency, Mapping):
            if unknown := sorted(set(self.efficiency).difference(*TOPOLOGIES.values())):
                raise McError(f"efficiency for unknown detectors {unknown}")
            bad = {k: v for k, v in self.efficiency.items() if not 0 <= v <= 1}
        else:
            bad = {} if 0 <= self.efficiency <= 1 else {"*": self.efficiency}
        if bad:
            raise McError(f"detector efficiencies outside [0, 1]: {bad}")
        for setting in (self.alice_setting, self.bob_setting):
            if setting is not None and setting not in POLARIZATION_KETS:
                raise McError(f"unknown analyzer setting {setting!r}")

    @property
    def period_ns(self) -> float:
        return 1e9 / self.rep_rate_hz

    def channels(self) -> tuple[str, ...]:
        return tuple(TOPOLOGIES[self.topology])

    def signal_flux_per_pulse(self) -> dict[str, float]:
        """Expected signal photons arriving per excitation pulse at each
        detector; an analyzer halves Alice's or Bob's."""
        analyzed = {"alice": self.alice_setting is not None, "bob": self.bob_setting is not None}
        return {name: flux / 2 if analyzed.get(name) else flux for name, flux in TOPOLOGIES[self.topology].items()}

    def fourfold_gate_ps(self, gate_ps: float | None = None) -> float:
        """The finite BSM gate a four-fold count uses: ``gate_ps``, held to
        the ``[bsm] gate_ps`` check, or ``[bsm] gate_ps`` when none is given.
        An infinite gate is one excitation-pulse splitting delay wide: it takes
        every overlapped pair and none of the pairs one delay apart."""
        gate = self.bsm.gate_ps if gate_ps is None else self.bsm.with_gate(gate_ps).gate_ps
        return gate if gate < math.inf else self.mzi_delay_ns * 1000.0


@dataclass(frozen=True)
class TomographySettings:
    """Reconstruction defaults (section [tomography])."""

    bootstrap_resamples: int = 250

    def __post_init__(self):
        if self.bootstrap_resamples < MIN_BOOTSTRAP_RESAMPLES:
            raise ConfigError(f"[tomography] bootstrap_resamples must be at least {MIN_BOOTSTRAP_RESAMPLES}")


@dataclass(frozen=True)
class OutputSettings:
    """Seed and artifact destination (section [output])."""

    seed: int = 2024
    out_dir: str = "."
    format: str = "csv"

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed}")
        if self.format not in ("csv", "json"):
            raise ConfigError(f"output format must be csv or json, got {self.format!r}")


@dataclass(frozen=True)
class RunConfig:
    """Physical parameters plus the reconstruction and output settings of one run.

    Sections [source], [bsm] and [apparatus] of a config file map onto
    ``apparatus.source``, ``apparatus.bsm`` and ``apparatus``.
    """

    apparatus: ApparatusConfig = field(default_factory=ApparatusConfig)
    tomography: TomographySettings = field(default_factory=TomographySettings)
    output: OutputSettings = field(default_factory=OutputSettings)

    @property
    def source(self) -> SourceParams:
        return self.apparatus.source

    @property
    def bsm(self) -> BsmSettings:
        return self.apparatus.bsm

    def apparatus_config(self) -> ApparatusConfig:
        # Only perfbench/workloads.py:185 calls this; ROADMAP item 1 deletes it.
        return self.apparatus


def default_config() -> RunConfig:
    return RunConfig()


def _from_sections(sections: dict) -> RunConfig:
    """Build a run configuration from file sections (name -> key-value map)."""
    tree = dict(sections)
    apparatus = tree["apparatus"] = dict(tree.get("apparatus", {}))
    for name in _NESTED_SECTIONS:
        if name in apparatus:
            raise ConfigError(f"unknown keys ['{name}'] in [apparatus]")
        apparatus[name] = tree.pop(name, {})
    try:
        return from_dict(RunConfig, tree, "config file")
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _sections(config: RunConfig) -> dict:
    """Inverse of _from_sections: the file sections of ``config``, in file order."""
    tree = to_dict(config)
    apparatus = tree.pop("apparatus")
    nested = {name: apparatus.pop(name) for name in _NESTED_SECTIONS}
    return {**nested, "apparatus": apparatus, **tree}


def load_config(path: str | Path) -> RunConfig:
    """Parse a sectioned key-value file; JSON is accepted as an alternative."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    try:
        text = path.read_text(encoding="utf-8-sig")  # spreadsheet exports start with a byte-order mark
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8 text: {exc}") from exc
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON config: {exc}") from exc
        if not isinstance(data, dict) or not all(isinstance(v, dict) for v in data.values()):
            raise ConfigError("JSON config must map section names to key-value objects")
        return _from_sections(data)
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"invalid config file: {exc}") from exc
    return _from_sections({section: dict(parser[section]) for section in parser.sections()})


def write_default_config(path: str | Path) -> None:
    """Emit a fully populated config file with the calibrated defaults."""
    lines = []
    for section, values in _sections(default_config()).items():
        lines.append(f"[{section}]")
        for key, value in values.items():
            lines.append(f"{key} = {'none' if value is None else value}")
        lines.append("")
    with atomic_file(path) as handle:
        handle.write("\n".join(lines))
