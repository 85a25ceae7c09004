"""Parameter trees: frozen dataclasses read from and written to plain dicts.

One loader serves sectioned config files, JSON configs and stream sidecars.
Each value is coerced by the type of its field's default (a nested dataclass
default makes the field a section of its own) and unknown keys are rejected,
so every key that loads is one a parameter set owns.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
from contextlib import contextmanager
from enum import Enum
from typing import Mapping

_TRUE = ("1", "true", "yes", "on")
_FALSE = ("0", "false", "no", "off")


def to_dict(params) -> dict:
    """Nested plain-dict form of a parameter tree; enums become their values."""
    return dataclasses.asdict(
        params,
        dict_factory=lambda items: {k: v.value if isinstance(v, Enum) else v for k, v in items},
    )


def config_hash(params) -> str:
    """Short digest of ``to_dict(params)``: the provenance tag of every artifact."""
    payload = json.dumps(to_dict(params), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


@contextmanager
def atomic_file(path: str | os.PathLike, mode: str = "w"):
    """Open a new temp file beside ``path`` (mode "w" or "wb", parent directories made) that
    replaces ``path`` when the block ends and is deleted if the block raises."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".swapsim-{os.urandom(8).hex()}")
    handle = open(tmp, mode.replace("w", "x"))
    try:
        with handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def json_text(payload: dict) -> str:
    """Strict JSON (RFC 8259) of an artifact payload: a non-finite float is
    written as its CSV text, "inf", "-inf" or "nan", and one missed raises."""

    def finite(v):
        if isinstance(v, dict):
            return {k: finite(x) for k, x in v.items()}
        if isinstance(v, (list, tuple)):
            return [finite(x) for x in v]
        return repr(float(v)) if isinstance(v, float) and not math.isfinite(v) else v

    return json.dumps(finite(payload), indent=2, allow_nan=False)


def from_dict(cls, data, where: str = "config", complete: bool = False):
    """Build the dataclass ``cls`` from ``data``.

    Omitted keys keep their defaults unless ``complete`` is set, in which case
    every field must be present (a stream sidecar records them all). Raises
    ValueError naming the offending section and key; validation errors of the
    parameter types themselves propagate unchanged.
    """
    if not isinstance(data, Mapping):
        raise ValueError(f"{where} must map keys to values, got {data!r}")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(data) - set(fields)
    if unknown:
        raise ValueError(f"unknown keys {sorted(unknown)} in {where}")
    missing = set(fields) - set(data)
    if complete and missing:
        raise ValueError(f"missing keys {sorted(missing)} in {where}")
    values = {}
    for name, value in data.items():
        f = fields[name]
        default = f.default if f.default is not dataclasses.MISSING else f.default_factory()
        if dataclasses.is_dataclass(default):
            values[name] = from_dict(type(default), value, f"[{name}]", complete)
        else:
            values[name] = _coerce(value, default, str(f.type), f"{where} {name}")
    return cls(**values)


def _coerce(value, default, annotation: str, key: str):
    # Annotations are strings here (postponed evaluation); they mark the fields
    # that also take None (analyzer settings) or a per-channel mapping.
    if "None" in annotation and (value is None or str(value).strip().lower() in ("none", "")):
        return None
    kind = type(default)
    try:
        if isinstance(default, Enum):
            return kind(str(value).strip().lower())
        if isinstance(default, bool):
            if isinstance(value, bool):
                return value
            text = str(value).strip().lower()
            if text in _TRUE + _FALSE:
                return text in _TRUE
            raise ValueError
        if isinstance(value, Mapping) and "Mapping" in annotation:
            return {str(k): kind(v) for k, v in value.items()}
        if kind is int and isinstance(value, float) and not value.is_integer():
            raise ValueError  # int() would truncate it silently
        return kind(value)
    except (TypeError, ValueError):
        raise ValueError(f"{key} = {value!r} is not a valid {kind.__name__}") from None
