"""Run configuration: INI-style files with strict validation.

A run is described by a sectioned key=value file::

    [wave]
    omega = 6.283185307179586
    lambda = 1.0
    mu = 2.0
    theta_deg = 30.0
    period = 1.0
    gamma_height = 1.0

    [grating]
    builtin = flat            # or "sharp"; or, instead, file = profile.txt

    [adapt]
    tolerance = 1e-3
    max_iters = 20
    max_dofs = 200000
    h0 = 0.25

The grating is either a built-in profile (``builtin = flat | sharp``, flat
by default) or a profile file (``file = path``, which alone selects it);
setting both is an error.  A relative profile path is read from the
config file's directory.  The layer is not configured: every run
calibrates it by the one rule of ``gratpml.pml.calibrate``.  Nor are
marking and corner tracking: a run marks with the bulk fraction 0.5 and
tracks the peaks of its profile (``GratingProfile.reentrant_corners``).
Unknown sections or keys are rejected (typos should fail loudly, not fall
back to defaults), and so are NaN and infinite numbers and an empty
``[output] dir``.  Every key except the six wave parameters has a default.
"""

from __future__ import annotations

import configparser
import os
from dataclasses import dataclass
from math import isfinite, radians

__all__ = ["ConfigError", "RunConfig", "load_config"]


class ConfigError(ValueError):
    """A configuration file is missing, malformed, or inconsistent."""


@dataclass
class RunConfig:
    """All parameters of one adaptive run (angles in degrees, as in files)."""

    # [wave] -- required
    omega: float
    lam: float
    mu: float
    theta_deg: float
    period: float
    gamma_height: float
    # [grating]; grating is "file" exactly when grating_file is set
    grating: str = "flat"
    grating_file: str | None = None
    # [adapt]
    tolerance: float = 1e-3
    max_iters: int = 20
    max_dofs: int = 200_000
    h0: float = 0.25
    # [output]
    out_dir: str = "out"
    write_vtk: bool = False
    write_system: bool = False

    @property
    def theta(self) -> float:
        """Incidence angle in radians."""
        return radians(self.theta_deg)

    def validate(self) -> None:
        """Raise ConfigError on non-finite or inconsistent values."""
        problems = []
        for section, key, attr, conv in _SCHEMA:
            value = getattr(self, attr)
            if conv is float and not isfinite(value):
                problems.append(f"{section}.{key} = {value} is not finite")
        if not abs(self.theta_deg) < 90.0:
            problems.append(
                f"theta_deg = {self.theta_deg} outside the open range (-90, 90)"
            )
        if self.grating not in ("flat", "sharp", "file"):
            problems.append(f"grating kind {self.grating!r} not in flat/sharp/file")
        if self.grating == "file" and not self.grating_file:
            problems.append("grating = file requires grating.file to be set")
        if self.grating != "file" and self.grating_file:
            problems.append(f"grating.file is set but grating = {self.grating!r}")
        if self.tolerance <= 0.0:
            problems.append("adapt.tolerance must be positive")
        if self.max_iters < 1:
            problems.append("adapt.max_iters must be >= 1")
        if self.max_dofs < 1:
            problems.append("adapt.max_dofs must be >= 1")
        if self.h0 <= 0.0:
            problems.append("adapt.h0 must be positive")
        if not self.out_dir:
            problems.append("output.dir must not be empty")
        if problems:
            raise ConfigError("; ".join(problems))


# (section, key, attribute, converter); "lambda" and "theta_deg" are the
# on-disk names of RunConfig.lam / RunConfig.theta_deg.
_SCHEMA = [
    ("wave", "omega", "omega", float),
    ("wave", "lambda", "lam", float),
    ("wave", "mu", "mu", float),
    ("wave", "theta_deg", "theta_deg", float),
    ("wave", "period", "period", float),
    ("wave", "gamma_height", "gamma_height", float),
    ("grating", "builtin", "grating", str),
    ("grating", "file", "grating_file", str),
    ("adapt", "tolerance", "tolerance", float),
    ("adapt", "max_iters", "max_iters", int),
    ("adapt", "max_dofs", "max_dofs", int),
    ("adapt", "h0", "h0", float),
    ("output", "dir", "out_dir", str),
    ("output", "write_vtk", "write_vtk", bool),
    ("output", "write_system", "write_system", bool),
]

_REQUIRED = {(section, key) for section, key, _, _ in _SCHEMA if section == "wave"}


def _to_bool(text: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {text!r}") from None


def load_config(path) -> RunConfig:
    """Parse and validate a configuration file.

    A relative ``[grating] file`` is made absolute against the directory of
    ``path``.  Raises ConfigError for a missing file, unknown sections/keys,
    bad literals, missing required keys, or inconsistent values.
    """
    parser = configparser.ConfigParser(
        interpolation=None, inline_comment_prefixes=("#", ";")
    )
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path!r}: {exc}") from exc

    known = {(s, k): (attr, conv) for s, k, attr, conv in _SCHEMA}
    values: dict[str, object] = {}
    seen = set()
    for section in parser.sections():
        for key, raw in parser.items(section):
            entry = known.get((section, key))
            if entry is None:
                raise ConfigError(f"unknown key [{section}] {key} in {path!r}")
            attr, conv = entry
            raw = raw.strip()
            try:
                values[attr] = _to_bool(raw) if conv is bool else conv(raw)
            except ValueError as exc:
                raise ConfigError(
                    f"bad value for [{section}] {key}: {raw!r} ({exc})"
                ) from exc
            seen.add((section, key))

    if "grating_file" in values:
        if "grating" in values:
            raise ConfigError(f"[grating] builtin and file are exclusive in {path!r}")
        values["grating"] = "file"
        # a relative profile path names a file beside the config
        here = os.path.dirname(os.path.abspath(path))
        values["grating_file"] = os.path.join(here, values["grating_file"])

    missing = sorted(_REQUIRED - seen)
    if missing:
        names = ", ".join(f"[{s}] {k}" for s, k in missing)
        raise ConfigError(f"missing required keys in {path!r}: {names}")

    cfg = RunConfig(**values)  # type: ignore[arg-type]
    cfg.validate()
    return cfg

