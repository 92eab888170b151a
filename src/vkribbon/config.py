"""Scenario files: plain-text sections of key = value pairs.

Example::

    [material]
    model = isotropic
    mu_W = 1.0
    lambda_W = 0.0
    mu_R = 1.0
    lambda_R = 0.0

    [time]
    tau = 0.01
    T = 1.0

    [initial]
    xi2 = 0.0625 0 -0.5 0 1

Polynomial values are coefficient lists in ascending powers of x1.
Unknown sections or keys are rejected with the offending path in the
message; omitted keys take the defaults below.  A line starting with
";" or "#" is a comment, and so is the rest of a line from a ";" that
follows whitespace.
"""

from __future__ import annotations

import configparser
import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .fem import BoundaryData, Mesh1D, Mesh2D
from .flow import SolverOptions
from .forms import MaterialError, MaterialPair, QuadForm2, make_isotropic
from .ribbon import RibbonForces


class ScenarioError(ValueError):
    pass


_SCHEMA = {
    "material": {"model", "mu_W", "lambda_W", "mu_R", "lambda_R", "CW", "CR", "h2_family"},
    "geometry": {"l", "epsilon_list", "cutoff_width"},
    "mesh": {"n1d", "nx", "ny"},
    "time": {"tau", "T", "tau_list"},
    "solver": {"tol", "max_newton", "armijo"},
    "boundary": {"u1hat", "u2hat", "vhat"},
    "forces": {"f", "g1", "g2"},
    "initial": {"xi1", "xi2", "w", "theta"},
    "output": {"directory"},
}


def _floats(text, key):
    try:
        vals = [float(v) for v in text.replace(",", " ").split()]
    except ValueError as exc:
        raise ScenarioError(f"{key}: cannot parse float list from {text!r}") from exc
    if not vals:
        raise ScenarioError(f"{key}: empty value")
    if not all(map(math.isfinite, vals)):
        raise ScenarioError(f"{key}: numbers must be finite, got {text!r}")
    return vals


def _float(text, key):
    return _floats(text, key)[0]


def _int(text, key):
    v = _float(text, key)
    if v != int(v):
        raise ScenarioError(f"{key}: expected an integer, got {text!r}")
    return int(v)


def _bool(text, key):
    t = text.strip().lower()
    if t in ("true", "1", "yes", "on"):
        return True
    if t in ("false", "0", "no", "off"):
        return False
    raise ScenarioError(f"{key}: expected a boolean, got {text!r}")


@dataclass
class Scenario:
    """Validated run configuration with defaults filled in."""

    material: MaterialPair
    l: float = 1.0
    epsilon_list: list = field(default_factory=lambda: [0.2, 0.1, 0.05])
    cutoff_width: float = 0.1
    n1d: int = 64
    nx: int = 64
    ny: int = 8
    tau: float = 0.01
    T: float = 1.0
    tau_list: list = field(default_factory=lambda: [0.08, 0.04, 0.02, 0.01])
    solver: SolverOptions = field(default_factory=SolverOptions)
    boundary: BoundaryData = field(default_factory=BoundaryData.zero)
    forces: RibbonForces = field(default_factory=RibbonForces.zero)
    initial: tuple = ((0.0,), (0.0,), (0.0,), (0.0,))
    out_dir: str = "out"
    sha256: str = ""
    raw: dict = field(default_factory=dict)

    def mesh1(self) -> Mesh1D:
        return Mesh1D(l=self.l, n=self.n1d)

    def mesh2(self) -> Mesh2D:
        return Mesh2D(l=self.l, nx=self.nx, ny=self.ny)

    def echo(self):
        """Flat (key, value) pairs for the manifest."""
        for section in sorted(self.raw):
            for key in sorted(self.raw[section]):
                yield f"{section}.{key}", self.raw[section][key]


def _build_material(sec: dict) -> MaterialPair:
    model = sec.get("model", "isotropic").strip().lower()
    h2 = _bool(sec.get("h2_family", "false"), "material.h2_family")
    try:
        if model == "isotropic":
            return MaterialPair.isotropic(
                _float(sec.get("mu_W", "1.0"), "material.mu_W"),
                _float(sec.get("lambda_W", "0.0"), "material.lambda_W"),
                _float(sec.get("mu_R", "1.0"), "material.mu_R"),
                _float(sec.get("lambda_R", "0.0"), "material.lambda_R"),
                h2_family=h2,
            )
        if model == "matrix":
            if "CW" not in sec or "CR" not in sec:
                raise ScenarioError("material: matrix model needs CW and CR (9 numbers each)")
            CW = np.array(_floats(sec["CW"], "material.CW"))
            CR = np.array(_floats(sec["CR"], "material.CR"))
            if CW.size != 9 or CR.size != 9:
                raise ScenarioError("material.CW / material.CR: expected 9 numbers row-major")
            return MaterialPair(
                W=QuadForm2(CW.reshape(3, 3), "W"),
                R=QuadForm2(CR.reshape(3, 3), "R"),
                h2_family=h2,
            )
    except MaterialError as exc:
        raise ScenarioError(f"material: {exc}") from exc
    raise ScenarioError(f"material.model: unknown model {model!r}")


def load_scenario(path) -> Scenario:
    # a ";" after whitespace starts a comment, also after a value; no
    # value of the schema holds one
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=(";",))
    parser.optionxform = str  # keys are case-sensitive
    with open(path, "rb") as f:
        data = f.read()
    try:
        parser.read_string(data.decode("utf-8"), source=str(path))
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ScenarioError(f"{path}: parse error: {exc}") from exc

    raw = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ScenarioError(f"{path}: unknown section [{section}]")
        raw[section] = {}
        for key, value in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ScenarioError(f"{path}: unknown key {section}.{key}")
            raw[section][key] = value

    def get(section, key, default=None):
        return raw.get(section, {}).get(key, default)

    material = _build_material(raw.get("material", {}))

    sc = Scenario(material=material, raw=raw)
    if get("geometry", "l") is not None:
        sc.l = _float(get("geometry", "l"), "geometry.l")
        if sc.l <= 0:
            raise ScenarioError("geometry.l: must be positive")
    if get("geometry", "epsilon_list") is not None:
        sc.epsilon_list = _floats(get("geometry", "epsilon_list"), "geometry.epsilon_list")
        if any(e <= 0 for e in sc.epsilon_list):
            raise ScenarioError("geometry.epsilon_list: widths must be positive")
    if get("geometry", "cutoff_width") is not None:
        sc.cutoff_width = _float(get("geometry", "cutoff_width"), "geometry.cutoff_width")
        if not (0.0 < sc.cutoff_width < 0.5):
            raise ScenarioError("geometry.cutoff_width: must lie in (0, 0.5)")
    for key in ("n1d", "nx", "ny"):
        if get("mesh", key) is not None:
            v = _int(get("mesh", key), f"mesh.{key}")
            if v < 2:
                raise ScenarioError(f"mesh.{key}: need at least 2 elements")
            setattr(sc, key, v)
    if get("time", "tau") is not None:
        sc.tau = _float(get("time", "tau"), "time.tau")
        if sc.tau <= 0:
            raise ScenarioError("time.tau: must be positive")
    if get("time", "T") is not None:
        sc.T = _float(get("time", "T"), "time.T")
        if sc.T <= 0:
            raise ScenarioError("time.T: must be positive")
    if get("time", "tau_list") is not None:
        sc.tau_list = _floats(get("time", "tau_list"), "time.tau_list")
        if any(t <= 0 for t in sc.tau_list):
            raise ScenarioError("time.tau_list: steps must be positive")
    solver_kwargs = {}
    if get("solver", "tol") is not None:
        solver_kwargs["tol"] = _float(get("solver", "tol"), "solver.tol")
    if get("solver", "max_newton") is not None:
        solver_kwargs["max_newton"] = _int(get("solver", "max_newton"), "solver.max_newton")
    if get("solver", "armijo") is not None:
        solver_kwargs["armijo"] = _float(get("solver", "armijo"), "solver.armijo")
    try:
        sc.solver = SolverOptions(**solver_kwargs)
    except ValueError as exc:
        raise ScenarioError(f"solver: {exc}") from exc
    sc.boundary = BoundaryData.from_coeffs(
        _floats(get("boundary", "u1hat", "0"), "boundary.u1hat"),
        _floats(get("boundary", "u2hat", "0"), "boundary.u2hat"),
        _floats(get("boundary", "vhat", "0"), "boundary.vhat"),
    )
    sc.forces = RibbonForces.from_coeffs(
        _floats(get("forces", "f", "0"), "forces.f"),
        _floats(get("forces", "g1", "0"), "forces.g1"),
        _floats(get("forces", "g2", "0"), "forces.g2"),
    )
    sc.initial = tuple(
        _floats(get("initial", key, "0"), f"initial.{key}") for key in ("xi1", "xi2", "w", "theta")
    )
    if get("output", "directory") is not None:
        sc.out_dir = get("output", "directory")

    sc.sha256 = hashlib.sha256(data).hexdigest()
    return sc
