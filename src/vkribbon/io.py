"""Persistence: atomic file writes, CSV tables, state snapshots, run manifests.

Snapshots are plain text (header lines + flat DOF arrays at full decimal
precision) and round-trip bitwise; CSV schemas are documented by their
header rows.  Every writer goes through the temp-file + rename path.
"""

from __future__ import annotations

import os
import platform
import tempfile
import time

import numpy as np
import scipy

from .fem import Mesh1D, Mesh2D
from .flow import LEDGER_COLUMNS
from .plate import PlateState
from .ribbon import RibbonState

SNAPSHOT_MAGIC = "vkribbon-snapshot 1"
SNAPSHOT_FIELDS = {"ribbon": ("xi1", "xi2", "w", "theta"), "plate": ("y1", "y2", "w")}


def atomic_write(path, text: str) -> None:
    path = os.fspath(path)
    d = os.path.dirname(path) or "."
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fmt(x) -> str:
    return format(float(x), ".17g")


def write_csv(path, columns, rows, summary: dict | None = None) -> None:
    lines = [",".join(columns)]
    for row in rows:
        cells = []
        for v in row:
            if isinstance(v, str):
                cells.append(v)
            elif isinstance(v, (int, np.integer)):
                cells.append(str(int(v)))
            else:
                cells.append(_fmt(v))
        lines.append(",".join(cells))
    text = "\n".join(lines) + "\n"
    if summary:
        text += "".join(f"# {k} = {v}\n" for k, v in sorted(summary.items()))
    atomic_write(path, text)


def write_ledger(path, trajectory, system) -> None:
    """Per-step ledger of a trajectory of ``system`` with the documented schema."""
    write_csv(path, LEDGER_COLUMNS, trajectory.ledger_rows(system))


# ---------------------------------------------------------------------------
# snapshots


def _array_lines(name, arr):
    return [f"field {name} {arr.size}", " ".join(_fmt(v) for v in arr)]


def save_ribbon_state(path, state: RibbonState) -> None:
    lines = [
        SNAPSHOT_MAGIC,
        "kind ribbon",
        f"l {_fmt(state.mesh.l)}",
        f"n {state.mesh.n}",
        "kinds xi1:P1 xi2:Hermite3 w:Hermite3 theta:P1",
    ]
    for name in SNAPSHOT_FIELDS["ribbon"]:
        lines += _array_lines(name, getattr(state, name))
    atomic_write(path, "\n".join(lines) + "\n")


def save_plate_state(path, state: PlateState) -> None:
    lines = [
        SNAPSHOT_MAGIC,
        "kind plate",
        f"l {_fmt(state.mesh.l)}",
        f"nx {state.mesh.nx}",
        f"ny {state.mesh.ny}",
        f"eps {_fmt(state.eps)}",
        "kinds y1:Bilinear y2:Bilinear w:BFS",
    ]
    for name in SNAPSHOT_FIELDS["plate"]:
        lines += _array_lines(name, getattr(state, name))
    atomic_write(path, "\n".join(lines) + "\n")


def load_snapshot(path, bc=None):
    """Load a ribbon or plate snapshot; returns the state object.

    Boundary data is not stored in the snapshot; pass it when the state
    should rejoin a system."""
    from .fem import BoundaryData

    bc = bc or BoundaryData.zero()
    with open(path) as f:
        lines = [ln.rstrip("\n") for ln in f]
    if not lines or lines[0] != SNAPSHOT_MAGIC:
        raise ValueError(f"{path}: not a state snapshot")
    header = {}
    fields = {}
    i = 1
    while i < len(lines):
        parts = lines[i].split()
        if not parts:
            i += 1
            continue
        if parts[0] == "field":
            name = parts[1]
            try:
                size = int(parts[2])
            except (IndexError, ValueError):
                raise ValueError(f"{path}: field {name} has no integer size") from None
            try:
                vals = np.array([float(v) for v in lines[i + 1].split()])
            except (IndexError, ValueError):
                raise ValueError(f"{path}: field {name} has no values line") from None
            if vals.size != size:
                raise ValueError(f"{path}: field {name} has {vals.size} values, expected {size}")
            fields[name] = vals
            i += 2
        else:
            header[parts[0]] = " ".join(parts[1:])
            i += 1
    kind = header.get("kind")
    names = SNAPSHOT_FIELDS.get(kind)
    if names is None:
        raise ValueError(f"{path}: unknown snapshot kind {kind!r}")
    missing = [name for name in names if name not in fields]
    if missing:
        raise ValueError(f"{path}: {kind} snapshot lacks field {', '.join(missing)}")

    def number(key, convert):
        try:
            return convert(header[key])
        except KeyError:
            raise ValueError(f"{path}: {kind} snapshot lacks header line {key!r}") from None
        except ValueError:
            raise ValueError(f"{path}: header {key!r} is not {convert.__name__}") from None

    values = (fields[name] for name in names)
    if kind == "ribbon":
        return RibbonState(Mesh1D(l=number("l", float), n=number("n", int)), bc, *values)
    mesh = Mesh2D(l=number("l", float), nx=number("nx", int), ny=number("ny", int))
    return PlateState(mesh, number("eps", float), bc, *values)


# ---------------------------------------------------------------------------
# manifest


def write_manifest(path, scenario, outputs, version: str, started: float) -> None:
    """Flat key=value run manifest; written before any result file.

    Records the library versions and the host's system and machine, the
    config echo, the hypothesis classification, the derived reduction
    constants, and the planned output files."""
    material = scenario.material
    lines = [
        f"version = {version}",
        f"python = {platform.python_version()}",
        f"numpy = {np.__version__}",
        f"scipy = {scipy.__version__}",
        f"system = {platform.system()}",
        f"machine = {platform.machine()}",
        f"written_at = {time.strftime('%Y-%m-%dT%H:%M:%S', time.gmtime())}",
        f"wall_clock_start = {started:.3f}",
        f"config_sha256 = {scenario.sha256}",
        f"hypothesis = {material.hypothesis}",
        f"C0_W = {_fmt(material.W0.C0)}",
        f"C0_R = {_fmt(material.R0.C0)}",
    ]
    for lbl, q1 in (("Q1_W", material.W1), ("Q1_R", material.R1)):
        flat = " ".join(_fmt(v) for v in q1.C.ravel())
        lines.append(f"{lbl} = {flat}")
    for key, value in scenario.echo():
        lines.append(f"config.{key} = {value}")
    for out in outputs:
        lines.append(f"output = {out}")
    atomic_write(path, "\n".join(lines) + "\n")
