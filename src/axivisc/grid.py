"""Cell-centered (r,z) grid, cylindrical measure, and finite-difference stencils.

The domain is the truncated half-plane [0, r_max] x [z_min, z_max].  Nodes sit
at cell centers, r_i = (i+1/2)*dr, so no node ever lies on the axis r=0 and
quantities like u^r/r are always well defined pointwise.  Axis behaviour is
encoded as ghost-cell extension rules selected by a field's role tag.
"""

from __future__ import annotations

import functools
import os
import tempfile
from dataclasses import dataclass, field

import numpy as np

# Axis extension rule per role: fields that vanish on the axis (vorticity,
# radial velocity) extend oddly across r=0; fields with a finite axis limit
# (omega/r, vertical velocity) extend evenly.  "derived" fields carry no rule.
ODD_ROLES = frozenset({"omega_theta", "u_r"})
EVEN_ROLES = frozenset({"q_omega_over_r", "u_z"})
ALL_ROLES = ODD_ROLES | EVEN_ROLES | {"derived"}


@dataclass(frozen=True)
class GridSpec:
    r_max: float
    z_min: float
    z_max: float
    n_r: int
    n_z: int

    @property
    def dr(self) -> float:
        return self.r_max / self.n_r

    @property
    def dz(self) -> float:
        return (self.z_max - self.z_min) / self.n_z

    @property
    def r(self) -> np.ndarray:
        """Radial node positions, shape (n_r,)."""
        return (np.arange(self.n_r) + 0.5) * self.dr

    @property
    def z(self) -> np.ndarray:
        """Vertical node positions, shape (n_z,)."""
        return self.z_min + (np.arange(self.n_z) + 0.5) * self.dz

    @functools.lru_cache(maxsize=4)
    def cell_measure(self) -> np.ndarray:
        """Cylindrical cell measure 2*pi*r*dr*dz, shape (n_r, n_z), built once
        per grid and read-only; the weighted sums share it.  The broadcast
        `row_measure` gives the same bits, but multiplying by it instead
        raised a 192x384 record inside solves from 4,416 to 7,936 page faults
        and from about 30 to 36 ms."""
        out = np.broadcast_to(row_measure(self)[:, None], (self.n_r, self.n_z)).copy()
        out.flags.writeable = False
        return out


@functools.lru_cache(maxsize=4)
def row_measure(grid: GridSpec) -> np.ndarray:
    """The measure of one cell of each r-row, shape (n_r,), built once and
    read-only; the rearrangement gathers from it."""
    m = 2.0 * np.pi * grid.r * grid.dr * grid.dz
    m.flags.writeable = False
    return m


def make_grid(r_max: float, z_min: float, z_max: float,
              n_r: int, n_z: int) -> GridSpec:
    if not 0 < r_max < np.inf:
        raise ValueError(f"r_max must be positive and finite, got {r_max}")
    if not -np.inf < z_min < z_max < np.inf:
        raise ValueError(f"need finite z_max > z_min, got [{z_min}, {z_max}]")
    if n_r < 4 or n_z < 4:
        raise ValueError(f"need n_r, n_z >= 4, got ({n_r}, {n_z})")
    return GridSpec(float(r_max), float(z_min), float(z_max), int(n_r), int(n_z))


@dataclass
class ScalarField:
    """One real value per node, tagged with a role that fixes axis behaviour."""

    grid: GridSpec
    values: np.ndarray
    role: str = "derived"

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (self.grid.n_r, self.grid.n_z):
            raise ValueError(
                f"field shape {self.values.shape} does not match grid "
                f"({self.grid.n_r}, {self.grid.n_z})")
        if self.role not in ALL_ROLES:
            raise ValueError(f"unknown role {self.role!r}")


def zero_field(grid: GridSpec, role: str = "derived") -> ScalarField:
    return ScalarField(grid, np.zeros((grid.n_r, grid.n_z)), role)


@dataclass
class VelocityField:
    u_r: ScalarField
    u_z: ScalarField

    @property
    def grid(self) -> GridSpec:
        return self.u_r.grid


def axis_ghost(f: ScalarField) -> np.ndarray:
    """Ghost row at r = -dr/2 implied by the field's role, shape (n_z,)."""
    if f.role in ODD_ROLES:
        return -f.values[0]
    if f.role in EVEN_ROLES:
        return f.values[0].copy()
    raise ValueError(f"role {f.role!r} has no axis extension rule")


def ddr(f: ScalarField) -> ScalarField:
    """d/dr, second-order: centered interior, axis ghost at i=0, one-sided at r_max."""
    v = f.values
    g = f.grid
    out = np.empty_like(v)
    h = g.dr
    out[1:-1] = (v[2:] - v[:-2]) / (2 * h)
    out[0] = (v[1] - axis_ghost(f)) / (2 * h)
    out[-1] = (3 * v[-1] - 4 * v[-2] + v[-3]) / (2 * h)
    return ScalarField(g, out, "derived")


def ddz(f: ScalarField) -> ScalarField:
    """d/dz, second-order: centered interior, one-sided at both z boundaries."""
    v = f.values
    g = f.grid
    out = np.empty_like(v)
    h = g.dz
    out[:, 1:-1] = (v[:, 2:] - v[:, :-2]) / (2 * h)
    out[:, 0] = (-3 * v[:, 0] + 4 * v[:, 1] - v[:, 2]) / (2 * h)
    out[:, -1] = (3 * v[:, -1] - 4 * v[:, -2] + v[:, -3]) / (2 * h)
    return ScalarField(g, out, "derived")


def ur_over_r(u: VelocityField) -> ScalarField:
    """Pointwise u^r / r; well defined since all nodes are off-axis."""
    g = u.grid
    return ScalarField(g, u.u_r.values / g.r[:, None], "derived")


def divergence(u: VelocityField) -> ScalarField:
    """Cylindrical divergence d_r u^r + u^r/r + d_z u^z."""
    vals = ddr(u.u_r).values + ur_over_r(u).values + ddz(u.u_z).values
    return ScalarField(u.grid, vals, "derived")


def cylindrical_integral(f: ScalarField) -> float:
    """Sum of f over cells weighted by 2*pi*r*dr*dz, fixed summation order."""
    # weight by the full C-ordered measure, then sum the rows: the product is
    # then C-ordered whatever the layout of f.values, so its row sums do not
    # depend on how the caller's array is laid out
    return float(np.sum((f.values * f.grid.cell_measure()).sum(axis=1)))


# ---------------------------------------------------------------------------
# Snapshot persistence: <path>.bin holds the raw little-endian float64 array
# (row-major, r slow), <path>.hdr is a sidecar text header.

def save_field(path: str, f: ScalarField, time: float = 0.0,
               extra: dict | None = None):
    """Write a snapshot; each `extra` key=value (floats, by repr) joins the header."""
    g = f.grid
    hdr = (
        f"n_r={g.n_r}\n"
        f"n_z={g.n_z}\n"
        f"r_max={g.r_max!r}\n"
        f"z_min={g.z_min!r}\n"
        f"z_max={g.z_max!r}\n"
        f"role={f.role}\n"
        f"time={time!r}\n"
    ) + "".join(f"{k}={v!r}\n" for k, v in (extra or {}).items())
    _atomic_write(path + ".hdr", hdr.encode("utf-8"))
    _atomic_write(path + ".bin", f.values.astype("<f8").tobytes())


def load_header(path: str, types: dict) -> dict:
    """The values of a snapshot header's keys named in `types` (key -> type),
    each converted by its type; a missing key or a value its type refuses
    raises a ValueError naming the file."""
    with open(path + ".hdr", "r", encoding="utf-8") as fh:
        meta = dict(line.strip().partition("=")[::2] for line in fh)
    try:
        return {key: typ(meta[key]) for key, typ in types.items()}
    except KeyError as exc:
        raise ValueError(f"{path}.hdr: header lacks key {exc.args[0]!r}") from None
    except ValueError as exc:
        raise ValueError(f"{path}.hdr: {exc}") from exc


def load_field(path: str) -> tuple[ScalarField, float]:
    """Read a snapshot; a malformed or non-finite one raises a ValueError
    naming its file."""
    meta = load_header(path, {"n_r": int, "n_z": int, "r_max": float, "z_min": float,
                              "z_max": float, "role": str, "time": float})
    try:
        grid = make_grid(meta["r_max"], meta["z_min"], meta["z_max"],
                         meta["n_r"], meta["n_z"])
        if meta["role"] not in ALL_ROLES:
            raise ValueError(f"unknown role {meta['role']!r}")
    except ValueError as exc:
        raise ValueError(f"{path}.hdr: {exc}") from exc
    size = os.path.getsize(path + ".bin")
    if size != 8 * grid.n_r * grid.n_z:
        raise ValueError(f"{path}.bin: {size} bytes, expected 8 per value "
                         f"of a {grid.n_r}x{grid.n_z} grid")
    values = np.fromfile(path + ".bin", dtype="<f8").reshape(grid.n_r, grid.n_z)
    if not np.isfinite(values).all():
        raise ValueError(f"{path}.bin: field is not finite")
    return ScalarField(grid, values, meta["role"]), meta["time"]


def _atomic_write(path: str, data: bytes):
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
