"""Experiment configuration, initial data, and run persistence."""

from __future__ import annotations

import contextlib
import os
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import diagnostics
from .biot_savart import KernelTable
from .evolution import Carried, RunFailed, RunResult, SimConfig, SimState, run
from .grid import (GridSpec, ScalarField, _atomic_write, load_field, load_header,
                   make_grid, save_field)

SUPPORT_THRESHOLD = 1e-10   # relative cut defining the numerical support
MARGIN_FRACTION = 0.25      # support must stay this far (x extent) from boundaries

@dataclass(frozen=True)
class InitialData:
    kind: str = "gaussian_ring"
    amplitude: float = 1.0
    r0: float = 0.5
    z0: float = 0.0
    sigma: float = 0.15
    patch_radius: float = 0.3
    separation: float = 0.25

    def __post_init__(self):
        if self.kind not in _PROFILES:
            raise ValueError(f"kind must be one of {tuple(_PROFILES)}, "
                             f"got {self.kind!r}")
        # a NaN would slip past the margin check, which compares against it
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not np.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value!r}")
        for key in ("sigma", "patch_radius"):
            if not getattr(self, key) > 0:
                raise ValueError(f"{key} must be positive, got {getattr(self, key)!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    initial: InitialData = field(default_factory=InitialData)
    r_max: float = 2.0
    z_min: float = -2.0
    z_max: float = 2.0
    n_r: int = 96
    n_z: int = 192
    n_theta: int = SimConfig.n_theta
    dt_cfl_factor: float = SimConfig.dt_cfl_factor
    eps_h: float = SimConfig.eps_h
    t_end: float = SimConfig.t_end
    cadence: int = SimConfig.cadence
    evolve_omega_direct: bool = SimConfig.evolve_omega_direct
    snapshot_times: tuple = SimConfig.snapshot_times
    out_dir: str = "out"

    def __post_init__(self):
        """Refuse a grid, solver setting or snapshot time no run can take
        (sim_config() builds the SimConfig, which checks itself), then two
        landing times that share a snapshot file name."""
        seen = {}
        # a set: with t_end = 0 the landing times are [0.0]
        for t in sorted({0.0, *self.sim_config().landing_times()}):
            name = snapshot_paths("", t)[0]
            if name in seen:
                raise ValueError(f"snapshot times {seen[name]!r} and {t!r} share the "
                                 f"file name {name}; space them at least 1e-6 apart")
            seen[name] = t

    def grid(self) -> GridSpec:
        return make_grid(self.r_max, self.z_min, self.z_max, self.n_r, self.n_z)

    def sim_config(self) -> SimConfig:
        """The solver settings: every SimConfig field this config shares by name."""
        own = {f.name for f in fields(self)}
        return SimConfig(grid=self.grid(),
                         **{f.name: getattr(self, f.name)
                            for f in fields(SimConfig) if f.name in own})


def _ring(d: InitialData, R, Z, shift: float = 0.0):
    return np.exp(-((R - d.r0) ** 2 + (Z - d.z0 - shift) ** 2) / d.sigma ** 2)


# q0 profile of each initial data kind, before scaling by the amplitude
_PROFILES = {
    "gaussian_ring": _ring,
    "yudovich_patch": lambda d, R, Z: ((R - d.r0) ** 2 + (Z - d.z0) ** 2
                                       < d.patch_radius ** 2),
    "ring_pair": lambda d, R, Z: (_ring(d, R, Z, d.separation)
                                  - _ring(d, R, Z, -d.separation)),
}


def build_initial(d: InitialData, g: GridSpec) -> ScalarField:
    """Initial q0 = omega0/r on the grid; rejects data leaking into the margin."""
    vals = d.amplitude * _PROFILES[d.kind](d, g.r[:, None], g.z[None, :])
    f = ScalarField(g, vals.astype(np.float64), "q_omega_over_r")
    if support_margin_violation(f):
        raise ValueError(
            "initial data support reaches the outer boundary margin "
            f"({MARGIN_FRACTION:.0%} of the box)")
    return f


def support_margin_violation(f: ScalarField) -> bool:
    """True when the numerical support intrudes into the truncation margin."""
    vmax = float(np.max(np.abs(f.values)))
    if vmax == 0.0:
        return False
    g = f.grid
    mask = np.abs(f.values) > SUPPORT_THRESHOLD * vmax
    i, j = np.nonzero(mask)
    r_hi = g.r_max - MARGIN_FRACTION * g.r_max
    z_margin = MARGIN_FRACTION * (g.z_max - g.z_min)
    return bool(np.any(g.r[i] > r_hi)
                or np.any(g.z[j] < g.z_min + z_margin)
                or np.any(g.z[j] > g.z_max - z_margin))


# ---------------------------------------------------------------------------
# flat key=value config files: one key per field of InitialData and of
# ExperimentConfig, parsed and formatted by the field's declared type

def _parse_bool(val: str) -> bool:
    if val.lower() in ("true", "1", "yes"):
        return True
    if val.lower() in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {val!r}")


def _parse_positive_int(val: str) -> int:
    iv = int(val)
    if iv <= 0:
        raise ValueError(f"must be positive, got {iv}")
    return iv


def _parse_times(val: str) -> tuple:
    return tuple(float(s) for s in val.split(",")) if val else ()


# declared field type, as its annotation names it (this module's annotations
# are strings), -> text parser, and -> text formatter
_PARSERS = {"str": str, "float": float, "int": _parse_positive_int,
            "bool": _parse_bool, "tuple": _parse_times}
_FORMATTERS = {"str": str, "float": repr, "int": str, "bool": lambda v: str(v).lower(),
               "tuple": lambda ts: ",".join(repr(t) for t in ts)}


def _config_keys(cls) -> dict:
    """Key -> declared type name for the fields of cls whose type has a
    parser: every field but the nested InitialData."""
    return {f.name: f.type for f in fields(cls) if f.type in _PARSERS}


def _parse_lines(text: str) -> dict:
    """Key -> parsed value of each key=value line of text.  An unknown key, a
    repeated key or a value that does not parse raises naming its line."""
    keys = {**_config_keys(InitialData), **_config_keys(ExperimentConfig)}
    values, linenos = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key=value, got {raw!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        if key not in keys:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        if key in linenos:
            raise ValueError(f"line {lineno}: key {key!r} repeats line {linenos[key]}")
        linenos[key] = lineno
        try:
            values[key] = _PARSERS[keys[key]](val)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: key {key!r}: {exc}") from None
    return values


def parse_config(text: str) -> ExperimentConfig:
    values = _parse_lines(text)
    initial = {k: values.pop(k) for k in _config_keys(InitialData) if k in values}
    return ExperimentConfig(initial=InitialData(**initial), **values)


def format_config(cfg: ExperimentConfig) -> str:
    """Canonical text form, parse_config(format_config(c)) == c: a value that
    its line would not read back as raises a ValueError naming the key."""
    text = ""
    for obj in (cfg.initial, cfg):
        for key, typ in _config_keys(type(obj)).items():
            value = getattr(obj, key)
            line = f"{key} = {_FORMATTERS[typ](value)}\n"
            with contextlib.suppress(ValueError):
                if _parse_lines(line) == {key: value}:
                    text += line
                    continue
            raise ValueError(f"{key} = {value!r} would not read back from config.txt")
    return text


# ---------------------------------------------------------------------------
# run orchestration

def run_experiment(cfg: ExperimentConfig, out_dir: str | None = None,
                   kt: KernelTable | None = None) -> tuple[RunResult, list]:
    """Execute the configured run, writing its directory as the run reaches
    each output; return the result and the verdicts.

    A rejected run writes nothing: the config checks itself as it takes the
    directory written, then config.txt must read back as it (format_config)
    and the initial data keep clear of the margin (build_initial, which needs
    the initial field that check never builds).  Then config.txt, whose
    out_dir is the directory written, and the CSV header are written; each
    record is appended to diagnostics.csv and flushed as run() takes it, and
    each landed state is saved at once as a q/omega snapshot pair, so no
    state outlives its write.  summary.txt, with the verdicts, comes last; a
    summary.txt left by an earlier run is removed first, so a run directory
    without one holds a run that did not finish.  A run that fails part-way
    (RunFailed) leaves the rows taken so far and a summary.txt naming the
    failing step, its t and the reason, and the RunFailed propagates.
    """
    out = out_dir if out_dir is not None else cfg.out_dir
    cfg = replace(cfg, out_dir=out)
    text = format_config(cfg)
    if kt is None:
        kt = KernelTable()
    q0 = build_initial(cfg.initial, cfg.grid())
    os.makedirs(out, exist_ok=True)
    summary = os.path.join(out, "summary.txt")
    with contextlib.suppress(FileNotFoundError):
        os.remove(summary)
    _atomic_write(os.path.join(out, "config.txt"), text.encode("utf-8"))

    with open(os.path.join(out, "diagnostics.csv"), "wb") as csv_file:
        csv_file.write(diagnostics.CSV_HEADER.encode("utf-8"))
        csv_file.flush()

        def on_record(record, landed):
            csv_file.write(diagnostics.format_row(record).encode("utf-8"))
            csv_file.flush()
            if landed is not None:
                q_path, omega_path = snapshot_paths(out, landed.t)
                save_field(q_path, landed.q, time=landed.t)
                save_field(omega_path, landed.omega, time=landed.t,
                           extra=asdict(landed.carried))

        try:
            result = run(cfg.sim_config(), q0, kt=kt, on_record=on_record)
        except RunFailed as exc:
            _atomic_write(summary, f"run: FAIL at {exc}\n".encode("utf-8"))
            raise

    verdicts = run_checks(result.records)
    _atomic_write(summary, ("".join(v.line() + "\n" for v in verdicts)).encode("utf-8"))
    return result, verdicts


def snapshot_paths(run_dir: str, t: float) -> tuple[str, str]:
    """Paths (without extension) of the q and omega snapshots at time t."""
    tag = f"{t:.6f}"
    return (os.path.join(run_dir, f"q_t{tag}"),
            os.path.join(run_dir, f"omega_t{tag}"))


def load_state(run_dir: str, t: float, kt: KernelTable) -> SimState:
    """The state a run saved at time t: its fields, what step() carried to it
    from the omega header, and kt, which rebuilds the velocity from omega
    when it is read."""
    q_path, omega_path = snapshot_paths(run_dir, t)
    q, t_saved = load_field(q_path)
    omega, _ = load_field(omega_path)
    types = {k: type(v) for k, v in asdict(Carried()).items()}
    return SimState(t_saved, q, omega, kt, Carried(**load_header(omega_path, types)))


def run_checks(records: list) -> list:
    return [
        diagnostics.energy_check(records),
        diagnostics.max_principle_check(records),
        diagnostics.growth_check(records),
        diagnostics.sqrt_t_check(records),
        diagnostics.dr_omega_monitor(records),
    ]
