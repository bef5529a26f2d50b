"""Time stepping for the reduced (r,z) system.

The evolved unknown is q = omega/r, which satisfies pure transport plus
vertical diffusion and therefore a discrete maximum principle: advection is
semi-Lagrangian with clamped bilinear sampling (monotone), swept over the
grid in blocks of whole r-rows so that its temporaries stay block-sized;
vertical diffusion is backward Euler (an M-matrix solve).  omega = r*q is
derived and the velocity is closed through the stream-function solve each
step.  A direct omega scheme with the stretching term is kept as a
cross-check, and an optional explicit horizontal viscosity eps_h regularizes
the system.

The splitting is multirate.  Each `step` is one diffusion sub-step of
`cfl_dt`, with the eps_h term, a velocity solve and the running integrals'
trapezoids, but the transport runs only once per macro step of up to
MACRO_SUBSTEPS sub-steps: the step that closes a macro step advects q (or
omega, with its stretching factor) over the whole macro step with its own
incoming velocity, before its diffusion (transport last).  A state inside a
macro step therefore carries a transport `lag`: its q is transported only
through t - lag, up to one macro step behind t.

`step` lands on a given time, and a landing always closes the macro step, so
every state it lands on has zero lag and is complete; `run` lands on
SimConfig.landing_times() in turn.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import diagnostics
from .biot_savart import KernelTable, velocity_from_vorticity
from .grid import (GridSpec, ODD_ROLES, ScalarField, VelocityField, axis_ghost,
                   cylindrical_integral, ddz, ur_over_r)

# Step cap of the vertical diffusion, as lambda = dt/dz^2.  Backward Euler is
# stable and monotone at any dt, so this is an accuracy cap: at lambda = 1 its
# first-order time error, O(dt), matches the second-order spatial error,
# O(dz^2).  On a 96x192 ring pair to t = 0.01 the energy balance overshoots by
# 0.0010 of the initial energy at lambda = 1, 0.0037 at 2 and 0.0082 at 4.
DIFFUSION_LAMBDA = 1.0

# Diffusion sub-steps per transport (macro) step, M: a macro step is at most
# dt_cfl_factor * min(M * the sub-step caps, the advective bounds), so the
# transport keeps its own CFL bound.  M = 1 transports every step.  On the
# reference ring at 96x192 to t = 0.1 the relative L^2 difference in q from
# M = 1 is 6.0e-5 at M = 16, 4% of the 96x192 -> 192x384 refinement difference
# (1.4e-3), and 2.0e-4 (14%) at M = 64, so M stays at 16.  The reference run
# (96x192, t = 1) then takes 8.0 s against 15.4 s at M = 1 (one BLAS thread,
# 2-vCPU host), every verdict passing.
MACRO_SUBSTEPS = 16

# a step that ends within this of its landing time lands on it exactly
_EPS_T = 1e-12


@dataclass(frozen=True)
class SimConfig:
    """What a run executes: the grid, the solver settings and the landing
    schedule.  A setting or snapshot time no run can take raises when the
    config is built."""

    grid: GridSpec
    dt_cfl_factor: float = 0.9
    n_theta: int = 64
    eps_h: float = 0.0            # horizontal viscosity (the regularization 1/n)
    t_end: float = 1.0
    cadence: int = 10             # diagnostics every this many steps
    evolve_omega_direct: bool = False
    snapshot_times: tuple = ()    # times the run lands on besides t_end

    def __post_init__(self):
        if not (0 < self.dt_cfl_factor <= 1):
            raise ValueError(f"dt_cfl_factor must be in (0,1], got {self.dt_cfl_factor}")
        if not 0 <= self.eps_h < np.inf:
            raise ValueError(f"eps_h must be finite and >= 0, got {self.eps_h}")
        if not 0 <= self.t_end < np.inf:
            raise ValueError(f"t_end must be finite and >= 0, got {self.t_end}")
        if self.cadence < 1:
            raise ValueError(f"cadence must be >= 1, got {self.cadence}")
        self.landing_times()

    def landing_times(self) -> list[float]:
        """Times the run lands on exactly: the snapshot times but 0, plus
        t_end, sorted.  A time not in [0, t_end], or within _EPS_T of the one
        before it or of 0, raises."""
        t_end = self.t_end
        for s in self.snapshot_times:
            if not 0 <= s <= t_end:
                raise ValueError(f"snapshot time {s!r} is not in [0, t_end = {t_end!r}]")
        targets = sorted(set(float(s) for s in self.snapshot_times if s > 0) | {t_end})
        for prev, t in zip([0.0] + targets, targets):
            if 0 < t - prev <= _EPS_T:
                raise ValueError(f"landing times {prev!r} and {t!r} are within {_EPS_T:g}")
        return targets


@dataclass(frozen=True)
class Carried:
    """What step() carries from state to state besides the fields.  The omega
    snapshot header holds it by field name, for load_state to read back."""

    step_index: int = 0
    # running integrals of SimState.integrands, one trapezoid per step()
    int_sup_ur_over_r: float = 0.0
    twice_int_dz_u_l2_sq: float = 0.0
    lag: float = 0.0    # time not yet transported, up to one macro step


@dataclass
class SimState:
    """The solution at time t.  Its q and omega are transported only through
    t - carried.lag, and a state that step() landed on never lags."""

    t: float
    q: ScalarField
    omega: ScalarField
    u: VelocityField
    carried: Carried = Carried()

    @cached_property
    def integrands(self) -> tuple[float, float]:
        """(sup|u^r/r|, ||dz u||_{L^2}^2) of this state, computed once and
        shared by the trapezoids of step() and the diagnostics record."""
        u = self.u
        sup_uror = float(np.max(np.abs(ur_over_r(u).values)))
        dz_u_sq = cylindrical_integral(
            ScalarField(u.grid, ddz(u.u_r).values ** 2 + ddz(u.u_z).values ** 2))
        return sup_uror, dz_u_sq


def initial_state(q0: ScalarField, config: SimConfig, kt: KernelTable) -> SimState:
    g = config.grid
    omega = ScalarField(g, g.r[:, None] * q0.values, "omega_theta")
    u = velocity_from_vorticity(omega, kt)
    return SimState(0.0, q0, omega, u)


# ---------------------------------------------------------------------------
# interpolation with role-aware axis reflection and zero outer extension

# nodes per block of whole r-rows in the advection sweep (at least one row);
# bounds its temporaries to block size instead of tens of field-sized
# arrays, not a tuning knob
_BLOCK_NODES = 4096


def _source(f: ScalarField) -> tuple[np.ndarray, bool]:
    """f padded with its axis ghost row and a zero outer ring, shape
    (n_r+2, n_z+2), and whether its role is odd across the axis."""
    g = f.grid
    padded = np.zeros((g.n_r + 2, g.n_z + 2))
    padded[1:-1, 1:-1] = f.values
    padded[0, 1:-1] = axis_ghost(f)
    return padded, f.role in ODD_ROLES


def _sample(sources: tuple, grid: GridSpec, r_pts: np.ndarray,
            z_pts: np.ndarray, clamp: bool) -> list:
    """Bilinear samples of each _source at the points; the cell indices and
    the four weights are computed once and shared by all sources."""
    n_r, n_z = grid.n_r, grid.n_z
    pr = np.clip(np.abs(r_pts) / grid.dr + 0.5, 0.0, n_r + 1.0)
    pz = np.clip((z_pts - grid.z_min) / grid.dz + 0.5, 0.0, n_z + 1.0)
    i0 = np.clip(np.floor(pr).astype(np.intp), 0, n_r)
    j0 = np.clip(np.floor(pz).astype(np.intp), 0, n_z)
    fr = pr - i0
    fz = pz - j0
    # flat indices of the four corners in the padded (n_r+2, n_z+2) array
    k00 = i0 * (n_z + 2) + j0
    corners = (k00, k00 + (n_z + 2), k00 + 1, k00 + (n_z + 3))
    w00, w10, w01, w11 = (1 - fr) * (1 - fz), fr * (1 - fz), (1 - fr) * fz, fr * fz

    out = []
    for padded, odd in sources:
        c00, c10, c01, c11 = (padded.take(k) for k in corners)
        val = w00 * c00 + w10 * c10 + w01 * c01 + w11 * c11
        if clamp:
            lo = np.minimum(np.minimum(c00, c10), np.minimum(c01, c11))
            hi = np.maximum(np.maximum(c00, c10), np.maximum(c01, c11))
            val = np.clip(val, lo, hi)
        out.append(np.where(r_pts < 0, -1.0, 1.0) * val if odd else val)
    return out


def _advect(f: ScalarField, u: VelocityField, dt: float) -> np.ndarray:
    """Semi-Lagrangian transport of f by u over dt: clamped bilinear samples
    at the RK2 feet.

    The three padded sources are built once; the feet and the samples are
    then computed block by block, each block about _BLOCK_NODES nodes of
    whole r-rows, and written into one output.  Every node's arithmetic is
    that of a whole-grid sweep, so the result does not depend on the block.
    """
    g = f.grid
    vel = (_source(u.u_r), _source(u.u_z))
    src = (_source(f),)
    out = np.empty((g.n_r, g.n_z))
    rows_per_block = max(1, _BLOCK_NODES // g.n_z)
    for a in range(0, g.n_r, rows_per_block):
        rows = slice(a, a + rows_per_block)
        R, Z = g.r[rows, None], g.z[None, :]
        # RK2 backward characteristic: velocity at the midpoint, then the foot
        ur_m, uz_m = _sample(vel, g, R - 0.5 * dt * u.u_r.values[rows],
                             Z - 0.5 * dt * u.u_z.values[rows], clamp=False)
        out[rows] = _sample(src, g, R - dt * ur_m, Z - dt * uz_m, clamp=True)[0]
    return out


# points per diagonal block of the inverse in _diffuse_z: larger blocks do
# more arithmetic per point, smaller ones more numpy calls per block
_DIFFUSION_BLOCK = 64


@lru_cache(maxsize=4)
def _diffusion_inverse(n: int, lam: float) -> tuple:
    """The inverse of A = tridiag(-lam, 1 + 2 lam, -lam) of size n, as
    _diffuse_z applies it: (diagonal blocks transposed, (nb, b, b); block end
    weights, (nb, b, 2); carries between blocks, (2, nb, nb); carry lifts,
    (nb, 2, b)), read-only.

    With s = lam / r_1, r_1 = (1 + 2 lam + sqrt(1 + 4 lam)) / 2, the root of
    x^2 - (1 + 2 lam) x + lam^2 above lam, and 1-based i, j,

        (A^-1)_ij = s^|i-j| lo_min(i,j) hi_max(i,j) / C,
        lo_i = 1 - s^2i,  hi_i = 1 - s^2(n+1-i),
        C = sqrt(1 + 4 lam) (1 - s^2(n+1)),

    every factor >= 0.  A^-1 is semiseparable: below the diagonal blocks it
    is hi_i s^i times lo_j s^-j, above them the mirror, so the part of the
    sum from outside a block reaches it through two carries, the running
    sums L_i = sum_{j<=i} s^(i-j) lo_j y_j and U_i = sum_{j>i} s^(j-i) hi_j y_j
    at the block's ends.  The last block is padded with zero rows and
    columns when b does not divide n.
    """
    nb = -(-n // _DIFFUSION_BLOCK)
    b = -(-n // nb)
    q = np.sqrt(1.0 + 4.0 * lam)
    s = 2.0 * lam / (1.0 + 2.0 * lam + q)
    i = np.arange(1, nb * b + 1)
    inside = i <= n
    i_in = np.minimum(i, n)
    lo = np.where(inside, 1.0 - s ** (2 * i_in), 0.0).reshape(nb, b)
    hi = np.where(inside, 1.0 - s ** (2 * (n + 1 - i_in)), 0.0).reshape(nb, b)
    c = q * (1.0 - s ** (2 * (n + 1)))
    k = np.arange(b)
    near = s ** np.abs(k[:, None] - k)
    upper = k[:, None] <= k
    # transposed: blocks[x, j, i] = (A^-1)_ij with i, j in block x
    lo_min = np.where(upper, lo[:, :, None], lo[:, None, :])
    hi_max = np.where(upper, hi[:, None, :], hi[:, :, None])
    blocks = near * lo_min * hi_max / c
    # the carries leave a block as L at its last point and U before its
    # first, and enter the next block down (L) or up (U) at its ends
    ends = np.stack([lo * s ** (b - 1 - k), hi * s ** (k + 1)], axis=-1)
    gap = np.abs(np.arange(nb)[:, None] - np.arange(nb))
    far = np.where(gap > 0, s ** (b * np.maximum(gap - 1, 0)), 0.0)
    carries = np.stack([np.tril(far), np.triu(far)])
    lifts = np.stack([hi * s ** (k + 1), lo * s ** (b - 1 - k)], axis=1) / c
    out = (blocks, ends, carries, lifts)
    for a in out:
        a.flags.writeable = False
    return out


def _diffuse_z(values: np.ndarray, grid: GridSpec, dt: float) -> np.ndarray:
    """Backward-Euler vertical diffusion, zero-extension ghosts at the z walls.

    Absorbing walls match the zero-extension convention used everywhere else
    at the outer boundary; reflecting (zero-flux) walls make diffused fields
    pile up against z_min/z_max and visibly break the energy balance once the
    support reaches the truncation margin.

    The solve applies the exact inverse (_diffusion_inverse) in one batched
    matmul of its diagonal blocks along z, plus the carries between blocks;
    no factor is negative, so a non-negative field stays non-negative.
    """
    n_r, n_z = values.shape
    blocks, ends, carries, lifts = _diffusion_inverse(n_z, dt / grid.dz ** 2)
    nb, b = blocks.shape[:2]
    y = values if nb * b == n_z else np.pad(values, ((0, 0), (0, nb * b - n_z)))
    y = y.reshape(n_r, nb, b).transpose(1, 0, 2)
    out = np.empty((n_r, nb * b))
    by_block = out.reshape(n_r, nb, b).transpose(1, 0, 2)
    np.matmul(y, blocks, out=by_block)
    if nb > 1:
        sums = np.matmul(y, ends)                     # (nb, n_r, 2)
        carry = np.empty_like(sums)
        for d in range(2):
            np.matmul(carries[d], sums[..., d], out=carry[..., d])
        # block by block, so that the lift's temporary stays block-sized
        for x in range(nb):
            by_block[x] += carry[x] @ lifts[x]
    return np.ascontiguousarray(out[:, :n_z]) if nb * b > n_z else out


def _horizontal_laplacian(values: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Axisymmetric Delta_h = d_rr + (1/r) d_r, zero outer ghost.  Both schemes
    apply it to the even q = omega/r only, so its even axis ghost is right."""
    n_r = grid.n_r
    dr = grid.dr
    ext = np.empty((n_r + 2, values.shape[1]))
    ext[1:-1] = values
    ext[0] = values[0]
    ext[-1] = 0.0
    d2 = (ext[2:] - 2 * ext[1:-1] + ext[:-2]) / dr ** 2
    d1 = (ext[2:] - ext[:-2]) / (2 * dr)
    return d2 + d1 / grid.r[:, None]


def cfl_dt(state: SimState, config: SimConfig) -> tuple[float, float]:
    """(sub-step, macro-step) bounds from one scan of u: dt_cfl_factor times
    the least of the advective CFL bounds and cap, or MACRO_SUBSTEPS * cap,
    where cap is the lesser of the diffusion accuracy cap DIFFUSION_LAMBDA *
    dz^2 and the stability bound of the explicit eps_h term."""
    # max|u| is NaN or inf exactly when the component is not finite
    max_ur = np.max(np.abs(state.u.u_r.values))
    max_uz = np.max(np.abs(state.u.u_z.values))
    if not (np.isfinite(max_ur) and np.isfinite(max_uz)):
        raise ValueError("velocity field is not finite")
    g = config.grid
    cap = DIFFUSION_LAMBDA * g.dz ** 2
    if config.eps_h > 0:
        cap = min(cap, 0.25 * g.dr ** 2 / config.eps_h)
    adv = min(g.dr / max_ur if max_ur > 0 else np.inf,
              g.dz / max_uz if max_uz > 0 else np.inf)
    f = config.dt_cfl_factor
    return f * min(cap, adv), f * min(MACRO_SUBSTEPS * cap, adv)


def advance_q(q: ScalarField, u: VelocityField, dt: float,
              eps_h: float, transport: float) -> ScalarField:
    """One split step: transport by u over `transport` (none if 0), then
    implicit vertical diffusion (+ eps_h term) over dt."""
    g = q.grid
    vals = _advect(q, u, transport) if transport else q.values
    vals = _diffuse_z(vals, g, dt)
    if eps_h > 0:
        vals = vals + dt * eps_h * _horizontal_laplacian(vals, g)
    return ScalarField(g, vals, q.role)


def advance_omega_direct(omega: ScalarField, u: VelocityField, dt: float,
                         eps_h: float, transport: float) -> ScalarField:
    """Direct omega step: advection and integrating-factor stretching over
    `transport` (none if 0), then diffusion (+ eps_h term,
    r * Delta_h(omega / r): the q equation's operator) over dt.

    The stretching factor exp(transport * u^r/r) uses u frozen at step
    start, so positivity of omega is preserved exactly.
    """
    g = omega.grid
    vals = omega.values
    if transport:
        vals = (_advect(omega, u, transport)
                * np.exp(transport * u.u_r.values / g.r[:, None]))
    vals = _diffuse_z(vals, g, dt)
    if eps_h > 0:
        r = g.r[:, None]
        vals = vals + dt * eps_h * r * _horizontal_laplacian(vals / r, g)
    return ScalarField(g, vals, omega.role)


def step(state: SimState, config: SimConfig, kt: KernelTable,
         land_at: float = np.inf) -> SimState:
    """One complete diffusion sub-step.  dt is cfl_dt's sub-step bound capped
    at land_at - state.t (a land_at not after state.t raises); a step ending
    within _EPS_T of land_at lands on it exactly; both running integrals gain
    the step's trapezoid.

    The step closes the macro step, advecting over the whole lag including
    its own dt, when it lands or when one more step of its dt would take the
    lag past cfl_dt's macro-step bound; otherwise its state lags
    by one more dt.  A landed state has zero lag.
    """
    g = config.grid
    dt_sub, dt_macro = cfl_dt(state, config)
    dt = min(dt_sub, land_at - state.t)
    if not dt > 0:
        raise ValueError(f"non-positive time step {dt!r} at t = {state.t!r}")
    t = state.t + dt
    landed = abs(t - land_at) <= _EPS_T
    if landed:
        t = land_at
    lag = state.carried.lag + dt
    # _EPS_T of slack keeps rounding in the sum of the sub-steps from cutting
    # a macro step short
    closes = landed or lag + dt > dt_macro + _EPS_T
    transport = lag if closes else 0.0
    if config.evolve_omega_direct:
        omega = advance_omega_direct(state.omega, state.u, dt, config.eps_h,
                                     transport)
        q = ScalarField(g, omega.values / g.r[:, None], "q_omega_over_r")
    else:
        q = advance_q(state.q, state.u, dt, config.eps_h, transport)
        omega = ScalarField(g, g.r[:, None] * q.values, "omega_theta")
    new = SimState(t, q, omega, velocity_from_vorticity(omega, kt))
    dt = t - state.t
    (a0, b0), (a1, b1) = state.integrands, new.integrands
    c = state.carried
    new.carried = Carried(step_index=c.step_index + 1, lag=0.0 if closes else lag,
                          int_sup_ur_over_r=c.int_sup_ur_over_r + 0.5 * dt * (a0 + a1),
                          twice_int_dz_u_l2_sq=c.twice_int_dz_u_l2_sq + dt * (b0 + b1))
    return new


@dataclass
class RunResult:
    records: list                      # DiagnosticsRecord per output time
    sup_q_per_step: np.ndarray         # sup|q| after every step, index 0 = initial
    final_state: SimState


class RunFailed(Exception):
    """A run stopped part-way: step `step_index`, which started from time t,
    or the record of its state raised for `reason`."""

    def __init__(self, step_index: int, t: float, reason: str):
        super().__init__(f"step {step_index} from t = {t!r}: {reason}")


def _discard(record, landed):
    """The on_record of a run whose caller keeps only the RunResult."""


def run(config: SimConfig, q0: ScalarField, kt: KernelTable,
        on_record=_discard) -> RunResult:
    """Advance to t_end, collecting diagnostics at the configured cadence.

    The steps land on each of config.landing_times() in turn; a record is
    taken every `cadence` steps and on every landing.  Each record is passed
    to on_record(record, landed) as soon as it is taken, with the state when
    the run landed on it (t = 0, every snapshot time, t_end) and None
    otherwise; run keeps the records but no state except the final one, so
    a caller that writes each landed state and drops it holds no more
    fields however many snapshot times there are.

    step() carries the running integrals, so the record of a given step is
    the same whatever the cadence.  A row between landings may be of a state
    that lags in transport; every landed state has zero lag.  The loop is
    fully deterministic for a given config and initial field.  A ValueError
    or ArithmeticError from a step or a record (such as cfl_dt's non-finite
    velocity) raises RunFailed naming the step; on_record has then been
    given every record taken before it.
    """
    targets = config.landing_times()
    try:
        state = initial_state(q0, config, kt)
        records = [diagnostics.compute_record(state, first=None)]
    except (ValueError, ArithmeticError) as exc:
        raise RunFailed(0, 0.0, str(exc)) from exc
    sup_q = [float(np.max(np.abs(state.q.values)))]
    on_record(records[0], state)
    for target in targets:
        while state.t < target - _EPS_T:
            n, t = state.carried.step_index + 1, state.t
            try:
                state = step(state, config, kt, land_at=target)
                landed = state.t == target
                record = (diagnostics.compute_record(state, first=records[0])
                          if n % config.cadence == 0 or landed
                          else None)
            except (ValueError, ArithmeticError) as exc:
                raise RunFailed(n, t, str(exc)) from exc
            sup_q.append(float(np.max(np.abs(state.q.values))))
            if record is not None:
                records.append(record)
                on_record(record, state if landed else None)
    return RunResult(records, np.asarray(sup_q), state)
