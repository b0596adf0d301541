"""Wave invariants, their transport speeds, and consistency diagnostics.

For a wet column of thickness w = gamma_surface - b the invariants are

    p = u + 2 * sqrt(w)        (inland-running)
    q = u - 2 * sqrt(w)        (offshore-running)

Over a sloping bed their transport speeds pick up the correction
b_x / p_x (resp. b_x / q_x), which blows up wherever the invariant
gradient vanishes while the bed still slopes. Those entries are reported
as signed-infinity markers instead of being divided out; where both the
gradient and the bed slope sit below the threshold the correction is
treated as zero and the cruising speed is returned (the degenerate cases
are classified separately, see the detector module). A marker's sign is
the bed slope's times that of the nearest resolved gradient, looking
toward smaller x first; the rule is applied to all nodes in one array
pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInvariantsError
from .fields import (
    DRY_COLUMN,
    FlowState,
    Grid,
    _ddx_from,
    ddx,
    require_wet,
)

__all__ = [
    "RiemannFields",
    "InlandFields",
    "inland",
    "default_eps_px",
    "compute",
    "reconstruct",
    "characteristic_residual",
]

# Relative floor for |p_x| below which the bed-slope correction is singular.
EPS_PX_SCALE = 1e-8


@dataclass
class RiemannFields:
    """Invariants and transport speeds on the nodes of one state.

    speed_p and speed_q are finite where the gradient in the denominator is
    resolved, and +inf/-inf markers where it vanishes over a sloping bed.
    eps_px records the threshold actually used.
    """

    gamma: np.ndarray
    p: np.ndarray
    q: np.ndarray
    p_x: np.ndarray
    q_x: np.ndarray
    speed_p: np.ndarray
    speed_q: np.ndarray
    eps_px: float


def default_eps_px(p, dx: float) -> float:
    """Scale-aware gradient threshold: EPS_PX_SCALE * max|p| / dx."""
    return _eps_of(np.abs(p), dx)


def _eps_of(abs_p, dx: float) -> float:
    """default_eps_px from |p|."""
    return EPS_PX_SCALE * float(abs_p.max()) / dx


@dataclass
class InlandFields:
    """Depth root, inland invariant and its gradient on the nodes of one state.

    This is what the singular-point detector reads; eps_px records the
    threshold actually used.
    """

    gamma: np.ndarray
    p: np.ndarray
    p_x: np.ndarray
    eps_px: float


def _limit_sign(grad: np.ndarray, b_slope: np.ndarray, resolved: np.ndarray, nodes):
    """Signs of the diverging corrections b_x / grad at the given nodes.

    Each takes the sign of the nearest resolved gradient entry, looking
    toward smaller x first (the side a +x-running wave came from), then
    larger x, and +1 when no entry is resolved; times the bed slope's sign.
    The nearest resolved index on each side comes from a running max/min
    over the resolved positions, so all nodes are served by one array pass.
    """
    n = grad.size
    index = np.arange(n)
    left = np.maximum.accumulate(np.where(resolved, index, -1))[nodes]
    right = np.minimum.accumulate(np.where(resolved, index, n)[::-1])[::-1][nodes]
    nearest = np.where(left >= 0, left, right)
    found = nearest < n
    grad_sign = np.where(found & (grad[np.minimum(nearest, n - 1)] <= 0), -1.0, 1.0)
    bed_sign = np.where(b_slope[nodes] > 0, 1.0, -1.0)
    return bed_sign * grad_sign


def _correction(b_slope: np.ndarray, grad: np.ndarray, eps: float) -> np.ndarray:
    """Bed-slope speed correction b_x / grad with singular entries marked."""
    out = np.zeros_like(grad)
    resolved = np.abs(grad) > eps
    out[resolved] = b_slope[resolved] / grad[resolved]
    singular = np.nonzero(~resolved & (np.abs(b_slope) > eps))[0]
    if singular.size:
        out[singular] = np.inf * _limit_sign(grad, b_slope, resolved, singular)
    return out


def inland(
    state: FlowState, bathy, grid: Grid, eps_px: float | None = None
) -> InlandFields:
    """Wet check, then gamma, p, p_x and the gradient threshold for one state.

    The returned arrays are new.
    """
    b = bathy.eval(grid.x)
    if state.gamma_surface.shape != (grid.n,):
        raise ValueError("state does not match grid")
    gamma, p, p_x = np.empty((3, grid.n))
    # gamma's row takes w and then its root; |p| is needed only until p_x
    # is written, so p_x's row holds it.
    rows = _InlandRows(gamma, gamma, p, p_x, p_x)
    return _refresh_inland(state, b, grid, rows, 0, grid.n, eps_px)[0]


class _InlandRows:
    """The whole-grid rows that _refresh_inland writes, and the shifted
    views of p and p_x that a refresh over every node reads, bound once.

    w may share gamma's row, whose root is then taken in place, and abs_p
    may share p_x's row (see _refresh_inland).
    """

    def __init__(self, gamma, w, p, abs_p, p_x):
        self.gamma, self.w, self.p, self.abs_p, self.p_x = gamma, w, p, abs_p, p_x
        self.stencil = (p[2:], p[:-2], p_x[1:-1])


def _refresh_inland(state: FlowState, b, grid: Grid, rows, lo: int, hi: int, eps_px):
    """inland's fields in rows, recomputed where the state may have changed.

    rows (an _InlandRows) last held the fields of a state equal to this one
    outside the nodes [lo, hi); [0, n) fills them from scratch. w, gamma, p
    and |p| are recomputed on [lo, hi), and p_x wherever its stencil reads
    them (see fields._ddx_from), each with inland's operands. The wet check
    covers [lo, hi), where alone a column can have become dry, and reports
    the same node. The default threshold reads the whole |p| row; abs_p may
    share p_x's row only for [0, n), and is not written when eps_px is
    given. Returns the fields and the span of p_x rewritten.
    """
    whole = hi - lo == grid.n
    cells = (state.gamma_surface, state.velocity, b)
    cells += (rows.w, rows.gamma, rows.p, rows.abs_p)
    if not whole:
        cells = [row[lo:hi] for row in cells]
    surface, velocity, bed, w, g, pw, aw = cells
    np.subtract(surface, bed, out=w)
    require_wet(w, state.t, DRY_COLUMN, first_node=lo)
    np.sqrt(w, out=g)
    np.add(velocity, np.multiply(2.0, g, out=pw), out=pw)
    if eps_px is None:
        np.abs(pw, out=aw)
        eps = _eps_of(rows.abs_p, grid.dx)
    else:
        eps = float(eps_px)
    inner = rows.stencil if whole else None
    span = _ddx_from(rows.p, grid.dx, rows.p_x, lo, hi, inner)
    return InlandFields(rows.gamma, rows.p, rows.p_x, eps), span


def compute(state: FlowState, bathy, grid: Grid, eps_px: float | None = None) -> RiemannFields:
    """Invariants, their gradients, and transport speeds for one state."""
    base = inland(state, bathy, grid, eps_px)
    gamma, p_x, eps = base.gamma, base.p_x, base.eps_px
    u = state.velocity
    q = u - 2.0 * gamma
    q_x = ddx(q, grid)
    b_slope = np.asarray(bathy.slope(grid.x), dtype=float)
    speed_p = gamma + u + _correction(b_slope, p_x, eps)
    # The offshore family transports at -(gamma - u - b_x/q_x); the leading
    # minus sign is part of the stored value.
    speed_q = u - gamma + _correction(b_slope, q_x, eps)
    return RiemannFields(gamma, base.p, q, p_x, q_x, speed_p, speed_q, eps)


def reconstruct(p, q):
    """Invert the invariants: returns (u, gamma). Requires p > q everywhere."""
    pa = np.asarray(p, dtype=float)
    qa = np.asarray(q, dtype=float)
    if pa.shape != qa.shape:
        raise InvalidInvariantsError("p and q must have the same shape")
    if not np.all(pa > qa):
        raise InvalidInvariantsError("need p > q at every node (wet column)")
    u = 0.5 * (pa + qa)
    gamma = 0.25 * (pa - qa)
    return u, gamma


def characteristic_residual(state_a: FlowState, state_b: FlowState, bathy, grid: Grid):
    """Residuals of the characteristic transport laws between two states.

    Checks, at the midpoint time, how well the pair satisfies

        p_t + (gamma + u) p_x = -b_x
        q_t - (gamma - u) q_x = -b_x

    with the time derivative from the state difference and the gradients in
    chain form u_x +/- (surface_x - b_x)/gamma, so a lake at rest cancels to
    rounding. Returns (res_p, res_q) as node arrays.
    """
    ga = state_a.gamma_surface
    gb = state_b.gamma_surface
    if ga.shape != (grid.n,) or gb.shape != (grid.n,):
        raise ValueError("states do not match the grid")
    dt = state_b.t - state_a.t
    if not dt > 0.0:
        raise ValueError("states must be ordered in time, got dt={}".format(dt))
    x = grid.x
    b = np.asarray(bathy.eval(x), dtype=float)
    b_slope = np.asarray(bathy.slope(x), dtype=float)

    def invariants(st):
        w = st.gamma_surface - b
        require_wet(w, st.t, DRY_COLUMN)
        root = np.sqrt(w)
        return st.velocity + 2.0 * root, st.velocity - 2.0 * root

    p_a, q_a = invariants(state_a)
    p_b, q_b = invariants(state_b)

    u_mid = 0.5 * (state_a.velocity + state_b.velocity)
    surf_mid = 0.5 * (ga + gb)
    w_mid = surf_mid - b
    require_wet(
        w_mid, 0.5 * (state_a.t + state_b.t), "dry midpoint column at node {node}"
    )
    gamma_mid = np.sqrt(w_mid)
    u_x = ddx(u_mid, grid)
    excess = ddx(surf_mid, grid) - b_slope
    p_x = u_x + excess / gamma_mid
    q_x = u_x - excess / gamma_mid

    res_p = (p_b - p_a) / dt + (gamma_mid + u_mid) * p_x + b_slope
    res_q = (q_b - q_a) / dt - (gamma_mid - u_mid) * q_x + b_slope
    return res_p, res_q

