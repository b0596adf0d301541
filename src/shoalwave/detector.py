"""Locating and classifying singular points of the invariant transport speed.

The inland transport speed carries the correction b_x / p_x, so it blows up
wherever the invariant gradient p_x crosses zero while the bed still slopes.
This module finds those points with sub-cell accuracy, sorts each one into an
inland rush, an offshore rush, or an indeterminate configuration from the
local wave shape, and handles the degenerate bed points where b_x vanishes
together with p_x.

Classification reads five local quantities at the crossing: u_x, u_xx, the
surface-minus-bed slope, its derivative, and the depth root gamma. The
crest side (u_x < 0 with the surface pulling away from the bed) promotes to
InlandRush when the velocity peak is concave and the slope excess is
falling; the trough side promotes to OffshoreRush when both curvatures
point the other way and the slope-excess growth clears the magnitude gate
0.5 * u_x**2. Everything else stays Indeterminate.

The surface-minus-bed slope used here is formed as 2 * gamma * ddx(gamma),
i.e. through the same stencil as p_x, which keeps the tangent-match
residual identity r = gamma * p_x exact to rounding.

Per crossing, classify computes those quantities from a six-node window
around x_star with the interior stencils of ddx and d2dx2, bit for bit
what the whole-grid arrays of surface_gradients hold at those nodes; a
crossing whose window reaches a one-sided end stencil falls back to the
whole-grid arrays.
"""

from __future__ import annotations

import enum
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .fields import DRY_COLUMN, FlowState, Grid, Workspace, d2dx2, ddx, require_wet
from .riemann import InlandFields, RiemannFields

__all__ = [
    "Classification",
    "Side",
    "DepthRegime",
    "DegenerateRegime",
    "DegenerateSpec",
    "DetectorConfig",
    "EventDiagnostics",
    "CriticalEvent",
    "CriticalPoint",
    "SurfaceGradients",
    "surface_gradients",
    "find_crossings",
    "find_critical_points",
    "classify",
    "classify_degenerate",
    "tangent_match_residual",
    "alert_nodes",
    "deep_sea_diagnostics",
    "DeepSeaDiagnostics",
]

# Minimum node count for a below-threshold stretch of p_x to count as a
# plateau rather than noise straddling the threshold.
PLATEAU_MIN_RUN = 3

# Depth-regime boundaries relative to the reference depth root.
SHALLOW_FRACTION = 0.1
DEEP_FRACTION = 0.7


class Classification(str, enum.Enum):
    INLAND_RUSH = "InlandRush"
    OFFSHORE_RUSH = "OffshoreRush"
    INDETERMINATE = "Indeterminate"
    DEGENERATE_PLATEAU = "DegeneratePlateau"


class Side(str, enum.Enum):
    CREST = "CrestSide"
    TROUGH = "TroughSide"
    UNKNOWN = "Unknown"


class DepthRegime(str, enum.Enum):
    SHALLOW = "Shallow"
    INTERMEDIATE = "Intermediate"
    DEEP = "Deep"


class DegenerateRegime(str, enum.Enum):
    ORDER_SQRT_DEPTH = "OrderSqrtDepth"
    VANISHING_CORRECTION = "VanishingCorrection"
    SIGNED_INFINITY = "SignedInfinity"


@dataclass(frozen=True)
class DetectorConfig:
    """Thresholds for detection and for the tangent-match alert."""

    eps_px: float | None = None
    alert_eps_r: float = 1e-3
    alert_eps_gamma: float = 0.1


@dataclass(frozen=True)
class CriticalPoint:
    """Sub-cell location where p_x vanishes; plateau marks a whole run."""

    x_star: float
    node_index: int
    plateau: bool = False


@dataclass(frozen=True)
class EventDiagnostics:
    """Local quantities interpolated at x_star."""

    u_x: float
    u_xx: float
    excess_slope: float
    excess_slope_x: float
    gamma: float
    b_x: float


@dataclass(frozen=True)
class CriticalEvent:
    t: float
    x_star: float
    classification: Classification
    side: Side
    diagnostics: EventDiagnostics
    depth_regime: DepthRegime

    def to_record(self, run_id: str | None = None) -> dict:
        """JSON-serializable form, one object per event-log line."""
        rec = {
            "t": self.t,
            "x_star": self.x_star,
            "classification": self.classification.value,
            "side": self.side.value,
            "depth_regime": self.depth_regime.value,
        }
        rec.update(asdict(self.diagnostics))
        if run_id is not None:
            rec["run_id"] = run_id
        return rec


@dataclass(frozen=True)
class DegenerateSpec:
    """Leading-order behavior at a degenerate bed point x*.

    The bed slope vanishes like B1 * (x - x*)**p_exp and the correction's
    denominator ingredients like C1 * (x - x*)**q_exp; gamma_local is the
    depth root at the point. B1 must be nonzero (a flat-at-all-orders bed
    point has no singular correction to classify).
    """

    p_exp: int
    q_exp: int
    B1: float
    C1: float
    gamma_local: float = 1.0

    def __post_init__(self):
        if self.p_exp < 1 or self.q_exp < 1:
            raise ValueError("orders must be >= 1 (both factors vanish at x*)")
        if self.B1 == 0.0:
            raise ValueError("B1 must be nonzero at a degenerate bed point")
        if not self.gamma_local > 0.0:
            raise ValueError("gamma_local must be positive")


class SurfaceGradients(NamedTuple):
    """Node arrays of the local quantities classification interpolates."""

    gamma: np.ndarray
    u_x: np.ndarray
    u_xx: np.ndarray
    excess: np.ndarray
    excess_x: np.ndarray


def surface_gradients(
    state: FlowState, bathy, grid: Grid, gamma: np.ndarray | None = None
) -> SurfaceGradients:
    """Depth root, velocity derivatives and the surface-minus-bed slope.

    gamma, when given, must be the depth root of state, as
    riemann.inland computes it; the bed is then not evaluated again.
    """
    if gamma is None:
        w = state.gamma_surface - bathy.eval(grid.x)
        require_wet(w, state.t, DRY_COLUMN)
        gamma = np.sqrt(w)
    u_x = ddx(state.velocity, grid)
    u_xx = d2dx2(state.velocity, grid)
    excess = 2.0 * gamma * ddx(gamma, grid)
    excess_x = ddx(excess, grid)
    return SurfaceGradients(gamma, u_x, u_xx, excess, excess_x)


def find_crossings(
    fields: RiemannFields | InlandFields,
    bathy,
    grid: Grid,
    eps_px: float | None = None,
    *,
    x: np.ndarray | None = None,
    work: Workspace | None = None,
) -> list[CriticalPoint]:
    """Sign changes of p_x between adjacent resolved nodes, in ascending x.

    Each is interpolated linearly (placement error at most dx/2); one where
    the bed slope sits below the threshold is left out. x, when given, must
    be grid.x; work, when given, holds the search's temporaries.
    """
    eps = fields.eps_px if eps_px is None else float(eps_px)
    px = fields.p_x
    if x is None:
        x = grid.x
    if work is None:
        work = Workspace()
    scratch = work.take("crossings", px.size)
    resolved, crossing = work.take("crossing masks", (2, px.size), bool)
    # crossing = (px[:-1] * px[1:] < 0) & resolved[:-1] & resolved[1:],
    # with resolved = ~(|px| <= eps)
    np.less_equal(np.abs(px, out=scratch), eps, out=resolved)
    np.logical_not(resolved, out=resolved)
    crossing = np.less(
        np.multiply(px[:-1], px[1:], out=scratch[:-1]), 0.0, out=crossing[:-1]
    )
    crossing &= resolved[:-1]
    crossing &= resolved[1:]
    points = []
    for i in np.nonzero(crossing)[0]:
        x_star = x[i] + grid.dx * px[i] / (px[i] - px[i + 1])
        if abs(float(bathy.slope(x_star))) <= eps:
            continue
        points.append(CriticalPoint(float(x_star), int(i), False))
    points.sort(key=lambda pt: pt.x_star)
    return points


def _find_plateaus(
    fields: RiemannFields | InlandFields, bathy, x: np.ndarray, eps_px: float | None
) -> list[CriticalPoint]:
    """Runs of PLATEAU_MIN_RUN or more nodes with |p_x| <= eps_px.

    Each run is reported once, at its center node, in ascending x; one
    where the bed slope sits below the threshold is left out. x holds the
    node coordinates.
    """
    eps = fields.eps_px if eps_px is None else float(eps_px)
    small = np.abs(fields.p_x) <= eps
    padded = np.concatenate(([False], small, [False]))
    edges = np.diff(padded.astype(np.int8))
    starts = np.nonzero(edges == 1)[0]
    stops = np.nonzero(edges == -1)[0]
    points = []
    for start, stop in zip(starts, stops):
        if stop - start < PLATEAU_MIN_RUN:
            continue
        center = (start + stop - 1) // 2
        x_star = float(x[center])
        if abs(float(bathy.slope(x_star))) <= eps:
            continue
        points.append(CriticalPoint(x_star, int(center), True))
    return points


def find_critical_points(
    fields: RiemannFields | InlandFields, bathy, grid: Grid, eps_px: float | None = None
) -> list[CriticalPoint]:
    """Locate vanishing-p_x points, sub-cell, in ascending x order.

    The union of find_crossings and the plateau search: sign changes between
    adjacent resolved nodes are interpolated linearly (placement error at
    most dx/2), and runs of PLATEAU_MIN_RUN or more nodes with
    |p_x| <= eps_px are reported once, at the run center. Points where the
    bed slope itself sits below the threshold are excluded; they belong to
    the degenerate analysis (classify_degenerate), not to the rush
    detector.
    """
    x = grid.x
    points = find_crossings(fields, bathy, grid, eps_px, x=x)
    points += _find_plateaus(fields, bathy, x, eps_px)
    points.sort(key=lambda pt: pt.x_star)
    return points


def _between(x_star: float, x0: float, x1: float, f0: float, f1: float) -> float:
    """np.interp's value strictly inside the bracket x0 < x_star < x1."""
    slope = (f1 - f0) / (x1 - x0)
    value = slope * (x_star - x0) + f0
    if value != value:  # NaN one way: try from the other end
        value = slope * (x_star - x1) + f1
        if value != value and f0 == f1:
            value = f0
    return value


def _local_diagnostics(
    x_star: float, gamma: np.ndarray, velocity: np.ndarray, grid: Grid, x: np.ndarray
) -> tuple | None:
    """(u_x, u_xx, excess, excess_x, gamma) at x_star from six nodes.

    With x[i] <= x_star < x[i+1], the values at nodes i and i+1 come from
    gamma[i-2:i+4] and velocity[i-1:i+3] through the interior stencils of
    ddx and d2dx2, operand for operand, and are interpolated as np.interp
    interpolates, so each equals np.interp over the surface_gradients
    arrays bit for bit. None when the window reaches a one-sided end
    stencil (i < 2 or i > n - 4) or x does not bracket x_star at the
    node the spacing points to.
    """
    x_star = float(x_star)
    i = int((x_star - grid.x0) / grid.dx)
    if i < 2 or i > grid.n - 4:
        return None
    x0, x1 = x[i : i + 2].tolist()
    if not x0 <= x_star < x1:
        return None
    inv2 = 1.0 / (2.0 * grid.dx)
    inv = 1.0 / grid.dx**2
    g = gamma[i - 2 : i + 4].tolist()
    u = velocity[i - 1 : i + 3].tolist()
    # excess = 2.0 * gamma * ddx(gamma) at nodes i-1 .. i+2
    e = [2.0 * g[k] * ((g[k + 1] - g[k - 1]) * inv2) for k in range(1, 5)]
    left, right = (
        (
            (u[k + 1] - u[k - 1]) * inv2,
            (u[k + 1] - 2.0 * u[k] + u[k - 1]) * inv,
            e[k],
            (e[k + 1] - e[k - 1]) * inv2,
            g[k + 1],
        )
        for k in (1, 2)
    )
    if x_star == x0:
        return left
    return tuple(_between(x_star, x0, x1, f0, f1) for f0, f1 in zip(left, right))


def classify(
    x_star: float,
    fields: RiemannFields | InlandFields,
    state: FlowState,
    bathy,
    grid: Grid,
    *,
    gamma_ref: float | None = None,
    plateau: bool = False,
    gradients: SurfaceGradients | None = None,
    x: np.ndarray | None = None,
) -> CriticalEvent:
    """Classify the singular point at x_star from the local wave shape.

    gamma_ref anchors the depth regime (defaults to the largest depth root
    in the analyzed fields; a driver tracking a whole run should pass the
    initial maximum). plateau=True labels the point DegeneratePlateau,
    which never claims an infinite speed. x, when given, must be grid.x.

    Without gradients the local quantities come from the six nodes around
    x_star, or, where that window reaches an end of the grid, from
    surface_gradients(state, bathy, grid, fields.gamma); the bed is not
    evaluated either way. gradients, when given, must be
    surface_gradients(state, bathy, grid) and are read instead; a caller
    that needs the whole-grid arrays anyway passes them.
    """
    if x is None:
        x = grid.x
    if not x[0] <= x_star <= x[-1]:
        raise DomainError("x_star={} outside grid [{}, {}]".format(x_star, x[0], x[-1]))
    local = None
    if gradients is None:
        local = _local_diagnostics(x_star, fields.gamma, state.velocity, grid, x)
        if local is None:
            gradients = surface_gradients(state, bathy, grid, fields.gamma)
    if local is None:
        local = tuple(
            float(np.interp(x_star, x, arr))
            for arr in (
                gradients.u_x,
                gradients.u_xx,
                gradients.excess,
                gradients.excess_x,
                gradients.gamma,
            )
        )
    u_x, u_xx, excess, excess_x, gamma = local
    diagnostics = EventDiagnostics(
        u_x=u_x,
        u_xx=u_xx,
        excess_slope=excess,
        excess_slope_x=excess_x,
        gamma=gamma,
        b_x=float(bathy.slope(x_star)),
    )

    ref = float(np.max(fields.gamma)) if gamma_ref is None else float(gamma_ref)
    if gamma <= SHALLOW_FRACTION * ref:
        regime = DepthRegime.SHALLOW
    elif gamma >= DEEP_FRACTION * ref:
        regime = DepthRegime.DEEP
    else:
        regime = DepthRegime.INTERMEDIATE

    if plateau:
        return CriticalEvent(
            state.t, x_star, Classification.DEGENERATE_PLATEAU, Side.UNKNOWN,
            diagnostics, regime,
        )

    if u_x < 0.0 and excess > 0.0:
        side = Side.CREST
    elif u_x > 0.0 and excess < 0.0:
        side = Side.TROUGH
    else:
        side = Side.UNKNOWN

    classification = Classification.INDETERMINATE
    if side is Side.CREST and u_xx < 0.0 and excess_x < 0.0:
        classification = Classification.INLAND_RUSH
    elif side is Side.TROUGH and u_xx > 0.0 and excess_x > 0.5 * u_x**2:
        classification = Classification.OFFSHORE_RUSH

    return CriticalEvent(state.t, x_star, classification, side, diagnostics, regime)


def classify_degenerate(spec: DegenerateSpec) -> DegenerateRegime:
    """Resolve the 0/0 correction at a degenerate bed point.

    With the bed slope vanishing at order p_exp (coefficient B1) and the
    denominator ingredients at order q_exp (coefficient C1):

    - q_exp > p_exp: the correction scales like the depth root near the
      point (OrderSqrtDepth);
    - q_exp < p_exp: the correction vanishes (VanishingCorrection);
    - equal orders with C1 != B1: again OrderSqrtDepth;
    - equal orders with C1 == B1: the correction diverges with a definite
      sign from each side (SignedInfinity).
    """
    if spec.q_exp > spec.p_exp:
        return DegenerateRegime.ORDER_SQRT_DEPTH
    if spec.q_exp < spec.p_exp:
        return DegenerateRegime.VANISHING_CORRECTION
    if spec.C1 == spec.B1:
        return DegenerateRegime.SIGNED_INFINITY
    return DegenerateRegime.ORDER_SQRT_DEPTH


def tangent_match_residual(
    state: FlowState, bathy, grid: Grid, gradients: SurfaceGradients | None = None
) -> np.ndarray:
    """Node residual r = (surface_x - b_x) + u_x * gamma.

    Algebraically r equals gamma * p_x, so |r| -> 0 with small gamma is the
    configuration in which the surface slope tangentially matches the bed
    slope while the column is thin: the precursor the alert thresholds are
    aimed at. gradients, when given, must be surface_gradients(state,
    bathy, grid).
    """
    if gradients is None:
        gradients = surface_gradients(state, bathy, grid)
    return gradients.excess + gradients.u_x * gradients.gamma


def alert_nodes(
    state: FlowState,
    bathy,
    grid: Grid,
    alert_eps_r: float = 1e-3,
    alert_eps_gamma: float = 0.1,
    gradients: SurfaceGradients | None = None,
) -> np.ndarray:
    """Boolean mask of nodes in the dangerous small-r, small-gamma corner.

    gradients, when given, must be surface_gradients(state, bathy, grid).
    """
    if gradients is None:
        gradients = surface_gradients(state, bathy, grid)
    r = gradients.excess + gradients.u_x * gradients.gamma
    return (np.abs(r) <= alert_eps_r) & (gradients.gamma <= alert_eps_gamma)


@dataclass(frozen=True)
class DeepSeaDiagnostics:
    """Per-node deep-water indicators plus their maxima."""

    sound_speed: np.ndarray
    amplitude_indicator: np.ndarray
    max_sound_speed: float
    max_amplitude_indicator: float


def deep_sea_diagnostics(
    state: FlowState, bathy, grid: Grid, mean_depth: float
) -> DeepSeaDiagnostics:
    """Signal speed sqrt(depth) and |surface - mean| / sqrt(depth) per node.

    mean_depth is the rest surface level; for a state at rest at that level
    the amplitude indicator is identically zero.
    """
    w = state.gamma_surface - bathy.eval(grid.x)
    require_wet(w, state.t, "dry column at node {node}")
    speed = np.sqrt(w)
    indicator = np.abs(state.gamma_surface - mean_depth) / speed
    return DeepSeaDiagnostics(
        sound_speed=speed,
        amplitude_indicator=indicator,
        max_sound_speed=float(np.max(speed)),
        max_amplitude_indicator=float(np.max(indicator)),
    )
