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

Per point, classify computes those quantities from the six nodes around
x_star (the eight end nodes near a grid end) with the stencils of ddx and
d2dx2, the one-sided ones at the grid ends included, and interpolates
them as np.interp would over the whole-grid arrays, bit for bit. The bed
slope at the point comes from the point itself, which the search evaluated
for its filter.
"""

from __future__ import annotations

import enum
import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DomainError, NumericBlowUpError
from .fields import DRY_COLUMN, FlowState, Grid, d2dx2, ddx, require_wet
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

    def __post_init__(self):
        for name, value in vars(self).items():
            if not ((value is None and name == "eps_px") or 0.0 < value < math.inf):
                raise ValueError(
                    "{} must be positive and finite, got {}".format(name, value)
                )


@dataclass(frozen=True)
class CriticalPoint:
    """Sub-cell location where p_x vanishes, with the bed slope b_x there.

    plateau marks a whole run of vanishing p_x rather than a sign change.
    """

    x_star: float
    node_index: int
    plateau: bool
    b_x: float


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
    point has no singular correction to classify); B1, C1 and gamma_local
    must be finite.
    """

    p_exp: int
    q_exp: int
    B1: float
    C1: float
    gamma_local: float = 1.0

    def __post_init__(self):
        if self.p_exp < 1 or self.q_exp < 1:
            raise ValueError("orders must be >= 1 (both factors vanish at x*)")
        if not all(map(math.isfinite, (self.B1, self.C1, self.gamma_local))):
            raise ValueError("B1, C1 and gamma_local must be finite")
        if self.B1 == 0.0:
            raise ValueError("B1 must be nonzero at a degenerate bed point")
        if not self.gamma_local > 0.0:
            raise ValueError("gamma_local must be positive")


@np.errstate(over="ignore", invalid="ignore")
def find_crossings(
    fields: RiemannFields | InlandFields,
    bathy,
    grid: Grid,
    eps_px: float | None = None,
    *,
    x: np.ndarray | None = None,
) -> list[CriticalPoint]:
    """Sign changes of p_x between adjacent resolved nodes, in ascending x.

    Each is interpolated linearly (placement error at most dx/2); one where
    the bed slope sits below the threshold is left out. An infinite p_x
    beside a sign change raises NumericBlowUpError, without a NumPy
    warning. x, when given, must be grid.x.
    """
    eps = fields.eps_px if eps_px is None else float(eps_px)
    px = fields.p_x
    if x is None:
        x = grid.x
    pairs = np.empty(px.size - 1, bool)
    products = np.empty(px.size - 1)
    _mark_pairs(px[:-1], px[1:], pairs, products, 0, px.size)
    return _crossings(px, pairs.nonzero()[0].tolist(), eps, bathy, x, grid.dx)


def _mark_pairs(left, right, pairs, products, lo: int, hi: int) -> None:
    """Rewrite pairs[i] = px[i] * px[i + 1] < 0 wherever px[lo:hi] is read,
    given left = px[:-1] and right = px[1:].

    Those are the pairs [lo - 1, hi), clipped to the left.size pairs;
    products is scratch of the pairs' length. A caller that marks every
    pair on each call binds left and right once.
    """
    a, b = max(lo - 1, 0), min(hi, left.size)
    if b - a < left.size:
        rows = (left, right, pairs, products)
        left, right, pairs, products = [row[a:b] for row in rows]
    np.less(np.multiply(left, right, out=products), 0.0, out=pairs)


def _crossings(px, nodes, eps: float, bathy, x, dx: float) -> list[CriticalPoint]:
    """find_crossings over the sign changes between px[i] and px[i + 1]
    for each i of nodes, a list of ints in ascending order.

    Both nodes of a crossing must be resolved: not |p_x| <= eps, which a
    NaN threshold resolves every node for. An infinite p_x beside a sign
    change (p_x overflowed on a finite p) leaves no place for the crossing
    and raises NumericBlowUpError naming its node.
    """
    points = []
    # Python floats throughout: the same bits as NumPy scalars, for less.
    for i in nodes:
        left, right = px[i : i + 2].tolist()
        if abs(left) <= eps or abs(right) <= eps:
            continue
        if math.isinf(left) or math.isinf(right):
            node = i if math.isinf(left) else i + 1
            message = "non-finite p_x at node {}".format(node)
            raise NumericBlowUpError(message, node=node)
        x_star = x.item(i) + dx * left / (left - right)
        b_x = float(bathy.slope(x_star))
        if abs(b_x) <= eps:
            continue
        points.append(CriticalPoint(x_star, i, False, b_x))
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
        b_x = float(bathy.slope(x_star))
        if abs(b_x) <= eps:
            continue
        points.append(CriticalPoint(x_star, int(center), True, b_x))
    return points


@np.errstate(over="ignore", invalid="ignore")
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
) -> tuple:
    """(u_x, u_xx, excess, excess_x, gamma) at x_star from the nodes around it.

    The bracket x[i] <= x_star < x[i+1] is the one np.interp finds; an
    x_star on the last node takes that node's values. The values at nodes
    i and i+1 come from gamma and velocity at nodes i-2 .. i+3 through the
    stencils of ddx and d2dx2 operand for operand, and are interpolated as
    np.interp interpolates. So each equals np.interp over the whole-grid
    arrays bit for bit. x_star must lie in [x[0], x[-1]].

    Away from the ends every stencil read is central and computed on
    Python floats; a bracket within two nodes of an end takes ddx and
    d2dx2 over the eight end nodes, one-sided at the grid's end.
    """
    n = grid.n
    # The spacing points to the bracket up to rounding; x decides.
    i = int((x_star - grid.x0) / grid.dx)
    if i > n - 2:
        i = n - 2
    x0, x1 = x[i : i + 2].tolist()
    while x_star < x0 and i > 0:
        i -= 1
        x0, x1 = x[i : i + 2].tolist()
    while x_star >= x1 and i < n - 2:
        i += 1
        x0, x1 = x[i : i + 2].tolist()
    if 2 <= i <= n - 4:  # every stencil read here is central
        inv2 = 1.0 / (2.0 * grid.dx)
        inv = 1.0 / grid.dx**2
        g0, g1, g2, g3, g4, g5 = gamma[i - 2 : i + 4].tolist()
        u1, u2, u3, u4 = velocity[i - 1 : i + 3].tolist()
        # excess = 2.0 * gamma * ddx(gamma) at nodes i-1 .. i+2
        e1 = 2.0 * g1 * ((g2 - g0) * inv2)
        e2 = 2.0 * g2 * ((g3 - g1) * inv2)
        e3 = 2.0 * g3 * ((g4 - g2) * inv2)
        e4 = 2.0 * g4 * ((g5 - g3) * inv2)
        left = ((u3 - u1) * inv2, (u3 - 2.0 * u2 + u1) * inv, e2, (e3 - e1) * inv2, g2)
        right = ((u4 - u2) * inv2, (u4 - 2.0 * u3 + u2) * inv, e3, (e4 - e2) * inv2, g3)
    else:
        # Within two nodes of an end: ddx and d2dx2 over the eight end
        # nodes. Only the grid's end is read one-sided; every other node
        # read here gets the central stencil that the grid gives it. Unlike
        # float arithmetic, NumPy warns on overflow, and classify may run
        # outside run's errstate.
        lo = 0 if i < 2 else n - 8
        end = Grid(float(x[lo]), grid.dx, 8)
        g = gamma[lo : lo + 8]
        u = velocity[lo : lo + 8]
        with np.errstate(over="ignore", invalid="ignore"):
            excess = 2.0 * g * ddx(g, end)
            rows = (ddx(u, end), d2dx2(u, end), excess, ddx(excess, end), g)
        rows = [row.tolist() for row in rows]
        left, right = (tuple(row[k] for row in rows) for k in (i - lo, i + 1 - lo))
    if x_star >= x1:  # on the last node
        return right
    if x_star == x0:
        return left
    return tuple([_between(x_star, x0, x1, f0, f1) for f0, f1 in zip(left, right)])


def classify(
    point: CriticalPoint,
    fields: RiemannFields | InlandFields,
    state: FlowState,
    grid: Grid,
    *,
    gamma_ref: float | None = None,
    x: np.ndarray | None = None,
) -> CriticalEvent:
    """Classify the singular point from the local wave shape.

    The local quantities come from the nodes around point.x_star (see
    _local_diagnostics) and the bed slope from point.b_x, so the bed is
    not evaluated. gamma_ref anchors the depth regime (defaults to the
    largest depth root in the analyzed fields; a caller tracking a whole
    run should pass the initial maximum). A plateau point is labelled
    DegeneratePlateau, which never claims an infinite speed. x, when
    given, must be grid.x.
    """
    if x is None:
        x = grid.x
    verdict = _assess(point, fields.gamma, state.velocity, grid, x, gamma_ref)
    classification, side, regime, (u_x, u_xx, excess, excess_x, gamma) = verdict
    diagnostics = EventDiagnostics(
        u_x=u_x,
        u_xx=u_xx,
        excess_slope=excess,
        excess_slope_x=excess_x,
        gamma=gamma,
        b_x=point.b_x,
    )
    return CriticalEvent(
        state.t, point.x_star, classification, side, diagnostics, regime
    )


def _assess(point: CriticalPoint, gamma, velocity, grid: Grid, x, gamma_ref) -> tuple:
    """classify's verdict without its records.

    Returns (classification, side, depth_regime, local) with local the
    tuple (u_x, u_xx, excess_slope, excess_slope_x, gamma) at the point;
    gamma_ref None reads the largest entry of gamma.
    """
    x_star = point.x_star
    if not x[0] <= x_star <= x[-1]:
        raise DomainError("x_star={} outside grid [{}, {}]".format(x_star, x[0], x[-1]))
    local = _local_diagnostics(x_star, gamma, velocity, grid, x)
    u_x, u_xx, excess, excess_x, gamma_star = local

    ref = float(np.max(gamma)) if gamma_ref is None else float(gamma_ref)
    if gamma_star <= SHALLOW_FRACTION * ref:
        regime = DepthRegime.SHALLOW
    elif gamma_star >= DEEP_FRACTION * ref:
        regime = DepthRegime.DEEP
    else:
        regime = DepthRegime.INTERMEDIATE

    if point.plateau:
        return Classification.DEGENERATE_PLATEAU, Side.UNKNOWN, regime, local

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
    return classification, side, regime, local


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
    state: FlowState, bathy, grid: Grid, gamma: np.ndarray | None = None
) -> np.ndarray:
    """Node residual r = (surface_x - b_x) + u_x * gamma.

    Algebraically r equals gamma * p_x, so |r| -> 0 with small gamma is the
    configuration in which the surface slope tangentially matches the bed
    slope while the column is thin: the precursor the alert thresholds are
    aimed at. gamma, when given, must be the depth root of state, as
    riemann.inland computes it; the bed is then not evaluated.
    """
    if gamma is None:
        w = state.gamma_surface - bathy.eval(grid.x)
        require_wet(w, state.t, DRY_COLUMN)
        gamma = np.sqrt(w)
    return 2.0 * gamma * ddx(gamma, grid) + ddx(state.velocity, grid) * gamma


def alert_nodes(
    residual: np.ndarray,
    gamma: np.ndarray,
    alert_eps_r: float = DetectorConfig.alert_eps_r,
    alert_eps_gamma: float = DetectorConfig.alert_eps_gamma,
) -> np.ndarray:
    """Boolean mask of nodes in the dangerous small-r, small-gamma corner.

    residual is tangent_match_residual's and gamma the depth root it used.
    """
    return (np.abs(residual) <= alert_eps_r) & (gamma <= alert_eps_gamma)


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
    the amplitude indicator is identically zero. A non-finite mean_depth
    raises ValueError.
    """
    if not math.isfinite(mean_depth):
        raise ValueError("mean_depth must be finite, got {}".format(mean_depth))
    w = state.gamma_surface - bathy.eval(grid.x)
    require_wet(w, state.t, DRY_COLUMN)
    speed = np.sqrt(w)
    indicator = np.abs(state.gamma_surface - mean_depth) / speed
    return DeepSeaDiagnostics(
        sound_speed=speed,
        amplitude_indicator=indicator,
        max_sound_speed=float(np.max(speed)),
        max_amplitude_indicator=float(np.max(indicator)),
    )
