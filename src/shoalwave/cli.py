"""Command-line front end: scenario runs, oracle checks, one-shot analysis.

Subcommands:
  run                 integrate one or more scenario config files
  verify-analytic     convergence check against the sloping-bottom closed form
  detect              analyze a state snapshot CSV for singular points
  classify-degenerate resolve a degenerate bed point from its leading orders
  nondim              shallowness report for dimensional wave parameters
  speed               gravity-wave speed for a dimensional depth

Exit codes: 0 success, 1 bad config or malformed input, 2 near-dry abort,
3 numeric blow-up, 4 detect found at least one shallow-regime rush event.
Output defaults to $SHOALWAVE_OUT (or ./out) with one directory per run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from . import analytic, detector, fields, nondim, riemann, solver
from .bathymetry import Flat, Linear, Sampled, TanhSafe
from .errors import (
    ConfigError,
    DomainError,
    NearDryError,
    NumericBlowUpError,
    ShoalwaveError,
)
from .fields import Grid

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NEAR_DRY = 2
EXIT_BLOW_UP = 3
EXIT_ALERT = 4

OUTPUT_ENV = "SHOALWAVE_OUT"

_SOLVER_DEFAULTS = {
    "t_end": None,
    "cfl": 0.45,
    "boundary": "transmissive",
    "h_min": 1e-6,
    "snapshot_interval": None,
    "second_order": False,
    "stop_at_first_event": False,
}

_DETECTOR_DEFAULTS = {
    "eps_px": None,
    "alert_eps_r": 1e-3,
    "alert_eps_gamma": 0.1,
}


def _require(doc: dict, key: str, where: str):
    if key not in doc:
        raise ConfigError("missing key '{}' in {}".format(key, where))
    return doc[key]


def _as_float(value, key: str):
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError("key '{}' must be a number, got {!r}".format(key, value))


def _as_int(value, key: str):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError("key '{}' must be an integer, got {!r}".format(key, value))
    return value


def _mapping(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError("{} must be a mapping, got {!r}".format(where, value))
    return dict(value)


@dataclass
class ScenarioConfig:
    """Validated, canonicalized scenario document.

    from_doc applies defaults, so parse -> serialize -> parse is the
    identity on the canonical form.
    """

    name: str
    grid: dict
    bathymetry: dict
    initial: dict
    solver: dict
    detector: dict
    output_dir: str | None

    @classmethod
    def from_doc(cls, doc) -> "ScenarioConfig":
        if not isinstance(doc, dict):
            raise ConfigError("scenario config must be a mapping")
        known = {
            "name",
            "grid",
            "bathymetry",
            "initial",
            "solver",
            "detector",
            "output_dir",
        }
        unknown = set(doc) - known
        if unknown:
            raise ConfigError("unknown top-level keys: {}".format(sorted(unknown)))
        name = doc.get("name")
        if not isinstance(name, str) or not name:
            raise ConfigError("scenario needs a nonempty 'name'")

        grid_doc = _mapping(_require(doc, "grid", "scenario"), "grid")
        for key in ("x0", "dx", "n"):
            _require(grid_doc, key, "grid")
        grid = {
            "x0": _as_float(grid_doc["x0"], "grid.x0"),
            "dx": _as_float(grid_doc["dx"], "grid.dx"),
            "n": _as_int(grid_doc["n"], "grid.n"),
        }
        if set(grid_doc) - set(grid):
            raise ConfigError(
                "unknown grid keys: {}".format(sorted(set(grid_doc) - set(grid)))
            )

        bathy = _mapping(_require(doc, "bathymetry", "scenario"), "bathymetry")
        _require(bathy, "kind", "bathymetry")
        initial = _mapping(_require(doc, "initial", "scenario"), "initial")
        _require(initial, "kind", "initial")

        sol = dict(_SOLVER_DEFAULTS)
        sol_doc = _mapping(_require(doc, "solver", "scenario"), "solver")
        unknown = set(sol_doc) - set(sol)
        if unknown:
            raise ConfigError("unknown solver keys: {}".format(sorted(unknown)))
        sol.update(sol_doc)
        if sol["t_end"] is None:
            raise ConfigError("solver.t_end is required")
        sol["t_end"] = _as_float(sol["t_end"], "solver.t_end")
        sol["cfl"] = _as_float(sol["cfl"], "solver.cfl")
        sol["h_min"] = _as_float(sol["h_min"], "solver.h_min")
        if sol["snapshot_interval"] is not None:
            sol["snapshot_interval"] = _as_float(
                sol["snapshot_interval"], "solver.snapshot_interval"
            )
        sol["second_order"] = bool(sol["second_order"])
        sol["stop_at_first_event"] = bool(sol["stop_at_first_event"])

        det = dict(_DETECTOR_DEFAULTS)
        det_doc = _mapping(doc.get("detector") or {}, "detector")
        unknown = set(det_doc) - set(det)
        if unknown:
            raise ConfigError("unknown detector keys: {}".format(sorted(unknown)))
        det.update(det_doc)
        if det["eps_px"] is not None:
            det["eps_px"] = _as_float(det["eps_px"], "detector.eps_px")
            if det["eps_px"] <= 0.0:
                raise ConfigError("detector.eps_px must be positive")
        det["alert_eps_r"] = _as_float(det["alert_eps_r"], "detector.alert_eps_r")
        det["alert_eps_gamma"] = _as_float(
            det["alert_eps_gamma"], "detector.alert_eps_gamma"
        )
        for key in ("alert_eps_r", "alert_eps_gamma"):
            if det[key] <= 0.0:
                raise ConfigError("detector.{} must be positive".format(key))

        output_dir = doc.get("output_dir")
        if output_dir is not None and not isinstance(output_dir, str):
            raise ConfigError("output_dir must be a string path")

        return cls(name, grid, bathy, initial, sol, det, output_dir)

    def to_doc(self) -> dict:
        return {
            "name": self.name,
            "grid": dict(self.grid),
            "bathymetry": dict(self.bathymetry),
            "initial": dict(self.initial),
            "solver": dict(self.solver),
            "detector": dict(self.detector),
            "output_dir": self.output_dir,
        }

    def build_grid(self) -> Grid:
        try:
            return Grid(self.grid["x0"], self.grid["dx"], self.grid["n"])
        except ValueError as exc:
            raise ConfigError(str(exc))

    def build_bathymetry(self):
        doc = dict(self.bathymetry)
        kind = doc.pop("kind")
        try:
            if kind == "flat":
                return Flat(_as_float(_require(doc, "b0", "bathymetry"), "b0"))
            if kind == "linear":
                return Linear(
                    _as_float(_require(doc, "b0", "bathymetry"), "b0"),
                    _as_float(_require(doc, "b1", "bathymetry"), "b1"),
                )
            if kind == "tanh_safe":
                return TanhSafe(
                    _as_float(_require(doc, "h", "bathymetry"), "h"),
                    _as_float(_require(doc, "K", "bathymetry"), "K"),
                )
            if kind == "sampled":
                bed = Sampled.from_csv(_require(doc, "path", "bathymetry"))
                # The solver reads the bed at every grid node, and a sampled
                # bed exists only between its first and last samples.
                grid = self.build_grid()
                lo, hi = bed.x_nodes[0], bed.x_nodes[-1]
                if grid.x0 < lo or grid.x_last > hi:
                    raise ConfigError(
                        "bathymetry: sampled range [{}, {}] does not cover the "
                        "grid [{}, {}]".format(lo, hi, grid.x0, grid.x_last)
                    )
                return bed
        except (TypeError, ValueError, OSError) as exc:
            raise ConfigError("bathymetry: {}".format(exc))
        raise ConfigError("unknown bathymetry kind {!r}".format(kind))

    def build_initial(self, grid: Grid, bathy):
        doc = dict(self.initial)
        kind = doc.pop("kind")
        try:
            if kind == "lake_at_rest":
                return solver.initial_lake_at_rest(
                    grid, _as_float(doc.get("surface", 0.0), "surface")
                )
            if kind == "gaussian_pulse":
                return solver.initial_gaussian_pulse(
                    grid,
                    bathy,
                    center=_as_float(_require(doc, "center", "initial"), "center"),
                    width=_as_float(_require(doc, "width", "initial"), "width"),
                    amplitude=_as_float(
                        _require(doc, "amplitude", "initial"), "amplitude"
                    ),
                    surface=_as_float(doc.get("surface", 0.0), "surface"),
                )
            if kind == "linear_bottom_analytic":
                sol = self.analytic_solution(grid)
                return analytic.make_initial_state(sol, grid, self.solver["h_min"])
            if kind == "from_file":
                _, state, _ = fields.load_state(_require(doc, "path", "initial"))
                if state.gamma_surface.size != grid.n:
                    raise ConfigError("initial state file does not match the grid")
                return state
        except (TypeError, ValueError, OSError, DomainError) as exc:
            raise ConfigError("initial: {}".format(exc))
        raise ConfigError("unknown initial kind {!r}".format(kind))

    def analytic_solution(self, grid: Grid):
        """Closed-form family member described by a linear_bottom_analytic IC."""
        doc = dict(self.initial)
        if doc.pop("kind") != "linear_bottom_analytic":
            raise ConfigError("initial kind is not linear_bottom_analytic")
        if self.bathymetry.get("kind") != "linear":
            raise ConfigError("linear_bottom_analytic needs bathymetry kind 'linear'")
        b0 = _as_float(self.bathymetry["b0"], "b0")
        b1 = _as_float(self.bathymetry["b1"], "b1")
        a0 = _as_float(_require(doc, "a0", "initial"), "a0")
        c0 = _as_float(_require(doc, "c0", "initial"), "c0")
        pad = 10.0 * grid.dx
        x1 = _as_float(doc.get("x1", grid.x0 - pad), "x1")
        x2 = _as_float(doc.get("x2", grid.x_last + pad), "x2")
        try:
            return analytic.LinearBottomSolution(a0, b0, b1, c0, x1, x2)
        except ValueError as exc:
            raise ConfigError("initial: {}".format(exc))

    def build_solver_config(self) -> solver.SolverConfig:
        inflow = None
        if self.initial.get("kind") == "linear_bottom_analytic":
            # Prescribed-in-time ghost values keep the comparison exact at
            # the boundaries, which is the point of this initial kind.
            inflow = analytic.inflow(self.analytic_solution(self.build_grid()))
        try:
            return solver.SolverConfig(
                t_end=self.solver["t_end"],
                cfl=self.solver["cfl"],
                boundary=self.solver["boundary"],
                h_min=self.solver["h_min"],
                snapshot_interval=self.solver["snapshot_interval"],
                second_order=self.solver["second_order"],
                stop_at_first_event=self.solver["stop_at_first_event"],
                inflow=inflow,
            )
        except ValueError as exc:
            raise ConfigError(str(exc))

    def build_detector_config(self) -> detector.DetectorConfig:
        return detector.DetectorConfig(
            eps_px=self.detector["eps_px"],
            alert_eps_r=self.detector["alert_eps_r"],
            alert_eps_gamma=self.detector["alert_eps_gamma"],
        )


def load_config(path) -> ScenarioConfig:
    with open(path) as fh:
        try:
            doc = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ConfigError("cannot parse {}: {}".format(path, exc))
    return ScenarioConfig.from_doc(doc)


def serialize_config(cfg: ScenarioConfig) -> str:
    return yaml.safe_dump(cfg.to_doc(), sort_keys=True)


def _event_line(ev) -> str:
    note = ""
    if ev.depth_regime is detector.DepthRegime.DEEP:
        note = " [deep water: severity downgraded]"
    return (
        "event t={:.6f} x_star={:.6f} {} {} {} gamma={:.6g} b_x={:.6g}{}".format(
            ev.t,
            ev.x_star,
            ev.classification.value,
            ev.side.value,
            ev.depth_regime.value,
            ev.diagnostics.gamma,
            ev.diagnostics.b_x,
            note,
        )
    )


def _output_root(cli_value: str | None) -> Path:
    if cli_value:
        return Path(cli_value)
    env = os.environ.get(OUTPUT_ENV)
    if env:
        return Path(env)
    return Path("out")


def _run_one(path: str, args) -> int:
    try:
        cfg = load_config(path)
    except (OSError, ConfigError) as exc:
        print("config error [{}]: {}".format(path, exc))
        return EXIT_CONFIG

    if args.t_end is not None:
        cfg.solver["t_end"] = args.t_end
    if args.cfl is not None:
        cfg.solver["cfl"] = args.cfl
    if args.second_order:
        cfg.solver["second_order"] = True
    if args.stop_at_first_event:
        cfg.solver["stop_at_first_event"] = True

    if cfg.output_dir is not None:
        out_dir = Path(cfg.output_dir)
    else:
        out_dir = _output_root(args.output_dir) / cfg.name
    run_id = args.run_id or cfg.name

    # Every failure ends this config with its own exit code, so the rest of
    # a batch still runs.
    try:
        grid = cfg.build_grid()
        bathy = cfg.build_bathymetry()
        initial = cfg.build_initial(grid, bathy)
        sol_cfg = cfg.build_solver_config()
        det_cfg = cfg.build_detector_config()
        result = solver.run(initial, bathy, grid, sol_cfg, det_cfg)
    except ConfigError as exc:
        print("config error [{}]: {}".format(path, exc))
        return EXIT_CONFIG
    except NearDryError as exc:
        print("near-dry abort [{}]: {}".format(run_id, exc))
        return EXIT_NEAR_DRY
    except NumericBlowUpError as exc:
        print("numeric blow-up [{}]: {}".format(run_id, exc))
        return EXIT_BLOW_UP
    except ShoalwaveError as exc:
        print("error [{}]: {}".format(run_id, exc))
        return EXIT_CONFIG

    manifest = solver.write_outputs(
        result, bathy, grid, out_dir, run_id, config_doc=cfg.to_doc()
    )
    print(
        "run {}: {} steps, {} snapshots, {} events, post_singular={}".format(
            run_id,
            result.steps,
            len(result.snapshots),
            len(result.events),
            result.post_singular,
        )
    )
    for ev in result.events:
        print("  " + _event_line(ev))
    print("  manifest: {}".format(manifest))
    return EXIT_OK


def cmd_run(args) -> int:
    if args.jobs > 1 and len(args.config) > 1:
        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            codes = list(pool.map(lambda p: _run_one(p, args), args.config))
    else:
        codes = [_run_one(p, args) for p in args.config]
    return max(codes)


def _linf(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def convergence_study(
    sol,
    n: int,
    t_end: float,
    x_lo: float,
    x_hi: float,
    cfl: float = 0.45,
    second_order: bool = False,
    flux_perturbation: float = 0.0,
):
    """Max-norm errors against the closed form at resolutions n and 2n."""
    errors = []
    grids = []
    for nodes in (n, 2 * n):
        grid = Grid(x_lo, (x_hi - x_lo) / (nodes - 1), nodes)
        config = solver.SolverConfig(
            t_end=t_end,
            cfl=cfl,
            inflow=analytic.inflow(sol),
            second_order=second_order,
            flux_perturbation=flux_perturbation,
        )
        state = analytic.make_initial_state(sol, grid, config.h_min)
        bathy = sol.bathymetry()
        domain = solver.prepare(bathy, grid, config)
        tiny = 1e-12 * max(1.0, t_end)
        while state.t < t_end - tiny:
            state = solver.step(
                state, bathy, grid, config, dt_max=t_end - state.t, domain=domain
            )
        u_ref, surf_ref, _ = analytic.eval_solution(sol, state.t, grid.x)
        err = max(_linf(state.velocity, u_ref), _linf(state.gamma_surface, surf_ref))
        errors.append(err)
        grids.append(grid)
    return errors, grids


EXACT_FLOOR = 1e-12


def cmd_verify_analytic(args) -> int:
    try:
        sol = analytic.LinearBottomSolution(
            args.a0, args.b0, args.b1, args.c0, args.x1, args.x2
        )
    except ValueError as exc:
        print("invalid solution family: {}".format(exc))
        return EXIT_CONFIG

    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(64):
        t = rng.uniform(0.0, args.t_end)
        x = rng.uniform(args.x_lo, args.x_hi)
        worst = max(worst, np.max(np.abs(analytic.residuals(sol, t, x))))
    print("closed-form residual max: {:.3e}".format(worst))

    try:
        errors, grids = convergence_study(
            sol,
            args.n,
            args.t_end,
            args.x_lo,
            args.x_hi,
            second_order=args.second_order,
            flux_perturbation=args.flux_perturbation,
        )
    except (NearDryError, NumericBlowUpError, DomainError) as exc:
        print("solver failed during the study: {}".format(exc))
        return EXIT_CONFIG
    for err, grid in zip(errors, grids):
        print("n={} dx={:.6e} Linf={:.6e}".format(grid.n, grid.dx, err))

    if errors[1] <= EXACT_FLOOR:
        print("errors at rounding level: exact")
        return EXIT_OK
    if errors[0] <= 0.0:
        print("coarse error is zero but fine error is not; no order estimate")
        return EXIT_CONFIG
    order = math.log2(errors[0] / errors[1])
    print("observed order: {:.3f} (threshold {:.2f})".format(order, args.order_threshold))
    return EXIT_OK if order >= args.order_threshold else EXIT_CONFIG


def _parse_bathy_spec(spec: str, grid: Grid, b_column):
    """Bathymetry from 'kind:key=value,...', a CSV path, or the b column."""
    if spec is None:
        return Sampled(grid.x, b_column)
    if ":" not in spec:
        return Sampled.from_csv(spec)
    kind, _, body = spec.partition(":")
    params = {}
    for item in body.split(","):
        if not item:
            continue
        key, eq, value = item.partition("=")
        if not eq:
            raise ValueError("bad bathymetry parameter {!r}".format(item))
        params[key.strip()] = value.strip()
    if kind == "flat":
        return Flat(float(params["b0"]))
    if kind == "linear":
        return Linear(float(params["b0"]), float(params["b1"]))
    if kind == "tanh_safe":
        return TanhSafe(float(params["h"]), float(params["K"]))
    if kind == "sampled":
        return Sampled.from_csv(params["path"])
    raise ValueError("unknown bathymetry kind {!r}".format(kind))


def cmd_detect(args) -> int:
    try:
        grid, state, b_column = fields.load_state(args.state)
    except (OSError, ValueError) as exc:
        print("cannot read state file: {}".format(exc))
        return EXIT_CONFIG
    try:
        bathy = _parse_bathy_spec(args.bathy, grid, b_column)
    except (OSError, ValueError, KeyError) as exc:
        print("bad bathymetry spec: {}".format(exc))
        return EXIT_CONFIG

    try:
        flds = riemann._inland(state, bathy, grid, args.eps_px)
        grads = detector.surface_gradients(state, bathy, grid, flds.gamma)
        residual = detector.tangent_match_residual(state, bathy, grid, grads)
        alerts = detector.alert_nodes(
            state, bathy, grid, args.alert_eps_r, args.alert_eps_gamma, grads
        )
        points = detector.find_critical_points(flds, bathy, grid, flds.eps_px)
        gamma_ref = (
            float(np.max(flds.gamma)) if args.gamma_ref is None else args.gamma_ref
        )
        events = [
            detector.classify(
                pt.x_star,
                flds,
                state,
                bathy,
                grid,
                gamma_ref=gamma_ref,
                plateau=pt.plateau,
                gradients=grads,
            )
            for pt in points
        ]
    except NearDryError as exc:
        print("state is dry: {}".format(exc))
        return EXIT_NEAR_DRY

    print(
        "tangent-match residual: min={:.6e} max={:.6e}".format(
            float(np.min(residual)), float(np.max(residual))
        )
    )
    print(
        "alert nodes (|r|<={:g} and gamma<={:g}): {} of {}".format(
            args.alert_eps_r, args.alert_eps_gamma, int(np.sum(alerts)), grid.n
        )
    )
    if args.mean_depth is not None:
        deep = detector.deep_sea_diagnostics(state, bathy, grid, args.mean_depth)
        print(
            "deep-sea: max sound speed={:.6g} max amplitude indicator={:.6g}".format(
                deep.max_sound_speed, deep.max_amplitude_indicator
            )
        )
    print("critical points: {}".format(len(events)))
    for ev in events:
        print("  " + _event_line(ev))
    shallow_rush = any(
        ev.depth_regime is detector.DepthRegime.SHALLOW
        and ev.classification in solver.RUSH_CLASSES
        for ev in events
    )
    if shallow_rush:
        print("ALERT: shallow-regime rush event present")
        return EXIT_ALERT
    return EXIT_OK


def cmd_classify_degenerate(args) -> int:
    try:
        spec = detector.DegenerateSpec(
            p_exp=args.p,
            q_exp=args.q,
            B1=args.B1,
            C1=args.C1,
            gamma_local=args.gamma_local,
        )
    except ValueError as exc:
        print("invalid degenerate spec: {}".format(exc))
        return EXIT_CONFIG
    print(detector.classify_degenerate(spec).value)
    return EXIT_OK


def cmd_nondim(args) -> int:
    try:
        params = nondim.NondimParams(
            args.wavelength, args.depth, args.gravity, args.amplitude
        )
        report = nondim.shallowness_report(params, args.ratio_max)
    except ValueError as exc:
        print("invalid parameters: {}".format(exc))
        return EXIT_CONFIG
    print(json.dumps(report.as_dict(), sort_keys=True))
    return EXIT_OK


def cmd_speed(args) -> int:
    try:
        ms, kmh = nondim.sound_speed(args.depth, args.gravity)
    except DomainError as exc:
        print("invalid parameters: {}".format(exc))
        return EXIT_CONFIG
    print("{:.2f} m/s = {:.1f} km/h".format(ms, kmh))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shoalwave",
        description="1D long-wave runs and singular-point analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate scenario config files")
    p_run.add_argument("config", nargs="+", help="scenario config path(s)")
    p_run.add_argument("--jobs", type=int, default=1, help="run configs concurrently")
    p_run.add_argument("--output-dir", default=None, help="output root directory")
    p_run.add_argument("--run-id", default=None, help="override the run identifier")
    p_run.add_argument("--t-end", type=float, default=None)
    p_run.add_argument("--cfl", type=float, default=None)
    p_run.add_argument("--second-order", action="store_true")
    p_run.add_argument("--stop-at-first-event", action="store_true")
    p_run.set_defaults(func=cmd_run)

    p_ver = sub.add_parser(
        "verify-analytic", help="convergence against the sloping-bottom closed form"
    )
    p_ver.add_argument("--n", type=int, default=400)
    p_ver.add_argument("--t-end", type=float, default=0.5)
    p_ver.add_argument("--a0", type=float, default=0.0)
    p_ver.add_argument("--b0", type=float, default=-1.0)
    p_ver.add_argument("--b1", type=float, default=0.1)
    p_ver.add_argument("--c0", type=float, default=0.0)
    p_ver.add_argument("--x1", type=float, default=-1.3)
    p_ver.add_argument("--x2", type=float, default=1.3)
    p_ver.add_argument("--x-lo", type=float, default=-1.0)
    p_ver.add_argument("--x-hi", type=float, default=1.0)
    p_ver.add_argument("--order-threshold", type=float, default=0.9)
    p_ver.add_argument("--second-order", action="store_true")
    p_ver.add_argument(
        "--flux-perturbation",
        type=float,
        default=0.0,
        help="test hook: corrupt the momentum flux (negative control)",
    )
    p_ver.set_defaults(func=cmd_verify_analytic)

    p_det = sub.add_parser("detect", help="analyze a state snapshot CSV")
    p_det.add_argument("state", help="snapshot CSV with header x,gamma_surface,u,b")
    p_det.add_argument(
        "--bathy",
        default=None,
        help="kind:key=value,... or a bathymetry CSV path; default: b column",
    )
    p_det.add_argument("--eps-px", type=float, default=None)
    p_det.add_argument("--alert-eps-r", type=float, default=1e-3)
    p_det.add_argument("--alert-eps-gamma", type=float, default=0.1)
    p_det.add_argument("--gamma-ref", type=float, default=None)
    p_det.add_argument("--mean-depth", type=float, default=None)
    p_det.set_defaults(func=cmd_detect)

    p_deg = sub.add_parser(
        "classify-degenerate", help="resolve a degenerate bed point"
    )
    p_deg.add_argument("p", type=int, help="vanishing order of the bed slope")
    p_deg.add_argument("q", type=int, help="vanishing order of the gradient factor")
    p_deg.add_argument("B1", type=float, help="leading bed-slope coefficient")
    p_deg.add_argument("C1", type=float, help="leading gradient coefficient")
    p_deg.add_argument("--gamma-local", type=float, default=1.0)
    p_deg.set_defaults(func=cmd_classify_degenerate)

    p_nd = sub.add_parser("nondim", help="shallowness report")
    p_nd.add_argument("wavelength", type=float)
    p_nd.add_argument("depth", type=float)
    p_nd.add_argument("gravity", type=float)
    p_nd.add_argument("amplitude", type=float)
    p_nd.add_argument("--ratio-max", type=float, default=0.1)
    p_nd.set_defaults(func=cmd_nondim)

    p_sp = sub.add_parser("speed", help="gravity-wave speed for a depth")
    p_sp.add_argument("depth", type=float)
    p_sp.add_argument("gravity", type=float, nargs="?", default=9.8)
    p_sp.set_defaults(func=cmd_speed)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NearDryError as exc:
        print("near-dry abort: {}".format(exc))
        return EXIT_NEAR_DRY
    except NumericBlowUpError as exc:
        print("numeric blow-up: {}".format(exc))
        return EXIT_BLOW_UP
    except ShoalwaveError as exc:
        print("error: {}".format(exc))
        return EXIT_CONFIG


def entry() -> None:
    sys.exit(main())
