"""Command-line front end: scenario runs, oracle checks, one-shot analysis.

Subcommands:
  run                 integrate one or more scenario config files
  verify-analytic     convergence check against the sloping-bottom closed form
  detect              analyze a state snapshot CSV for singular points
  classify-degenerate resolve a degenerate bed point from its leading orders
  nondim              shallowness report for dimensional wave parameters
  speed               gravity-wave speed for a dimensional depth

Scenario files are YAML. The grid, solver and detector sections take their
keys, types and defaults from the fields of Grid, SolverConfig and
DetectorConfig (see _section); bed specs, from a file or `detect --bathy`,
go through bathymetry.from_spec.

Exit codes: 0 success, 1 bad config, malformed input or a malformed command
line, 2 near-dry abort, 3 numeric blow-up, 4 detect found at least one
shallow-regime rush event.
Output defaults to $SHOALWAVE_OUT (or ./out) with one directory per run.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import re
import sys
import typing
from dataclasses import dataclass, make_dataclass
from pathlib import Path

import numpy as np
import yaml

from . import analytic, detector, fields, nondim, riemann, solver
from .bathymetry import Sampled, finite_float, from_spec
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

# SolverConfig fields that only library callers set.
_RUN_ONLY = ("max_steps", "inflow", "flux_perturbation")

# The parameters of each initial kind besides 'kind', read by _section in
# field order. x1 and x2 left out mean 10 cells beyond the grid's ends.
_INITIAL_KINDS = {
    name: make_dataclass(name, params, kw_only=True)
    for name, params in {
        "lake_at_rest": [("surface", float, 0.0)],
        "gaussian_pulse": [("surface", float, 0.0)]
        + [(key, float) for key in ("center", "width", "amplitude")],
        "linear_bottom_analytic": [("a0", float), ("c0", float)]
        + [(key, float, None) for key in ("x1", "x2")],
        "from_file": [("path", str)],
    }.items()
}


def _require(doc: dict, key: str, where: str):
    if key not in doc:
        raise ConfigError("missing key '{}' in {}".format(key, where))
    return doc[key]


def _as_float(value, key: str) -> float:
    try:
        return finite_float(value, "key '{}'".format(key))
    except ValueError as exc:
        raise ConfigError(str(exc))


_TYPE_NAMES = {int: "an integer", bool: "true or false", str: "a string"}


def _convert(value, kind, key: str):
    """value as annotation kind: float, int, bool, str, or one of them | None."""
    options = set(typing.get_args(kind) or (kind,))
    if value is None and type(None) in options:
        return None
    (kind,) = options - {type(None)}
    if kind is float:
        return _as_float(value, key)
    if isinstance(value, kind) and not (kind is int and isinstance(value, bool)):
        return value
    raise ConfigError(
        "key '{}' must be {}, got {!r}".format(key, _TYPE_NAMES[kind], value)
    )


def _mapping(value, where: str, allowed=None) -> dict:
    """value as a dict; with allowed given, also reject any other key."""
    if not isinstance(value, dict):
        raise ConfigError("{} must be a mapping, got {!r}".format(where, value))
    unknown = set() if allowed is None else set(value) - set(allowed)
    if unknown:
        raise ConfigError("unknown {} keys: {}".format(where, sorted(unknown, key=str)))
    return dict(value)


def _section(doc, cls, where: str, hidden=()) -> dict:
    """Config section `where`, checked against the fields of dataclass cls.

    The fields not in hidden are the allowed keys. A field without a default
    is required, the others default as in cls, and each value must have the
    field's type (a `T | None` field also takes null). The result holds
    every field in field order, so cls(**result) builds the object.
    """
    fields = [f for f in dataclasses.fields(cls) if f.name not in hidden]
    doc = _mapping(doc, where, [f.name for f in fields])
    types = typing.get_type_hints(cls)
    section = {}
    for f in fields:
        if f.name in doc:
            key = "{}.{}".format(where, f.name)
            section[f.name] = _convert(doc[f.name], types[f.name], key)
        elif f.default is not dataclasses.MISSING:
            section[f.name] = f.default
        else:
            raise ConfigError("missing key '{}' in {}".format(f.name, where))
    return section


def _build(cls, **kwargs):
    """cls(**kwargs), its ValueError a ConfigError."""
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc))


@dataclass
class ScenarioConfig:
    """Validated, canonicalized scenario document.

    The top-level keys are the fields of this class. The grid, solver and
    detector sections take their keys, types and defaults from Grid,
    SolverConfig and DetectorConfig, so parse -> serialize -> parse is the
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
        doc = _mapping(doc, "scenario", [f.name for f in dataclasses.fields(cls)])
        name = doc.get("name")
        if not isinstance(name, str) or not name:
            raise ConfigError("scenario needs a nonempty 'name'")

        grid = _section(_require(doc, "grid", "scenario"), Grid, "grid")
        bathy = _mapping(_require(doc, "bathymetry", "scenario"), "bathymetry")
        _require(bathy, "kind", "bathymetry")
        initial = _mapping(_require(doc, "initial", "scenario"), "initial")
        _convert(_require(initial, "kind", "initial"), str, "initial.kind")
        sol_doc = _require(doc, "solver", "scenario")
        sol = _section(sol_doc, solver.SolverConfig, "solver", hidden=_RUN_ONLY)
        det = _section(doc.get("detector") or {}, detector.DetectorConfig, "detector")

        output_dir = _convert(doc.get("output_dir"), str | None, "output_dir")
        return cls(name, grid, bathy, initial, sol, det, output_dir)

    def to_doc(self) -> dict:
        return dataclasses.asdict(self)

    def build_grid(self) -> Grid:
        return _build(Grid, **self.grid)

    def build_bathymetry(self):
        params = dict(self.bathymetry)
        kind = params.pop("kind")
        try:
            bed = from_spec(kind, params)
        except (ValueError, OSError) as exc:
            raise ConfigError("bathymetry: {}".format(exc))
        if isinstance(bed, Sampled):
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

    def _initial_params(self):
        params = dict(self.initial)
        kind = params.pop("kind")
        if kind not in _INITIAL_KINDS:
            raise ConfigError("unknown initial kind {!r}".format(kind))
        return kind, _section(params, _INITIAL_KINDS[kind], "initial")

    def build_initial(self, grid: Grid, bathy):
        kind, params = self._initial_params()
        try:
            if kind == "lake_at_rest":
                return solver.initial_lake_at_rest(grid, **params)
            if kind == "gaussian_pulse":
                return solver.initial_gaussian_pulse(grid, bathy, **params)
            if kind == "linear_bottom_analytic":
                sol = self.analytic_solution(grid)
                return analytic.make_initial_state(sol, grid, self.solver["h_min"])
            data = fields._snapshot_rows(params["path"])
            # Within the order of load_state's tolerance for uniform spacing.
            nodes_match = data.shape[0] == grid.n and np.all(
                np.abs(data[:, 0] - grid.x) <= 1e-9 * grid.dx
            )
            if not nodes_match:
                raise ConfigError("initial state file does not match the grid")
            return fields.FlowState(0.0, data[:, 1], data[:, 2])
        except (TypeError, ValueError, OSError, DomainError) as exc:
            raise ConfigError("initial: {}".format(exc))

    def analytic_solution(self, grid: Grid):
        """Closed-form family member described by a linear_bottom_analytic IC."""
        if self.initial["kind"] != "linear_bottom_analytic":
            raise ConfigError("initial kind is not linear_bottom_analytic")
        if self.bathymetry.get("kind") != "linear":
            raise ConfigError("linear_bottom_analytic needs bathymetry kind 'linear'")
        bed = self.build_bathymetry()
        _, p = self._initial_params()
        pad = 10.0 * grid.dx
        x1 = grid.x0 - pad if p["x1"] is None else p["x1"]
        x2 = grid.x_last + pad if p["x2"] is None else p["x2"]
        try:
            return analytic.LinearBottomSolution(p["a0"], bed.b0, bed.b1, p["c0"], x1, x2)
        except ValueError as exc:
            raise ConfigError("initial: {}".format(exc))

    def build_solver_config(self) -> solver.SolverConfig:
        inflow = None
        if self.initial.get("kind") == "linear_bottom_analytic":
            # Prescribed-in-time ghost values keep the comparison exact at
            # the boundaries, which is the point of this initial kind.
            inflow = analytic.inflow(self.analytic_solution(self.build_grid()))
        return _build(solver.SolverConfig, **self.solver, inflow=inflow)

    def build_detector_config(self) -> detector.DetectorConfig:
        return _build(detector.DetectorConfig, **self.detector)


class _ConfigLoader(yaml.SafeLoader):
    """yaml.SafeLoader that refuses a key repeated within one mapping."""

    def construct_mapping(self, node, deep=False):
        seen = []  # a list, so that SafeLoader reports an unhashable key
        for key_node, _ in node.value:
            if key_node.tag == "tag:yaml.org,2002:merge":
                continue
            key = self.construct_object(key_node, deep=deep)
            if key in seen:
                raise yaml.constructor.ConstructorError(
                    problem="repeated key {!r}".format(key),
                    problem_mark=key_node.start_mark,
                )
            seen.append(key)
        return super().construct_mapping(node, deep=deep)


def _yaml_problem(exc: yaml.YAMLError) -> str:
    """exc on one line, with the line and column it points at."""
    mark = getattr(exc, "problem_mark", None)
    if mark is None:
        return " ".join(str(exc).split())
    problem = ": ".join(filter(None, (exc.context, exc.problem)))
    return "{} at line {}, column {}".format(problem, mark.line + 1, mark.column + 1)


def load_config(path) -> ScenarioConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = yaml.load(fh, Loader=_ConfigLoader)
    except yaml.YAMLError as exc:
        raise ConfigError("cannot parse {}: {}".format(path, _yaml_problem(exc)))
    except UnicodeDecodeError as exc:
        raise ConfigError("cannot decode {} as UTF-8: {}".format(path, exc))
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


def _run_config(path: str, args, claimed: dict) -> int:
    """Load, run and report one config of a `run` batch: its exit code.

    claimed maps each output directory that an earlier config of the batch
    took to that config's path; a config that would reuse one fails, so
    that no run replaces or mixes with another's files.
    """
    try:
        cfg = load_config(path)
        if args.t_end is not None:
            cfg.solver["t_end"] = _as_float(args.t_end, "solver.t_end")
        if args.cfl is not None:
            cfg.solver["cfl"] = _as_float(args.cfl, "solver.cfl")
    except (OSError, ConfigError) as exc:
        print("config error [{}]: {}".format(path, exc))
        return EXIT_CONFIG

    if args.second_order:
        cfg.solver["second_order"] = True
    if args.stop_at_first_event:
        cfg.solver["stop_at_first_event"] = True

    if cfg.output_dir is not None:
        out_dir = Path(cfg.output_dir)
    else:
        out_dir = _output_root(args.output_dir) / cfg.name
    key = out_dir.resolve()
    if key in claimed:
        print(
            "config error [{}]: output directory {} is already used by {}".format(
                path, out_dir, claimed[key]
            )
        )
        return EXIT_CONFIG
    claimed[key] = path
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
    """Run the configs one after another, in batch order; the exit code of
    the batch is the highest per-config code."""
    claimed = {}
    return max([_run_config(path, args, claimed) for path in args.config])


def _linf(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def convergence_study(
    sol,
    n: int,
    t_end: float,
    x_lo: float,
    x_hi: float,
    cfl: float = solver.SolverConfig.cfl,
    second_order: bool = False,
    flux_perturbation: float = 0.0,
):
    """Max-norm errors against the closed form at resolutions n and 2n.

    Each grid steps through solver.run, the loop and detector search of a
    scenario run, and its last snapshot is compared with the closed form.
    Both grids and the solver config are built before the first step, so a
    malformed input raises their ValueError before any work is done.
    """
    grids = [Grid(x_lo, (x_hi - x_lo) / (nodes - 1), nodes) for nodes in (n, 2 * n)]
    config = solver.SolverConfig(
        t_end=t_end,
        cfl=cfl,
        inflow=analytic.inflow(sol),
        second_order=second_order,
        flux_perturbation=flux_perturbation,
    )
    errors = []
    for grid in grids:
        initial = analytic.make_initial_state(sol, grid, config.h_min)
        state = solver.run(initial, sol.bathymetry(), grid, config).snapshots[-1]
        u_ref, surf_ref, _ = analytic.eval_solution(sol, state.t, grid.x)
        err = max(_linf(state.velocity, u_ref), _linf(state.gamma_surface, surf_ref))
        errors.append(err)
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

    # The study runs first: it rejects a malformed grid, end time or range
    # before the residual sampling draws from them.
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
    except ValueError as exc:
        print("invalid parameters: {}".format(exc))
        return EXIT_CONFIG
    except (NearDryError, NumericBlowUpError, DomainError) as exc:
        print("solver failed during the study: {}".format(exc))
        return EXIT_CONFIG

    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(64):
        t = rng.uniform(0.0, args.t_end)
        x = rng.uniform(args.x_lo, args.x_hi)
        worst = max(worst, np.max(np.abs(analytic.residuals(sol, t, x))))
    print("closed-form residual max: {:.3e}".format(worst))
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
        key = key.strip()
        if key in params:
            raise ValueError("repeated parameter {!r}".format(key))
        params[key] = value.strip()
    return from_spec(kind, params)


def cmd_detect(args) -> int:
    try:
        det = detector.DetectorConfig(
            args.eps_px, args.alert_eps_r, args.alert_eps_gamma
        )
        if args.gamma_ref is not None and not 0.0 < args.gamma_ref < math.inf:
            raise ValueError(
                "gamma_ref must be positive and finite, got {}".format(args.gamma_ref)
            )
        if args.mean_depth is not None and not math.isfinite(args.mean_depth):
            raise ValueError(
                "mean_depth must be finite, got {}".format(args.mean_depth)
            )
    except ValueError as exc:
        print("invalid parameters: {}".format(exc))
        return EXIT_CONFIG
    try:
        grid, state, b_column = fields.load_state(args.state)
    except (OSError, ValueError) as exc:
        print("cannot read state file: {}".format(exc))
        return EXIT_CONFIG
    try:
        bathy = _parse_bathy_spec(args.bathy, grid, b_column)
    except (OSError, ValueError) as exc:
        print("bad bathymetry spec: {}".format(exc))
        return EXIT_CONFIG

    try:
        flds = riemann.inland(state, bathy, grid, det.eps_px)
        residual = detector.tangent_match_residual(state, bathy, grid, flds.gamma)
        alerts = detector.alert_nodes(
            residual, flds.gamma, det.alert_eps_r, det.alert_eps_gamma
        )
        points = detector.find_critical_points(flds, bathy, grid, flds.eps_px)
        gamma_ref = (
            float(np.max(flds.gamma)) if args.gamma_ref is None else args.gamma_ref
        )
        events = [
            detector.classify(pt, flds, state, grid, gamma_ref=gamma_ref)
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
            det.alert_eps_r, det.alert_eps_gamma, int(np.sum(alerts)), grid.n
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


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit like malformed input, and
    which reads every negative float, such as -1e-3 or -inf, as a value
    rather than an option (argparse's own rule takes only -1 and -1.5)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf|infinity|nan)$", re.IGNORECASE
        )

    def error(self, message):
        print("usage error: {}: {}".format(self.prog, message))
        raise SystemExit(EXIT_CONFIG)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="shoalwave",
        description="1D long-wave runs and singular-point analysis",
    )
    # Each subcommand runs the cmd_* function of its name (see main).
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_run = sub.add_parser("run", help="integrate scenario config files")
    p_run.add_argument("config", nargs="+", help="scenario config path(s)")
    p_run.add_argument("--output-dir", default=None, help="output root directory")
    p_run.add_argument("--run-id", default=None, help="override the run identifier")
    p_run.add_argument("--t-end", type=float, default=None)
    p_run.add_argument("--cfl", type=float, default=None)
    p_run.add_argument("--second-order", action="store_true")
    p_run.add_argument("--stop-at-first-event", action="store_true")

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

    p_det = sub.add_parser("detect", help="analyze a state snapshot CSV")
    p_det.add_argument("state", help="snapshot CSV with header x,gamma_surface,u,b")
    p_det.add_argument(
        "--bathy",
        default=None,
        help="kind:key=value,... or a bathymetry CSV path; default: b column",
    )
    p_det.add_argument("--eps-px", type=float, default=None)
    det = detector.DetectorConfig
    p_det.add_argument("--alert-eps-r", type=float, default=det.alert_eps_r)
    p_det.add_argument("--alert-eps-gamma", type=float, default=det.alert_eps_gamma)
    p_det.add_argument("--gamma-ref", type=float, default=None)
    p_det.add_argument("--mean-depth", type=float, default=None)

    p_deg = sub.add_parser(
        "classify-degenerate", help="resolve a degenerate bed point"
    )
    p_deg.add_argument("p", type=int, help="vanishing order of the bed slope")
    p_deg.add_argument("q", type=int, help="vanishing order of the gradient factor")
    p_deg.add_argument("B1", type=float, help="leading bed-slope coefficient")
    p_deg.add_argument("C1", type=float, help="leading gradient coefficient")
    p_deg.add_argument("--gamma-local", type=float, default=1.0)

    p_nd = sub.add_parser("nondim", help="shallowness report")
    p_nd.add_argument("wavelength", type=float)
    p_nd.add_argument("depth", type=float)
    p_nd.add_argument("gravity", type=float)
    p_nd.add_argument("amplitude", type=float)
    p_nd.add_argument("--ratio-max", type=float, default=0.1)

    p_sp = sub.add_parser("speed", help="gravity-wave speed for a depth")
    p_sp.add_argument("depth", type=float)
    p_sp.add_argument("gravity", type=float, nargs="?", default=9.8)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser's parser, built on the first call of the process."""
    return build_parser()


def main(argv=None) -> int:
    """Run one command line; callable any number of times in one process.

    The parser is built once, and each call looks its command's cmd_*
    function up by name, so one replaced after an earlier call still runs.
    """
    args = _parser().parse_args(argv)
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        # Values near the float maximum can overflow, and a grid spacing
        # near the float minimum divide by zero, inside numpy or SciPy
        # before a check reports them; the one-line message is the whole
        # report.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return command(args)
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
