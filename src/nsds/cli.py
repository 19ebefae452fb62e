"""Command-line surface.

Subcommands: ``simulate``, ``filippov-set``, ``gradient``, ``lyapunov``,
``consensus``, ``pack``, ``sample-hold``, ``plot-data``.  Each handler
returns its result as a dict, and :func:`main` prints it: a command that
exits 0 prints exactly one JSON line to stdout (with a top-level schema tag
where the format is versioned), and one that exits 1 prints nothing to
stdout and ``Kind: message`` to stderr.  Exit 2 is an argument error.
Trajectories go to ``--out`` files, written by :func:`_write_trajectory`.

Set NSDS_LOG=DEBUG|INFO|WARNING for logging verbosity.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import logging
import os
import sys

import numpy as np

from .errors import DimensionMismatchError, NsdsError, UnsupportedError
from .fields import ControlField, PiecewiseField
from .geometry import MEMBERSHIP_TOL, ConvexPolygon, Polytope
from .integrate import (
    IntegratorConfig,
    PartitionSchedule,
    Trajectory,
    consensus_flow,
    sample_and_hold,
)
from .lie import (
    _CHECKS,
    GridSpec,
    _field_source,
    exclude_band,
    lyapunov_certify,
    monotonicity_verdict,
)
from .nonsmooth import ALL_SPACE, UNSUPPORTED, Graph, NsFunction, hsp, make_function
from .scenarios import MoveAwayLaw, cart_feedback, get_scenario, move_away_flow


def _parse_point(text: str, option: str) -> np.ndarray:
    try:
        return np.array([float(v) for v in text.split(",")])
    except ValueError:
        raise ValueError(f"{option} expects comma-separated numbers, got {text!r}") from None


def _parse_consts(items) -> dict:
    out = {}
    for item in items or ():
        if "=" not in item:
            raise ValueError(f"--const expects k=v, got {item!r}")
        k, v = item.split("=", 1)
        try:
            out[k] = float(v)
        except ValueError:
            raise ValueError(f"--const expects k=v with a number v, got {item!r}") from None
    return out


def _parse_graph(text: str, n: int) -> Graph:
    """Graph on n agents from 1-indexed "i-j" pairs; agents in no pair are
    isolated.  A part that is not a new pair of two agents 1 to n raises
    ValueError naming it as given."""
    edges, pairs = [], set()
    for part in text.split(","):
        try:
            a, b = (int(v) for v in part.strip().split("-"))
        except ValueError:
            a = b = 0
        pair = (min(a, b), max(a, b))
        if not 0 < pair[0] < pair[1] <= n or pair in pairs:
            raise ValueError(f"bad edge {part.strip()!r} in --graph: expected i-j, each pair "
                             f"once, for two of the {n} agents of --p0, numbered from 1")
        pairs.add(pair)
        edges.append((a - 1, b - 1))
    return Graph(n, tuple(edges))


def _load_polygon(path: str) -> ConvexPolygon:
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                x, y = line.split()
                rows.append([float(x), float(y)])
    return ConvexPolygon(rows)


def _polytope_json(P: Polytope) -> dict:
    d = P.to_json_dict()
    d["tol"] = MEMBERSHIP_TOL
    return d


def _write_trajectory(tr: Trajectory, path: str | None, fmt: str = "csv"):
    """Write tr to path as CSV or as one JSON line; no path writes nothing."""
    if path is None:
        return
    text = json.dumps(tr.to_json_dict()) + "\n" if fmt == "json" else tr.to_csv()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _load_trajectory(path: str) -> Trajectory:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        return Trajectory.from_json_dict(json.loads(text))
    return Trajectory.from_csv(text)


PLOT_GRID_N = 61


def emit_plot_data(tr: Trajectory, kind: str, f: NsFunction | None = None) -> str:
    """Whitespace tables ready for plotting tools.

    ``phase`` writes x1 x2 rows (planar trajectories only); ``time`` writes
    t x1 .. xd; ``level_overlay`` appends a function-value grid of PLOT_GRID_N
    points per axis over the trajectory's bounding box, one blank line between
    scan lines.
    """
    lines = []
    if kind == "time":
        for t, x in zip(tr.times, tr.states):
            lines.append(" ".join([repr(float(t))] + [repr(float(v)) for v in x]))
    elif kind in ("phase", "level_overlay"):
        if tr.dim != 2:
            plots = "phase plots" if kind == "phase" else "level overlays"
            raise DimensionMismatchError(f"{plots} need a planar trajectory")
        if kind == "level_overlay" and f is None:
            raise UnsupportedError("level_overlay needs a function")
        for x in tr.states:
            lines.append(f"{float(x[0])!r} {float(x[1])!r}")
    else:
        raise ValueError(f"unknown plot kind {kind!r}")
    if kind == "level_overlay":
        lines.append("")
        lines.append("")
        lo = tr.states.min(axis=0) - 0.1
        hi = tr.states.max(axis=0) + 0.1
        xs = np.linspace(lo[0], hi[0], PLOT_GRID_N)
        ys = np.linspace(lo[1], hi[1], PLOT_GRID_N)
        for xv in xs:
            for yv in ys:
                lines.append(f"{float(xv)!r} {float(yv)!r} {float(f(np.array([xv, yv])))!r}")
            lines.append("")
    return "\n".join(lines) + "\n"


def _direction_model(name: str, consts: dict) -> PiecewiseField | ControlField:
    """A scenario's model with a direction set: the Filippov set of a
    piecewise field, the inclusion of a control one."""
    scenario = get_scenario(name)
    model = scenario.build(consts)
    if not isinstance(model, (PiecewiseField, ControlField)):
        raise UnsupportedError(f"scenario {scenario.name} has no direction set")
    return model


def _config_from_args(args, settings: dict | None = None) -> IntegratorConfig:
    """The integrator settings of a run config's ``cfg``, with ``--dt-max``
    over its dt_max."""
    kw = dict(settings or {})
    if args.dt_max is not None:
        kw["dt_max"] = args.dt_max
    unknown = set(kw) - {f.name for f in dataclasses.fields(IntegratorConfig)}
    if unknown:
        raise ValueError(f"unknown integrator settings in the run config: {sorted(unknown)}")
    return IntegratorConfig(**kw)


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns its JSON-ready result and prints nothing.
# ---------------------------------------------------------------------------


def _cmd_simulate(args) -> dict:
    # A run-config file provides defaults; explicit flags win.
    file_cfg = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            file_cfg = json.load(fh)
    name = args.scenario or file_cfg.get("scenario")
    if not name:
        raise UnsupportedError("no scenario given (flag or config file)")
    scenario = get_scenario(name)
    consts = dict(file_cfg.get("constants", {}))
    consts.update(_parse_consts(args.const))
    cfg = _config_from_args(args, file_cfg.get("cfg"))
    if not args.x0 and "x0" not in file_cfg:
        raise UnsupportedError("no start state given: pass --x0 or a --config that holds x0")
    if args.t_end is None and "t_end" not in file_cfg:
        raise UnsupportedError("no horizon given: pass --t-end or a --config that holds t_end")
    x0 = _parse_point(args.x0, "--x0") if args.x0 else np.asarray(file_cfg["x0"], dtype=float)
    t_end = args.t_end if args.t_end is not None else float(file_cfg["t_end"])
    tr = scenario.simulate(x0, t_end, cfg, overrides=consts)
    _write_trajectory(tr, args.out, args.format)
    return {
        "schema": 1,
        "scenario": name,
        "samples": int(tr.times.shape[0]),
        "final_time": tr.final_time,
        "final_state": tr.final_state.tolist(),
        "events": [dataclasses.asdict(e) for e in tr.events],
        "out": args.out,
    }


def _cmd_filippov_set(args) -> dict:
    point = _parse_point(args.point, "--point")
    if args.function:
        f = make_function(args.function, dim=point.shape[0])
        gr = f.gradient(point)
        if not gr.exact:
            raise UnsupportedError("descent-field set needs an exact gradient")
        P = gr.polytope.scaled(-1.0)
    else:
        P = _field_source(_direction_model(args.scenario, _parse_consts(args.const)))(point)
    return _polytope_json(P)


def _cmd_gradient(args) -> dict:
    point = _parse_point(args.point, "--point")
    f = make_function(args.function, dim=point.shape[0])
    if args.proximal:
        prox = f.proximal(point)
        if prox is UNSUPPORTED:
            raise UnsupportedError(
                f"no closed-form proximal subdifferential for {args.function} here"
            )
        if prox is ALL_SPACE:
            return {"dim": point.shape[0], "all_space": True}
        return _polytope_json(prox)
    gr = f.gradient(point)
    return {**_polytope_json(gr.polytope), "exact": gr.exact}


def _cmd_lyapunov(args) -> dict:
    model = _direction_model(args.scenario, _parse_consts(args.const))
    point_dim = model.dim
    f = make_function(args.function, dim=point_dim)
    grid = GridSpec.parse(args.grid)
    if args.exclude_axes is not None and args.exclude_band is None:
        raise ValueError("--exclude-axes needs --exclude-band")
    if args.exclude_band is not None:
        axes = tuple(int(a) for a in args.exclude_axes.split(",")) if args.exclude_axes else None
        for a in axes or ():
            if a not in range(grid.dim):
                raise ValueError(f"--exclude-axes: axis {a} is not in 0..{grid.dim - 1}")
        grid = dataclasses.replace(grid, exclude=exclude_band(args.exclude_band, axes))
    if args.theorem in ("prop13w", "prop13s"):
        kind = "weak" if args.theorem == "prop13w" else "strong"
        report = monotonicity_verdict(kind, f, model, grid, tol=args.tol)
    else:
        x_e = (_parse_point(args.equilibrium, "--equilibrium") if args.equilibrium
               else np.zeros(point_dim))
        report = lyapunov_certify(args.theorem, f, model, x_e, grid,
                                  tol=args.tol, margin=args.margin)
    return report.to_json_dict()


def _cmd_consensus(args) -> dict:
    p0 = _parse_point(args.p0, "--p0")
    graph = _parse_graph(args.graph, len(p0))
    cfg = _config_from_args(args)
    res = consensus_flow(graph, args.variant, p0, args.t_end, cfg,
                         spread_tol=args.spread_tol)
    _write_trajectory(res.trajectory, args.out)
    return {
        "schema": 1,
        "variant": args.variant,
        "consensus_value": res.consensus_value,
        "consensus_time": res.consensus_time,
        "final_spread": res.final_spread,
        "final_state": res.trajectory.final_state.tolist(),
    }


def _cmd_pack(args) -> dict:
    # MoveAwayLaw allows no agent, and numpy's seeding rejects a negative
    # seed in its own words; a run needs an agent and names the option.
    if args.n < 1:
        raise ValueError(f"the number of agents n must be at least 1, got --n {args.n}")
    if args.seed < 0:
        raise ValueError(f"the seed must be nonnegative, got --seed {args.seed}")
    polygon = _load_polygon(args.polygon) if args.polygon else ConvexPolygon.square(1.0)
    law = MoveAwayLaw(polygon, args.n)
    x0 = law.random_interior_points(args.seed)
    tr = move_away_flow(law, x0, args.t_end, _config_from_args(args))
    _write_trajectory(tr, args.out)
    return {
        "schema": 1,
        "n": args.n,
        "seed": args.seed,
        "initial_hsp": hsp(polygon, x0.reshape(args.n, 2)),
        "final_hsp": hsp(polygon, tr.final_state.reshape(args.n, 2)),
        "converged": any(e.kind == "Converged" for e in tr.events),
        "final_state": tr.final_state.tolist(),
    }


def _cmd_sample_hold(args) -> dict:
    if args.scenario != "cart":
        raise UnsupportedError("sample-and-hold feedback is packaged for the cart only")
    consts = _parse_consts(args.const)
    scenario = get_scenario("cart")
    model = scenario.build(consts)
    sigma = scenario.merged(consts)["sigma"]
    x0 = _parse_point(args.x0, "--x0")
    schedule = PartitionSchedule.with_diameter(0.0, args.t_end, args.diam)
    tr = sample_and_hold(model, cart_feedback(sigma), schedule, x0,
                         _config_from_args(args))
    _write_trajectory(tr, args.out)
    return {
        "schema": 1,
        "diameter": schedule.diameter,
        "final_state": tr.final_state.tolist(),
        "final_norm": float(np.linalg.norm(tr.final_state)),
        "final_lyapunov": make_function("cart_lyapunov")(tr.final_state),
    }


def _cmd_plot_data(args) -> dict:
    tr = _load_trajectory(args.traj)
    f = make_function(args.function, dim=tr.dim) if args.function else None
    text = emit_plot_data(tr, args.kind, f)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text)
    return {"schema": 1, "kind": args.kind, "out": args.out, "rows": text.count("\n")}


# ---------------------------------------------------------------------------
# Parser.
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process: parse_args
    leaves it as built."""
    p = argparse.ArgumentParser(prog="nsds",
                                description="Discontinuous dynamical systems toolkit.")
    sub = p.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="integrate a packaged scenario")
    sim.add_argument("--scenario")
    sim.add_argument("--config", help="JSON run config: scenario, constants, x0, t_end, cfg")
    sim.add_argument("--const", action="append", metavar="K=V")
    sim.add_argument("--x0")
    sim.add_argument("--t-end", type=float)
    sim.add_argument("--dt-max", type=float)
    sim.add_argument("--out", required=True)
    sim.add_argument("--format", choices=("csv", "json"), default="csv")
    sim.set_defaults(handler=_cmd_simulate)

    fset = sub.add_parser("filippov-set", help="direction set of a scenario at a point")
    fset.add_argument("--scenario")
    fset.add_argument("--function", help="use the descent-flow field of a catalog function")
    fset.add_argument("--const", action="append", metavar="K=V")
    fset.add_argument("--point", required=True)
    fset.set_defaults(handler=_cmd_filippov_set)

    grad = sub.add_parser("gradient", help="gradient set of a catalog function")
    grad.add_argument("--function", required=True)
    grad.add_argument("--point", required=True)
    grad.add_argument("--proximal", action="store_true")
    grad.set_defaults(handler=_cmd_gradient)

    lyap = sub.add_parser("lyapunov", help="sample-based stability certification")
    lyap.add_argument("--scenario", required=True)
    lyap.add_argument("--function", required=True)
    lyap.add_argument("--theorem", required=True, choices=tuple(_CHECKS))
    lyap.add_argument("--grid", required=True, metavar="LO:HI:N,...")
    lyap.add_argument("--const", action="append", metavar="K=V")
    lyap.add_argument("--equilibrium")
    lyap.add_argument("--exclude-band", type=float)
    lyap.add_argument("--exclude-axes",
                      help="comma-separated coordinate indices; needs --exclude-band")
    lyap.add_argument("--tol", type=float, default=1e-9)
    lyap.add_argument("--margin", type=float, default=1e-6)
    lyap.set_defaults(handler=_cmd_lyapunov)

    cons = sub.add_parser("consensus", help="finite-time consensus flows")
    cons.add_argument("--graph", required=True, metavar="1-2,2-3")
    cons.add_argument("--variant", required=True, choices=("sign", "norm", "smooth"))
    cons.add_argument("--p0", required=True)
    cons.add_argument("--t-end", type=float, default=10.0)
    cons.add_argument("--dt-max", type=float, default=2e-4)
    cons.add_argument("--spread-tol", type=float, default=1e-3)
    cons.add_argument("--out")
    cons.set_defaults(handler=_cmd_consensus)

    pack = sub.add_parser("pack", help="sphere packing by the move-away law")
    pack.add_argument("--n", type=int, required=True)
    pack.add_argument("--polygon", help="file with one 'x y' vertex per line, ccw")
    pack.add_argument("--seed", type=int, required=True)
    pack.add_argument("--t-end", type=float, default=20.0)
    pack.add_argument("--dt-max", type=float)
    pack.add_argument("--out")
    pack.set_defaults(handler=_cmd_pack)

    sh = sub.add_parser("sample-hold", help="sample-and-hold feedback runs")
    sh.add_argument("--scenario", required=True)
    sh.add_argument("--x0", required=True)
    sh.add_argument("--diam", type=float, required=True)
    sh.add_argument("--t-end", type=float, required=True)
    sh.add_argument("--const", action="append", metavar="K=V")
    sh.add_argument("--dt-max", type=float)
    sh.add_argument("--out")
    sh.set_defaults(handler=_cmd_sample_hold)

    plot = sub.add_parser("plot-data", help="emit plot-ready tables from a trajectory")
    plot.add_argument("--traj", required=True)
    plot.add_argument("--kind", required=True, choices=("phase", "time", "level_overlay"))
    plot.add_argument("--function")
    plot.add_argument("--out", required=True)
    plot.set_defaults(handler=_cmd_plot_data)

    return p


def main(argv=None) -> int:
    level = os.environ.get("NSDS_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        print(json.dumps(args.handler(args)))
        return 0
    except NsdsError as exc:
        name = type(exc).__name__.removesuffix("Error")
        print(f"{name}: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, OSError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
