"""Command-line entry point.

Subcommands: train (build and persist a Q-core table), run (execute a
scenario against a table), compare (same scenario under the scheduled
controller and the delta-modulation baseline), oracle (model-based
Riccati diagnostics per grid node).

Configuration is plain key = value text with [section] headers; every
default reproduces the nominal 500 W machine study, so the zero-flag run
is the reference experiment.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import lqt, scheduler, sim
from .plant import (MotorParams, ReferenceProfile, _require_bound,
                    default_surface, frozen_dynamics, load_surface_csv)
from .scheduler import (SafetyAbortError, TableMismatchError, TableTrainError,
                        TableTrainConfig)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CONVERGENCE = 3
EXIT_SAFETY = 4

# gain reported in the literature for this machine; it is quoted at the
# unaligned position but numerically matches the aligned 16 mH model
REFERENCE_GAIN = (120.0, -122.0)
REFERENCE_GAIN_NOTE = (
    "reference gain [120, -122] is nominally quoted at the unaligned "
    "position, but it matches the aligned 16 mH inductance model, not the "
    "unaligned 6 mH one; the oracle comparison therefore uses L = 16 mH")

DEFAULTS = {
    "motor": {
        "r_phase": "2.0", "t_sample": "1e-4",
        "l_unaligned": "6e-3", "l_aligned": "16e-3",
        "rotor_pitch": "45.0", "speed_rpm": "60.0",
        "v_dc": "300.0", "i_nominal": "5.0",
    },
    "surface": {
        "kind": "analytic", "path": "",
        "kappa": "0.5", "i_sat": "", "i_max": "",
        "n_theta": "16", "n_current": "8",
    },
    "grid": {
        "n_theta": "16", "n_current": "8", "i_max": "",
    },
    "training": {
        "gamma": "0.9", "q_weight": "100.0", "r_weight": "0.001",
        "k0_x": "100.0", "k0_r": "-100.0",
        "online_tau": "1e3", "dither_v": "15.0",
        "tuples_per_iter": "6", "tol": "1e-4", "max_iters": "100",
        "gain_clamp": "0.02", "seed": "0",
    },
    "scenario": {
        "i_ref": "4.0", "theta_on": "10.0", "theta_off": "35.0",
        "events": "", "duration_cycles": "5", "controller": "scheduled-qlearning",
        "online_learning": "false", "dither_v": "0.0", "r_scale": "1.0",
        "delta_band": "0.0", "seed": "0",
    },
}


class ConfigError(ValueError):
    pass


def default_config() -> configparser.ConfigParser:
    cp = configparser.ConfigParser()
    cp.read_dict(DEFAULTS)
    return cp


def load_config(path=None) -> configparser.ConfigParser:
    cp = default_config()
    if path is not None:
        try:
            read = cp.read(path)
        except configparser.Error as exc:
            raise ConfigError(f"config file {path}: {exc}") from exc
        if not read:
            raise ConfigError(f"config file {path} not found")
        for section in cp.sections():
            if section not in DEFAULTS:
                raise ConfigError(f"unknown config section [{section}]")
            for key in cp[section]:
                if key not in DEFAULTS[section]:
                    raise ConfigError(f"unknown config key {section}.{key}")
    return cp


def dump_config(cp: configparser.ConfigParser, path) -> None:
    with open(path, "w") as f:
        cp.write(f)


def _motor(cp) -> MotorParams:
    m = cp["motor"]
    try:
        return MotorParams(
            R_phase=m.getfloat("r_phase"), T=m.getfloat("t_sample"),
            L_unaligned=m.getfloat("l_unaligned"), L_aligned=m.getfloat("l_aligned"),
            rotor_pitch=m.getfloat("rotor_pitch"), speed=m.getfloat("speed_rpm"),
            V_dc=m.getfloat("v_dc"), i_nominal=m.getfloat("i_nominal"))
    except ValueError as exc:
        raise ConfigError(f"invalid motor parameters: {exc}") from exc


def _surface(cp, params: MotorParams):
    s = cp["surface"]
    if s["kind"] == "file":
        path = s["path"]
        if not path or not Path(path).exists():
            raise ConfigError(f"surface file {path!r} does not exist")
        return load_surface_csv(path)
    if s["kind"] != "analytic":
        raise ConfigError(f"surface.kind must be analytic or file, got {s['kind']!r}")
    return default_surface(
        params, n_theta=s.getint("n_theta"), n_current=s.getint("n_current"),
        kappa=s.getfloat("kappa"),
        i_sat=s.getfloat("i_sat") if s["i_sat"] else None,
        i_max=s.getfloat("i_max") if s["i_max"] else None)


def _grid(cp, params: MotorParams):
    g = cp["grid"]
    n_theta, n_current = g.getint("n_theta"), g.getint("n_current")
    i_max = g.getfloat("i_max") if g["i_max"] else 1.5 * params.i_nominal
    try:
        for key, n in (("n_theta", n_theta), ("n_current", n_current)):
            if n < 1:
                raise ValueError(f"{key} must be at least 1, got {n}")
        _require_bound("i_max", i_max, positive=True)
    except ValueError as exc:
        raise ConfigError(f"invalid grid: {exc}") from exc
    return (np.linspace(0.0, params.rotor_pitch, n_theta),
            np.linspace(0.0, i_max, n_current))


def _train_cfg(cp) -> TableTrainConfig:
    t = cp["training"]
    try:
        return TableTrainConfig(
            q_weight=t.getfloat("q_weight"), r_weight=t.getfloat("r_weight"),
            gamma=t.getfloat("gamma"),
            K0=(t.getfloat("k0_x"), t.getfloat("k0_r")),
            dither=t.getfloat("dither_v"),
            tuples_per_iter=t.getint("tuples_per_iter"),
            tol=t.getfloat("tol"), max_iters=t.getint("max_iters"),
            online_tau=t.getfloat("online_tau"),
            gain_clamp=t.getfloat("gain_clamp"), seed=t.getint("seed"))
    except ValueError as exc:
        raise ConfigError(f"invalid training parameters: {exc}") from exc


def _parse_events(text: str):
    # "6250:5.5, 12500:4.5" -> ((6250, 5.5), (12500, 4.5))
    events = []
    for part in filter(None, (p.strip() for p in text.split(","))):
        try:
            k, amp = part.split(":")
            events.append((int(k), float(amp)))
        except ValueError as exc:
            raise ConfigError(f"bad event {part!r}, expected step:amplitude") from exc
    return tuple(events)


def _scenario(cp, params, surface, seed=None) -> sim.Scenario:
    s = cp["scenario"]
    try:
        profile = ReferenceProfile(
            i_ref=s.getfloat("i_ref"), theta_on=s.getfloat("theta_on"),
            theta_off=s.getfloat("theta_off"), step_events=_parse_events(s["events"]))
        if profile.theta_off > params.rotor_pitch:
            raise ValueError("theta_off exceeds the rotor pitch")
        cycles = s.getint("duration_cycles")
        if cycles <= 0:
            raise ValueError("duration_cycles must be positive")
        return sim.Scenario(
            motor=params, surface=surface, reference=profile,
            controller=s["controller"],
            duration=cycles * params.steps_per_cycle,
            seed=s.getint("seed") if seed is None else seed,
            online_learning=s.getboolean("online_learning"),
            dither=s.getfloat("dither_v"), r_scale=s.getfloat("r_scale"),
            delta_band=s.getfloat("delta_band"))
    except ValueError as exc:
        raise ConfigError(f"invalid scenario: {exc}") from exc


def _augmented(cfg, A, B):
    return lqt.build_augmented(A, B, Q=cfg.q_weight, R_u=cfg.r_weight,
                               gamma=cfg.gamma)


def _grid_oracle(params, surface, cfg, theta_nodes, current_nodes):
    """Frozen local models at every grid node, row-major, and their
    discounted Riccati solutions from one stacked solve: (L, A, B, P, K)
    with a leading node axis."""
    L, A, B = np.array([frozen_dynamics(params, surface, th, i_node)
                        for th in theta_nodes
                        for i_node in current_nodes]).T
    model = _augmented(cfg, A, B)
    P = lqt.are_fixed_point(model)
    return L, A, B, P, lqt.optimal_gain(P, model)


def _oracle_nodes(cp, params, surface):
    theta_nodes, current_nodes = _grid(cp, params)
    cfg = _train_cfg(cp)
    L, A, B, P, K = _grid_oracle(params, surface, cfg, theta_nodes,
                                 current_nodes)
    rows = []
    for k, (a, b) in enumerate(np.ndindex(theta_nodes.size,
                                          current_nodes.size)):
        pi = lqt.policy_iteration_model_based(_augmented(cfg, A[k], B[k]),
                                              cfg.K0)
        rows.append({
            "row": a, "col": b, "theta_deg": float(theta_nodes[a]),
            "i_A": float(current_nodes[b]),
            "L_H": float(L[k]), "A": float(A[k]), "B": float(B[k]),
            "P": [[float(v) for v in r] for r in P[k]],
            "K": [float(v) for v in K[k]],
            "pi_iterations": pi.iterations,
            "pi_gap": float(np.linalg.norm(pi.K - K[k])),
        })
    return rows


def cmd_oracle(cp, json_out=False) -> int:
    params = _motor(cp)
    surface = _surface(cp, params)
    nodes = _oracle_nodes(cp, params, surface)
    aligned = min(nodes, key=lambda n: abs(n["L_H"] - params.L_aligned))
    report = {"nodes": nodes, "reference_gain": list(REFERENCE_GAIN),
              "reference_gain_note": REFERENCE_GAIN_NOTE,
              "aligned_node_gain": aligned["K"]}
    if json_out:
        print(json.dumps(report))
    else:
        print(f"{'theta':>8} {'i':>6} {'L_mH':>8} {'A':>9} {'B':>9} "
              f"{'K1':>10} {'K2':>10} {'pi_it':>5}")
        for n in nodes:
            print(f"{n['theta_deg']:8.3f} {n['i_A']:6.2f} {n['L_H'] * 1e3:8.3f} "
                  f"{n['A']:9.5f} {n['B']:9.5f} {n['K'][0]:10.3f} {n['K'][1]:10.3f} "
                  f"{n['pi_iterations']:5d}")
        print(f"note: {REFERENCE_GAIN_NOTE}")
        print(f"aligned-node gain: [{aligned['K'][0]:.2f}, {aligned['K'][1]:.2f}] "
              f"vs reference {list(REFERENCE_GAIN)}")
    return EXIT_OK


def _gain_gap(K, K_ref):
    scale = np.linalg.norm(K_ref)
    gap = np.linalg.norm(K - K_ref)
    return gap / scale if scale > 0 else gap


def cmd_train(cp, out_path, json_out=False) -> int:
    params = _motor(cp)
    surface = _surface(cp, params)
    theta_nodes, current_nodes = _grid(cp, params)
    cfg = _train_cfg(cp)
    try:
        table = scheduler.train_table(params, surface, theta_nodes,
                                      current_nodes, cfg)
    except TableTrainError as exc:
        print(f"training failed: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE

    # model-based cross-check, reported per node: the gap is relative to
    # the oracle gain, or absolute where that gain is zero (q_weight = 0)
    K_ref = _grid_oracle(params, surface, cfg, theta_nodes,
                         current_nodes)[-1]
    gaps = np.array([_gain_gap(K, K_node) for K, K_node
                     in zip(table.gains.reshape(-1, 2), K_ref)]
                    ).reshape(table.shape)
    worst = np.unravel_index(np.argmax(gaps), gaps.shape)
    scheduler.save_table(table, out_path)
    report = {"table": str(out_path), "cores": int(np.prod(table.shape)),
              "iterations_max": int(table.iterations.max()),
              "iterations_mean": float(table.iterations.mean()),
              "oracle_gap_max": float(gaps.max()),
              "oracle_gap_mean": float(gaps.mean()),
              "oracle_gap_worst_node": [int(v) for v in worst]}
    if json_out:
        print(json.dumps(report))
    else:
        print(f"trained {report['cores']} cores -> {out_path}")
        print(f"iterations: mean {report['iterations_mean']:.1f}, "
              f"max {report['iterations_max']}")
        print(f"model-based gain gap: mean {report['oracle_gap_mean']:.2e}, "
              f"max {report['oracle_gap_max']:.2e} at node "
              f"{tuple(report['oracle_gap_worst_node'])}")
    return EXIT_OK


def _strict_json(report) -> str:
    """The report as strict JSON: non-finite floats (a metric that is nan
    when no window settles) are written as null, not NaN or Infinity."""
    def clean(v):
        if isinstance(v, float):
            return v if math.isfinite(v) else None
        if isinstance(v, dict):
            return {k: clean(x) for k, x in v.items()}
        if isinstance(v, list):
            return [clean(x) for x in v]
        return v
    return json.dumps(clean(report), allow_nan=False)


def _load_checked_table(table_path, params, surface):
    table = scheduler.load_table(table_path)
    scheduler.check_table_compatible(table, params, surface)
    return table


def _run_one(scenario, table, out_dir, tag, fmt):
    """Run and export one scenario; on a safety abort the partial trace is
    exported as trace_aborted.<fmt> before the error propagates."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        trace = sim.run_closed_loop(scenario, table)
    except SafetyAbortError as exc:
        sim.export_trace(exc.trace, out_dir / f"trace_aborted.{fmt}", fmt)
        raise
    metrics = sim.compute_metrics(trace, scenario)
    trace_path = out_dir / f"trace_{tag}.{fmt}"
    sim.export_trace(trace, trace_path, fmt)
    return metrics, trace_path


def cmd_run(cp, table_path, out_dir, fmt="csv", json_out=False) -> int:
    params = _motor(cp)
    surface = _surface(cp, params)
    table = _load_checked_table(table_path, params, surface)
    scenario = _scenario(cp, params, surface)
    try:
        metrics, trace_path = _run_one(scenario, table, out_dir,
                                       scenario.controller, fmt)
    except SafetyAbortError as exc:
        print(f"safety abort: {exc}", file=sys.stderr)
        return EXIT_SAFETY
    out = Path(out_dir)
    dump_config(cp, out / "effective_config.ini")
    report = {"metrics": metrics.as_dict(), "trace": str(trace_path),
              "config": str(out / "effective_config.ini")}
    text = _strict_json(report)
    (out / "metrics.json").write_text(text)
    if json_out:
        print(text)
    else:
        for key, value in metrics.as_dict().items():
            print(f"{key} = {value}")
        print(f"trace -> {trace_path}")
    return EXIT_OK


def cmd_compare(cp, table_path, out_dir, fmt="csv", json_out=False) -> int:
    params = _motor(cp)
    surface = _surface(cp, params)
    table = _load_checked_table(table_path, params, surface)
    base = _scenario(cp, params, surface)
    results = {}
    try:
        for controller in ("scheduled-qlearning", "delta-modulation"):
            scenario = replace(base, controller=controller)
            metrics, trace_path = _run_one(scenario, table, out_dir,
                                           controller, fmt)
            results[controller] = {"metrics": metrics.as_dict(),
                                   "trace": str(trace_path)}
    except SafetyAbortError as exc:
        print(f"safety abort: {exc}", file=sys.stderr)
        return EXIT_SAFETY
    sched = results["scheduled-qlearning"]["metrics"]
    delta = results["delta-modulation"]["metrics"]
    report = {"controllers": results,
              "ripple_ratio": sched["ripple_A"] / delta["ripple_A"]
              if delta["ripple_A"] > 0 else 0.0}
    text = _strict_json(report)
    (Path(out_dir) / "compare.json").write_text(text)
    if json_out:
        print(text)
    else:
        keys = sorted(sched)
        print(f"{'metric':>22} {'scheduled':>14} {'delta':>14}")
        for key in keys:
            print(f"{key:>22} {sched[key]:>14.6g} {delta[key]:>14.6g}")
        print(f"ripple ratio (scheduled/delta): {report['ripple_ratio']:.4f}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="srmq",
        description="Scheduled Q-learning current control for an SRM phase")
    parser.add_argument("--config", help="config file (key = value sections)")
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a Q-core table offline")
    p_train.add_argument("--out", default="qtable.json")
    p_train.add_argument("--seed", type=int)

    for name in ("run", "compare"):
        p = sub.add_parser(name)
        p.add_argument("--table", default="qtable.json")
        p.add_argument("--out", default="out")
        p.add_argument("--seed", type=int)
        p.add_argument("--format", choices=("csv", "jsonl"), default="csv")

    sub.add_parser("oracle", help="model-based Riccati diagnostics per node")

    args = parser.parse_args(argv)
    try:
        cp = load_config(args.config)
        if getattr(args, "seed", None) is not None:
            cp["training"]["seed"] = str(args.seed)
            cp["scenario"]["seed"] = str(args.seed)
        if args.command == "oracle":
            return cmd_oracle(cp, args.json)
        if args.command == "train":
            return cmd_train(cp, args.out, args.json)
        if args.command == "run":
            return cmd_run(cp, args.table, args.out, args.format, args.json)
        if args.command == "compare":
            return cmd_compare(cp, args.table, args.out, args.format, args.json)
    except (ConfigError, TableMismatchError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except lqt.ConvergenceError as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
