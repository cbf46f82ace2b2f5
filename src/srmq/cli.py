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
from functools import partial
from pathlib import Path

import numpy as np

from . import lqt, scheduler, sim
from .plant import (MAX_AXIS_NODES, MotorParams, ReferenceProfile,
                    _require_bound, _require_count, default_surface,
                    frozen_dynamics, load_surface_csv)
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

# Every config key, in the order effective_config.ini writes them: [section]
# key -> (default text, kind[, keyword]).  The kind parses the text into the
# builder argument `keyword` (the key itself if not given); an empty float
# with an empty default is None, and a key of kind None fills no argument.
SCHEMA = {
    "motor": {
        "r_phase": ("2.0", float, "R_phase"), "t_sample": ("1e-4", float, "T"),
        "l_unaligned": ("6e-3", float, "L_unaligned"),
        "l_aligned": ("16e-3", float, "L_aligned"),
        "rotor_pitch": ("45.0", float), "speed_rpm": ("60.0", float, "speed"),
        "v_dc": ("300.0", float, "V_dc"), "i_nominal": ("5.0", float),
    },
    "surface": {
        "kind": ("analytic", None), "path": ("", None),
        "kappa": ("0.5", float), "i_sat": ("", float), "i_max": ("", float),
        "n_theta": ("16", int), "n_current": ("8", int),
    },
    "grid": {"n_theta": ("16", int), "n_current": ("8", int),
             "i_max": ("", float)},
    "training": {
        "gamma": ("0.9", float), "q_weight": ("100.0", float),
        "r_weight": ("0.001", float), "k0_x": ("100.0", float),
        "k0_r": ("-100.0", float), "online_tau": ("1e3", float),
        "dither_v": ("15.0", float, "dither"), "tuples_per_iter": ("6", int),
        "tol": ("1e-4", float), "max_iters": ("100", int),
        "gain_clamp": ("0.02", float), "seed": ("0", int),
    },
    "scenario": {
        "i_ref": ("4.0", float), "theta_on": ("10.0", float),
        "theta_off": ("35.0", float), "events": ("", str),
        "duration_cycles": ("5", int), "controller": ("scheduled-qlearning", str),
        "online_learning": ("false", bool), "dither_v": ("0.0", float, "dither"),
        "r_scale": ("1.0", float), "delta_band": ("0.0", float), "seed": ("0", int),
    },
}


class ConfigError(ValueError):
    pass


def default_config() -> configparser.ConfigParser:
    cp = configparser.ConfigParser()
    cp.read_dict({section: {key: spec[0] for key, spec in keys.items()}
                  for section, keys in SCHEMA.items()})
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
            if section not in SCHEMA:
                raise ConfigError(f"unknown config section [{section}]")
            for key in cp[section]:
                if key not in SCHEMA[section]:
                    raise ConfigError(f"unknown config key {section}.{key}")
    return cp


def _parse(key, text, kind):
    """`key`'s text as its kind; a text that does not parse names the key."""
    try:
        if kind is bool:
            return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
        return kind(text)
    except (KeyError, ValueError):
        what = {int: "an integer", bool: "a boolean"}.get(kind, "a number")
        raise ValueError(f"{key} must be {what}, got {text!r}") from None


def _build(cp, section, what, build):
    """build(**{keyword: value}) for the keys of `section` in schema order;
    a ValueError becomes "invalid <what>: ...", naming a keyword's INI key."""
    ini_key, kwargs = {}, {}
    try:
        for key, (default, kind, *keyword) in SCHEMA[section].items():
            text, keyword = cp[section][key], (keyword or [key])[0]
            ini_key[keyword] = key
            if kind is float and text == default == "":
                kwargs[keyword] = None
            elif kind is not None:
                kwargs[keyword] = _parse(key, text, kind)
        return build(**kwargs)
    except ValueError as exc:
        name, sep, rest = str(exc).partition(" ")
        raise ConfigError(
            f"invalid {what}: {ini_key.get(name, name)}{sep}{rest}") from exc


def _motor(cp) -> MotorParams:
    return _build(cp, "motor", "motor parameters", MotorParams)


def _require_pitch_span(path, what, name, nodes, params: MotorParams):
    """A file's angle nodes must span one rotor pitch (relative 1e-9), or
    its angles wrap by the wrong period; a single node spans nothing."""
    lo, hi = nodes[[0, -1]].tolist()
    if nodes.size > 1 and not math.isclose(hi - lo, params.rotor_pitch,
                                           rel_tol=1e-9):
        raise ConfigError(
            f"{path}: {name} spans {hi - lo!r} deg ({lo!r} to {hi!r}), but "
            f"[motor] rotor_pitch is {params.rotor_pitch!r}; a {what} file "
            "must span one rotor pitch")


def _surface(cp, params: MotorParams):
    s = cp["surface"]
    if s["kind"] == "file":
        path = s["path"]
        if not path or not Path(path).exists():
            raise ConfigError(f"surface file {path!r} does not exist")
        surface = load_surface_csv(path)
        _require_pitch_span(path, "surface", "theta_grid", surface.theta_grid,
                            params)
        return surface
    if s["kind"] != "analytic":
        raise ConfigError(f"surface.kind must be analytic or file, got {s['kind']!r}")
    return _build(cp, "surface", "surface", partial(default_surface, params))


def _grid(cp, params: MotorParams):
    def nodes(n_theta, n_current, i_max):
        for key, n in (("n_theta", n_theta), ("n_current", n_current)):
            _require_count(key, n, 1, MAX_AXIS_NODES)
        i_max = 1.5 * params.i_nominal if i_max is None else i_max
        _require_bound("i_max", i_max, positive=True)
        return (np.linspace(0.0, params.rotor_pitch, n_theta),
                np.linspace(0.0, i_max, n_current))
    return _build(cp, "grid", "grid", nodes)


def _train_cfg(cp) -> TableTrainConfig:
    return _build(cp, "training", "training parameters",
                  lambda k0_x, k0_r, **kw: TableTrainConfig(K0=(k0_x, k0_r), **kw))


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


def _scenario(cp, params, surface) -> sim.Scenario:
    def scenario(i_ref, theta_on, theta_off, events, duration_cycles, **kw):
        profile = ReferenceProfile(i_ref, theta_on, theta_off,
                                   _parse_events(events))
        if profile.theta_off > params.rotor_pitch:
            raise ValueError("theta_off exceeds the rotor pitch")
        if duration_cycles < 2:
            raise ValueError("duration_cycles must be at least 2 (the metrics "
                             f"skip the first cycle), got {duration_cycles}")
        return sim.Scenario(params, surface, profile, **kw,
                            duration=duration_cycles * params.steps_per_cycle)
    return _build(cp, "scenario", "scenario", scenario)


def _grid_oracle(params, surface, cfg, theta_nodes, current_nodes):
    """Frozen local models at every grid node, row-major, and their
    discounted Riccati solutions from one stacked closed-form solve: (L, A,
    B, model, P, K) with a leading node axis."""
    L, A, B = np.array([frozen_dynamics(params, surface, th, i_node)
                        for th in theta_nodes
                        for i_node in current_nodes]).T
    bad = np.flatnonzero(~(np.isfinite(A) & np.isfinite(B)))
    if bad.size:
        row, col = divmod(int(bad[0]), current_nodes.size)
        raise ConfigError(
            f"the local model A = 1 - T R / L, B = T / L is not finite at "
            f"{bad.size} of {L.size} grid nodes, first node ({row},{col}): "
            f"theta {float(theta_nodes[row])!r} deg, i "
            f"{float(current_nodes[col])!r} A, L = {float(L[bad[0]])!r} H")
    model = lqt.build_augmented(A, B, Q=cfg.q_weight, R_u=cfg.r_weight,
                                gamma=cfg.gamma)
    P = lqt.are_closed_form(model)
    return L, A, B, model, P, lqt.optimal_gain(P, model)


def _oracle_nodes(cp, params, surface):
    theta_nodes, current_nodes = _grid(cp, params)
    cfg = _train_cfg(cp)
    L, A, B, model, P, K = _grid_oracle(params, surface, cfg, theta_nodes,
                                        current_nodes)
    try:
        pi = lqt.policy_iteration_model_based(model, cfg.K0)
    except lqt.NotStabilizingError as exc:
        row, col = divmod(exc.indices[0], current_nodes.size)
        raise ConfigError(
            f"invalid training parameters: k0_x, k0_r = {list(cfg.K0)} is "
            f"not stabilizing at {len(exc.indices)} of {L.size} nodes, "
            f"first node ({row},{col})") from exc
    rows = []
    for k, (a, b) in enumerate(np.ndindex(theta_nodes.size,
                                          current_nodes.size)):
        rows.append({
            "row": a, "col": b, "theta_deg": float(theta_nodes[a]),
            "i_A": float(current_nodes[b]),
            "L_H": float(L[k]), "A": float(A[k]), "B": float(B[k]),
            "P": [[float(v) for v in r] for r in P[k]],
            "K": [float(v) for v in K[k]],
            "pi_iterations": int(pi.iterations[k]),
            "pi_gap": float(np.linalg.norm(pi.K[k] - K[k])),
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
    table = scheduler.train_table(params, surface, theta_nodes,
                                  current_nodes, cfg)

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


def _table_and_scenario(cp, table_path):
    """The table file, checked against the config's motor and surface, and
    the config's scenario."""
    params = _motor(cp)
    surface = _surface(cp, params)
    table = scheduler.load_table(table_path)
    scheduler.check_table_compatible(table, params, surface)
    _require_pitch_span(table_path, "table", "theta_nodes", table.theta_nodes,
                        params)
    return table, _scenario(cp, params, surface)


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
    table, scenario = _table_and_scenario(cp, table_path)
    metrics, trace_path = _run_one(scenario, table, out_dir,
                                   scenario.controller, fmt)
    out = Path(out_dir)
    with open(out / "effective_config.ini", "w") as f:
        cp.write(f)
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
    table, base = _table_and_scenario(cp, table_path)
    results = {}
    for controller in ("scheduled-qlearning", "delta-modulation"):
        scenario = replace(base, controller=controller)
        metrics, trace_path = _run_one(scenario, table, out_dir,
                                       controller, fmt)
        results[controller] = {"metrics": metrics.as_dict(),
                               "trace": str(trace_path)}
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
        print(f"ripple ratio (scheduled/delta): {report['ripple_ratio']:.4g}")
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
        command = cmd_run if args.command == "run" else cmd_compare
        return command(cp, args.table, args.out, args.format, args.json)
    except (ConfigError, TableMismatchError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except configparser.InterpolationError as exc:
        print(f"error: config key {exc.section}.{exc.option}: {exc}",
              file=sys.stderr)
        return EXIT_CONFIG
    except lqt.ConvergenceError as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except TableTrainError as exc:
        print(f"training failed: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except SafetyAbortError as exc:
        print(f"safety abort: {exc}", file=sys.stderr)
        return EXIT_SAFETY


if __name__ == "__main__":
    sys.exit(main())
