"""Equivalence gate: replay the seeded reference scenarios, compare traces.

Scenarios (the acceptance suite's closed-loop criteria, default machine):

- ``nominal``: five cycles, scheduled controller, table trained with seed 0;
  criterion 5, and the scheduled half of criterion 7.
- ``criterion6-learning``: amplitude steps 4 -> 5.5 -> 4.5 A over twelve
  cycles with online learning on a fresh table.
- ``criterion6-frozen``: the same steps, learning off, plant resistance +10 %.
- ``criterion7-delta``: the nominal scenario under delta modulation.

For each scenario the x, u and K traces are compared with the digests and
arrays recorded from the seed commit in ``reference/``: the report gives a
bit-for-bit verdict and the maximum absolute deviation per trace.

    python3 srmqbench/run.py --check              # compare, exit 1 on any mismatch
    python3 srmqbench/equivalence.py --record     # rewrite the reference files
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import sys
from pathlib import Path

import numpy as np

REFERENCE = Path(__file__).resolve().parent / "reference"
TRACES = ("x", "u", "K")


def scenarios():
    """name -> (Scenario, trains a table?) for the replayed runs."""
    from srmq.plant import MotorParams, ReferenceProfile, default_surface
    from srmq.sim import Scenario
    params = MotorParams()
    surface = default_surface(params)
    spc = params.steps_per_cycle
    steps = ReferenceProfile(step_events=((4 * spc, 5.5), (8 * spc, 4.5)))
    base = dict(motor=params, surface=surface)
    return {
        "nominal": (Scenario(reference=ReferenceProfile(), **base), True),
        "criterion6-learning": (Scenario(reference=steps, duration=12 * spc,
                                         online_learning=True, **base), True),
        "criterion6-frozen": (Scenario(reference=steps, duration=12 * spc,
                                       r_scale=1.1, **base), True),
        "criterion7-delta": (Scenario(reference=ReferenceProfile(),
                                      controller="delta-modulation", **base),
                             False),
    }


def replay() -> dict:
    """name -> {trace: float64 array} for every scenario."""
    from srmq.scheduler import train_table
    from srmq.sim import run_closed_loop
    out = {}
    for name, (scenario, needs_table) in scenarios().items():
        table = train_table(scenario.motor, scenario.surface) if needs_table else None
        trace = run_closed_loop(scenario, table)
        out[name] = {t: np.ascontiguousarray(getattr(trace, t), dtype="<f8")
                     for t in TRACES}
    return out


def digest(array: np.ndarray) -> str:
    return hashlib.sha256(array.tobytes()).hexdigest()


def record() -> None:
    import numpy
    traces = replay()
    REFERENCE.mkdir(exist_ok=True)
    np.savez_compressed(REFERENCE / "equivalence.npz",
                        **{f"{s}.{t}": a for s, arrays in traces.items()
                           for t, a in arrays.items()})
    meta = {"python": platform.python_version(), "numpy": numpy.__version__,
            "digests": {s: {t: digest(a) for t, a in arrays.items()}
                        for s, arrays in traces.items()}}
    (REFERENCE / "equivalence.json").write_text(json.dumps(meta, indent=1) + "\n")


def compare() -> dict:
    """Per scenario and trace: bit-for-bit match and max absolute deviation."""
    meta = json.loads((REFERENCE / "equivalence.json").read_text())
    reference = np.load(REFERENCE / "equivalence.npz")
    report = {}
    for name, arrays in replay().items():
        report[name] = {}
        for t, got in arrays.items():
            want = reference[f"{name}.{t}"]
            deviation = (float(np.max(np.abs(got - want), initial=0.0))
                         if got.shape == want.shape else float("inf"))
            report[name][t] = {"match": digest(got) == meta["digests"][name][t],
                               "max_abs_dev": deviation}
    return report


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="srmq trace equivalence gate")
    p.add_argument("--record", action="store_true",
                   help="rewrite the reference from the current code")
    args = p.parse_args(argv)
    if args.record:
        record()
        return 0
    report = compare()
    all_match = all(r["match"] for traces in report.values()
                    for r in traces.values())
    for name, traces in report.items():
        cells = ", ".join(f"{t} {'bit-identical' if r['match'] else 'DIFFERS'} "
                          f"(max |dev| {r['max_abs_dev']:.3g})"
                          for t, r in traces.items())
        print(f"{name:<20} {cells}")
    print(json.dumps({"all_match": all_match, "scenarios": report}))
    return 0 if all_match else 1


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    sys.exit(main())
