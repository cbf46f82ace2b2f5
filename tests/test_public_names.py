"""Every public function of srmq is either run by one of the four commands
or read by name by the benchmark tracer (srmqbench/tracer.py).  A function
that only the tests call is a test helper and belongs in tests/conftest.py
or in the test module that uses it."""

import inspect
import sys

import srmq
import srmq.cli
from srmq.plant import MotorParams, default_surface
from conftest import save_surface_csv
from test_bench_tracer import LEARNING, tracer  # noqa: F401  (a fixture)


def commands_call(tmp_path):
    """The code of every Python function that one pass of the commands
    calls: train on the analytic surface, then oracle, a learning run in
    JSON lines, a single-qcore run and compare on the same surface read
    from a file, all on the 4 x 3 learning grid."""
    analytic, surface = tmp_path / "analytic.ini", tmp_path / "surface.csv"
    analytic.write_text(LEARNING)
    save_surface_csv(default_surface(MotorParams(), n_theta=4, n_current=3),
                     surface)
    config = tmp_path / "file.ini"
    config.write_text(LEARNING.replace(
        "[surface]\nn_theta = 4\nn_current = 3\n",
        f"[surface]\npath = {surface}\n"))
    single = tmp_path / "single.ini"
    single.write_text(config.read_text().replace(
        "[scenario]\n", "[scenario]\ncontroller = single-qcore\n"))
    table = str(tmp_path / "qtable.json")
    runs = [[analytic, "train", "--out", table], [config, "oracle"],
            [config, "run", "--table", table, "--format", "jsonl"],
            [single, "run", "--table", table],
            [config, "compare", "--table", table]]
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(profile)
    try:
        codes = [srmq.cli.main(["--config", str(ini), *args,
                                *(["--out", str(tmp_path / f"out{n}")]
                                  if "--table" in args else [])])
                 for n, (ini, *args) in enumerate(runs)]
    finally:
        sys.setprofile(None)
    assert codes == [0] * len(runs)
    return called


def test_every_public_function_is_run_or_traced(tracer, tmp_path, capsys):
    read = {tracer.CLOSED_LOOP, *tracer.PROBES,
            *(fn for fn, _ in tracer._CALL_TIMES)}
    called = commands_call(tmp_path)
    capsys.readouterr()
    idle = [name for name, fn in tracer.public_functions(srmq).items()
            if name not in read and inspect.unwrap(fn).__code__ not in called]
    assert idle == []
