"""Smoke test of the benchmark itself, on tiny meshes.

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

run.use_checkout_source()

import workloads  # noqa: E402
from calibrate import Clock  # noqa: E402
from trefftzdg import solver  # noqa: E402
from trefftzdg.errors import SingularSlabMatrix  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _check_reported(line, section):
    wanted = {m["name"]: m["unit"] for m in SPEC[section]}
    assert set(line["metrics"]) == set(wanted)
    for name, entry in line["metrics"].items():
        assert entry["unit"] == wanted[name]
        assert isinstance(entry["value"], (int, float)) and math.isfinite(entry["value"])


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_every_metric_appears_with_its_unit(name):
    untraced = run.measure(name, 0, 0.0, trace=0, tiny=True)
    metrics = dict(untraced["metrics"], setup_s=run.setup_seconds(name, 0, Clock()))
    line = run.result(metrics, untraced["attempts"], [])
    _check_reported(line, "end_to_end")
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= run.MIN_ATTEMPTS

    traced = run.measure(name, 0, 0.0, trace=1, tiny=True)
    line = run.result(traced["metrics"], traced["attempts"], [])
    _check_reported(line, "per_layer")
    assert line["correct"]
    metrics = traced["metrics"]
    assert metrics["mesh.elements"] == 100 and metrics["solver.slabs"] == 10
    assert metrics["assembly.calls"] >= 2 and metrics["basis.eval_calls"] > 0
    if name == "audit_default":
        assert metrics["analysis.dg_error_s"] > 0 and metrics["solver.evaluate_points"] == 21 * 21


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_spans_nest_and_self_times_sum_to_the_traced_wall(name):
    out, problems, tracer, root = run.traced_attempt(name, 0, None, tiny=True)
    assert out is not None and not problems
    spans = tracer.spans
    assert [s.name for s in spans if s.parent is None] == ["setup", "workload"]
    for span in spans:
        assert span.start <= span.end
        if span.parent is not None:
            parent = spans[span.parent]
            assert parent.start <= span.start and span.end <= parent.end
            assert parent.name != span.name     # nested calls of a layer fold into one span

    def under_root(i):
        while spans[i].parent is not None:
            i = spans[i].parent
        return spans[i] is root

    self_times = tracer.self_times()
    total = sum(t for i, t in enumerate(self_times) if under_root(i))
    assert total == pytest.approx(root.duration, rel=1e-9, abs=1e-12)
    assert all(t >= -1e-9 for t in self_times)
    # the wrappers are gone once the traced attempt ends
    assert solver.march.__module__ == "trefftzdg.solver"
    assert workloads.ElementBasis.eval_local.__module__ == "trefftzdg.basis"


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_a_changed_output_is_a_failed_run(name):
    good = run.measure(name, 0, 0.0, trace=0, tiny=True)["attempts"][0]["outputs"]
    changed = dict(good, l2=good["l2"] * (1 + 1e-9))
    bad = run.measure(name, 0, 0.0, trace=0, tiny=True, expected=changed)
    line = run.result(bad["metrics"], bad["attempts"], [])
    assert line["failed"] == line["attempted"] and not line["correct"]
    assert all("l2" in a["problems"][0] for a in bad["attempts"])


def test_a_solver_error_is_a_failed_attempt(monkeypatch):
    def singular(*args, **kwargs):
        raise SingularSlabMatrix("forced")

    monkeypatch.setattr(solver, "march", singular)
    inputs = workloads.build_inputs("audit_default", 0, tiny=True)
    out, _, problems = run.attempt("audit_default", inputs, None, True, Clock())
    assert out is None and problems == ["SingularSlabMatrix: forced"]


def test_seed_moves_only_the_pulse():
    base = workloads.build_inputs("march_pec", 0)
    moved = workloads.build_inputs("march_pec", 7)
    assert base.cfg.number("ic.center") == workloads.CENTER
    assert abs(moved.cfg.number("ic.center") - workloads.CENTER) <= workloads.CENTER_SHIFT
    changed = {k for k in base.cfg.values if base.cfg.values[k] != moved.cfg.values[k]}
    assert changed == {"ic.center"}
