"""The benchmark's workloads and tracing hooks still fit the package.

perfbench/workloads.py builds its inputs through the package's API
(config builders, BoundaryCondition.robin(g_l=...)) and wraps named
functions and methods of it (solver.assemble_slab, ElementBasis.eval_local,
SolutionField.evaluate, ...). A change that breaks one of them fails here,
not only in a benchmark run.
"""

from pathlib import Path

import numpy as np
import pytest

from trefftzdg import (
    BasisSpec,
    BoundaryCondition,
    FluxParams,
    GaussianPulse,
    InitialData,
    MaterialLayout,
    SpaceTimeDomain,
    solver,
    uniform_mesh,
)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_workload_hooks_install_record_and_close(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import compare_outputs  # noqa: F401  (workloads imports it too)
    import tracing
    import workloads

    march = solver.march
    tracer = tracing.Tracer()
    workloads.install(tracer)
    try:
        assert solver.march is not march
        mesh = uniform_mesh(SpaceTimeDomain(0.0, 2.0, 1.5), MaterialLayout.constant(), 2, 3)
        pulse = GaussianPulse(1.0, 0.2)
        sol = solver.march(mesh, BasisSpec("trefftz", 1), FluxParams(),
                           BoundaryCondition.pec(), InitialData(pulse, pulse))
        sol.evaluate(np.array([0.5]), np.array([0.5]))
    finally:
        tracer.close()
    assert solver.march is march
    names = [span.name for span in tracer.spans]
    assert {"solver.march", "assembly.slab", "basis.eval", "solver.evaluate"} <= set(names)
    # evaluate's tables are built inside eval_local, under its own span
    evaluate = names.index("solver.evaluate")
    assert any(span.name == "basis.eval" and span.parent == evaluate for span in tracer.spans)
    # identical slabs: slab 1's operator, assembled once through
    # solver.assemble_slab, serves every slab
    assert names.count("assembly.slab") == 1


@pytest.mark.parametrize("name", ["march_pec", "march_robin_data", "audit_default"])
def test_workloads_run_and_pass_their_checks_on_tiny_meshes(monkeypatch, name):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    inputs = workloads.build_inputs(name, 0, tiny=True)
    out, problems = workloads.checked_run(name, inputs, None, lambda phase, fn: fn(), tiny=True)
    assert out is not None and problems == []
