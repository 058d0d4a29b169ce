"""The benchmark's workloads and tracing hooks still fit the package.

perfbench/workloads.py builds its inputs through the package's API
(config builders, BoundaryCondition.robin(g_l=...)) and wraps named
functions and methods of it (solver.assemble_slab, ElementBasis.eval_local,
SolutionField.evaluate, ...). A change that breaks one of them fails here,
not only in a benchmark run. The tiny workloads' call and row counts
(COSTS) are exact: they do not drift with the host, as timings do.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from trefftzdg import (
    BasisSpec,
    BoundaryCondition,
    ElementBasis,
    FluxParams,
    GaussianPulse,
    InitialData,
    MaterialLayout,
    SpaceTimeDomain,
    solver,
    uniform_mesh,
)
from trefftzdg import analysis, config

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
    # identical slabs are one slab class: its operator, assembled once at
    # slab 0 through solver.assemble_slab, serves every slab
    assert names.count("assembly.slab") == 1


@pytest.mark.parametrize("name", ["march_pec", "march_robin_data", "audit_default"])
def test_workloads_run_and_pass_their_checks_on_tiny_meshes(monkeypatch, name):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    inputs = workloads.build_inputs(name, 0, tiny=True)
    out, problems = workloads.checked_run(name, inputs, None, lambda phase, fn: fn(), tiny=True)
    assert out is not None and problems == []


#: Exact costs on the tiny workloads (100 elements, 10 slabs): per march, its
#: assemble_slab, assemble_coupling and _SlabLU calls; per step, its eval_local
#: calls and the rows they evaluate (an (n,) offset array is one row). A
#: uniform slab's side and volume rules are one row shared by its elements.
COSTS = {
    "march_pec": {"march": (1, 1, 1), "assemble_slab": (7, 34), "dg_error": (8, 400),
                  "energy_budget": (8, 400), "l2_relative_error": (1, 1), "evaluate": (1, 441)},
    "march_robin_data": {"march": (1, 1, 1), "assemble_slab": (8, 35), "dg_error": (8, 400),
                         "l2_relative_error": (1, 1), "evaluate": (1, 441)},
    "audit_default": {"march": (1, 1, 1), "assemble_slab": (7, 34), "dg_error": (8, 400),
                      "energy_budget": (8, 400), "l2_relative_error": (1, 1),
                      "evaluate": (1, 441)},
}


@pytest.mark.parametrize("name", list(COSTS))
def test_tiny_workloads_cost_their_table_exactly(monkeypatch, name):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    calls = {"assemble_slab": 0, "assemble_coupling": 0, "_SlabLU": 0}
    evals = [0, 0]

    def counted(fn, f):
        def call(*args, **kwargs):
            calls[fn] += 1
            return f(*args, **kwargs)
        return call

    def eval_local(basis, dx, dt, f=ElementBasis.eval_local):
        evals[0] += 1
        evals[1] += math.prod(np.shape(dx)[:-1])
        return f(basis, dx, dt)

    for fn in calls:
        monkeypatch.setattr(solver, fn, counted(fn, getattr(solver, fn)))
    monkeypatch.setattr(ElementBasis, "eval_local", eval_local)
    inputs = workloads.build_inputs(name, 0, tiny=True)
    mesh = config.build_mesh(inputs.cfg)
    sol = solver.march(mesh, inputs.spec, inputs.flux, inputs.bc, inputs.data)
    costs = {"march": tuple(calls.values())}
    grid = np.meshgrid(np.linspace(mesh.domain.x_l, mesh.domain.x_r, workloads.TINY_GRID),
                       np.linspace(0.0, mesh.domain.t_final, workloads.TINY_GRID))
    steps = {"assemble_slab": lambda: solver.assemble_slab(mesh, 1, inputs.spec, inputs.flux,
                                                           inputs.bc),
             "dg_error": lambda: analysis.dg_error(sol, inputs.reference, flux=inputs.flux),
             "energy_budget": lambda: analysis.energy_budget(sol, inputs.data),
             "l2_relative_error": lambda: analysis.l2_relative_error(sol, inputs.reference),
             "evaluate": lambda: sol.evaluate(*grid)}
    for step in COSTS[name]:
        if step != "march":
            evals[:] = 0, 0
            steps[step]()
            costs[step] = tuple(evals)
    assert costs == COSTS[name]
