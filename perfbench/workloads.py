"""The three benchmark workloads: inputs from a seed, the timed steps, output checks.

Every workload is built from `ExperimentConfig.defaults()` with a few
overrides, as `trefftzdg run --set ...` would build it; the Robin workload
adds its incoming packet through the library API, which the flat config
cannot express.  The seed moves the pulse centre (or the packet's arrival
time) within a small stated range and changes nothing else, so the mesh,
degree, walls and hence the cost are the same for every seed.  Seed 0 is
the standard pulse.
"""

import math
import random
from dataclasses import dataclass

import numpy as np

from compare_outputs import differences
from trefftzdg import analysis, config, solver
from trefftzdg.assembly import BoundaryCondition
from trefftzdg.basis import ElementBasis
from trefftzdg.errors import TrefftzDGError
from trefftzdg.reference import CharacteristicProfile, GaussianPulse

CENTER = 10.0           # standard pulse exp(-(x - 10)^2 / 10)
CENTER_SHIFT = 0.5      # seeds move the centre within CENTER +- CENTER_SHIFT
ARRIVAL = 20.0          # the Robin packet g_l(t) = exp(-(t - 20)^2 / 10)
ARRIVAL_SHIFT = 1.0     # seeds move the arrival within ARRIVAL +- ARRIVAL_SHIFT
PACKET_WIDTH = 10.0
GRID = 201              # audit_default evaluates on a GRID x GRID plotting grid
TINY_H = 6.0            # the smoke test's mesh spacing (100 elements)
TINY_GRID = 21

RESIDUAL_MAX = 1e-9     # energy-identity residual bound, every seed


@dataclass(frozen=True)
class Workload:
    overrides: dict
    packet: bool        # Robin walls carrying an incoming packet, zero initial data
    audit: bool         # skeleton analysis and plotting-grid evaluation
    l2_max: float       # bound on the relative L2 error for every seed in range


WORKLOADS = {
    # 57,600 elements, 240 slabs of 1,920 dofs: mesh build and the per-slab
    # dense solve plus coupling product; assembly runs twice.
    "march_pec": Workload({"mesh.h_x": 0.25, "mesh.h_t": 0.25},
                          packet=False, audit=False, l2_max=2e-5),
    # Time-dependent wall data: march re-assembles every one of the 60 slabs.
    "march_robin_data": Workload({"basis.family": "full", "basis.degree": 2,
                                  "bc.kind": "robin", "ic.kind": "zero"},
                                 packet=True, audit=False, l2_max=5e-3),
    # Exactly `trefftzdg run` (plus what `trefftzdg energy` adds): a trivial
    # march and per-face Python loops in analysis and basis.
    "audit_default": Workload({}, packet=False, audit=True, l2_max=5e-4),
}


def _shift(seed, width):
    return 0.0 if seed == 0 else random.Random(seed).uniform(-width, width)


@dataclass
class Inputs:
    cfg: object
    spec: object
    flux: object
    bc: object
    data: object
    reference: object
    grid: tuple


def build_inputs(name, seed, tiny=False):
    """Everything a workload needs except the mesh, which it builds when timed."""
    workload = WORKLOADS[name]
    cfg = config.ExperimentConfig.defaults()
    cfg.values.update(workload.overrides)
    if not workload.packet:
        cfg.values["ic.center"] = CENTER + _shift(seed, CENTER_SHIFT)
    if tiny:
        cfg.values.update({"mesh.h_x": TINY_H, "mesh.h_t": TINY_H})
    problems = config.validate(cfg)
    if problems:
        raise ValueError(f"{name}: invalid config: {problems}")
    spec = config.build_spec(cfg)
    flux = config.build_flux(cfg)
    data = config.build_initial_data(cfg)
    if workload.packet:
        packet = GaussianPulse(ARRIVAL + _shift(seed, ARRIVAL_SHIFT), PACKET_WIDTH, 1.0)
        bc = BoundaryCondition.robin(g_l=packet)
        reference = CharacteristicProfile.robin(config.build_domain(cfg),
                                                data.e0, data.h0, g_l=packet)
    else:
        bc = config.build_bc(cfg)
        reference = config.build_profile(cfg)
    grid = ()
    if workload.audit:
        n = TINY_GRID if tiny else GRID
        x = np.linspace(cfg.number("domain.x_l"), cfg.number("domain.x_r"), n)
        t = np.linspace(0.0, cfg.number("domain.t_final"), n)
        grid = tuple(np.meshgrid(x, t))
    return Inputs(cfg, spec, flux, bc, data, reference, grid)


def run(name, inputs, step):
    """Run the workload's steps; returns its outputs.

    Every step goes through step(phase, fn), which calls fn and returns its
    result; phase is "solve" (mesh build, march) or "check" (analysis and
    evaluation).  Each step is one unit of timing.
    """
    mesh = step("solve", lambda: config.build_mesh(inputs.cfg))
    sol = step("solve", lambda: solver.march(mesh, inputs.spec, inputs.flux, inputs.bc,
                                             inputs.data))
    out = {}
    out["l2"], out["coef_norm"] = step("check", lambda: (
        analysis.l2_relative_error(sol, inputs.reference),
        float(np.linalg.norm(analysis.global_coefficients(sol)))))
    if WORKLOADS[name].audit:
        t_final = mesh.domain.t_final
        out["dg_error"] = step("check", lambda: analysis.dg_error(
            sol, inputs.reference, flux=inputs.flux))
        out["energy_final"] = step("check", lambda: analysis.discrete_energy(
            sol, t_final, side="below"))
        out["energy_residual"] = step("check", lambda: analysis.energy_budget(
            sol, inputs.data).residual)
        _, energies = step("check", lambda: analysis.energy_trajectory(sol))
        out["trajectory_final"] = float(energies[-1])
        E, H = step("check", lambda: sol.evaluate(*inputs.grid))
        out["grid_norm"] = float(np.sqrt(np.sum(E**2) + np.sum(H**2)))
    return out


def problems_with(name, out, expected, tiny=False):
    """Every way `out` fails its checks; `expected` are outputs it must repeat."""
    found = []
    l2_max = 1.0 if tiny else WORKLOADS[name].l2_max
    if not out["l2"] <= l2_max:
        found.append(f"l2 {out['l2']!r} above {l2_max}")
    if "energy_residual" in out:
        if not out["energy_residual"] <= RESIDUAL_MAX:
            found.append(f"energy residual {out['energy_residual']!r} above {RESIDUAL_MAX}")
        if out["trajectory_final"] != out["energy_final"]:
            found.append("energy trajectory does not end at the final energy")
    return found + [f"{d} differs" for d in differences(expected or {}, out)]


def checked_run(name, inputs, expected, step, tiny=False):
    """run() and its checks: (outputs or None, problems).

    A TrefftzDGError fails the run like a wrong output does.
    """
    try:
        out = run(name, inputs, step)
    except TrefftzDGError as exc:
        return None, [f"{type(exc).__name__}: {exc}"]
    return out, problems_with(name, out, expected, tiny)


def _points(args, kwargs):
    x = kwargs.get("x", args[1] if len(args) > 1 else None)
    t = kwargs.get("t", args[2] if len(args) > 2 else None)
    return {"points": math.prod(np.broadcast_shapes(np.shape(x), np.shape(t)))}


ANALYSIS = ("l2_relative_error", "dg_error", "discrete_energy", "energy_budget",
            "energy_trajectory", "global_coefficients")
CONFIG = ("validate", "build_spec", "build_flux", "build_bc", "build_initial_data",
          "build_profile")


def install(tracer):
    """Wrap every layer boundary the workloads cross."""
    tracer.wrap(config, "build_mesh", "mesh.build",
                lambda a, k, mesh: {"elements": mesh.n_elements})
    for fn in CONFIG:
        tracer.wrap(config, fn, "config.load")
    tracer.wrap(solver, "march", "solver.march", lambda a, k, sol: {
        "slabs": sol.mesh.n_slabs,
        "slab_dofs": max(len(c) for c in sol.coefficients)})
    # dense A (n x n) and R (n x n_prev) in float64, computed from the sizes
    tracer.wrap(solver, "assemble_slab", "assembly.slab", lambda a, k, s: {
        "dense_bytes": 8 * s.n_dofs * (s.n_dofs + s.n_prev)})
    tracer.wrap(ElementBasis, "eval_local", "basis.eval")
    tracer.wrap(CharacteristicProfile, "evaluate", "reference.eval",
                lambda a, k, r: _points(a, k))
    tracer.wrap(solver.SolutionField, "evaluate", "solver.evaluate",
                lambda a, k, r: _points(a, k))
    for fn in ANALYSIS:
        tracer.wrap(analysis, fn, f"analysis.{fn}")
