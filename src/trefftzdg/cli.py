"""Command-line driver for the space-time solver experiments.

Exit codes: 0 on success, 1 for configuration problems (parse errors or
validation diagnostics), 2 when the numerical pipeline fails.
"""

import argparse
import csv
import math
import os
import sys

import numpy as np
import scipy

from . import __version__
from .analysis import (
    CSV_HEADER,
    ErrorReport,
    dg_error,
    discrete_energy,
    energy_budget,
    energy_trajectory,
    fit_rates,
    l2_relative_error,
)
from .config import (
    ExperimentConfig,
    build_bc,
    build_flux,
    build_initial_data,
    build_mesh,
    build_profile,
    build_spec,
    experiment_points,
    validate,
)
from .errors import (
    ConfigParse,
    InsufficientSamples,
    NonpositiveError,
    TrefftzDGError,
)
from .solver import march, spectrum, update_matrix

OUTDIR_ENV = "TREFFTZDG_OUTDIR"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _build_parser():
    parser = _Parser(
        prog="trefftzdg",
        description="Space-time discontinuous Galerkin solver for the "
        "one-dimensional Maxwell system.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "run": "execute the experiment recorded in the config",
        "validate": "check a config and print every diagnostic",
        "sweep-h": "mesh refinement sweep over experiment.h_values",
        "sweep-p": "degree sweep over experiment.p_values",
        "sweep-flux": "grid over experiment.alpha_values x beta_values",
        "spectrum": "eigenvalues of the one-slab update map per degree",
        "energy": "energy trajectory and the discrete energy budget",
    }
    for name, help_text in commands.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("config", nargs="?", default=None,
                         help="config file (defaults apply when omitted)")
        cmd.add_argument("--set", dest="overrides", action="append",
                         metavar="KEY=VALUE", default=[],
                         help="override a config key")
        cmd.add_argument("--out", default=None,
                         help=f"output directory (overrides ${OUTDIR_ENV} "
                         "and output.dir)")
    return parser


def _load_config(args):
    if args.config is None:
        cfg = ExperimentConfig.defaults()
    else:
        cfg = ExperimentConfig.from_file(args.config)
    cfg.override(args.overrides)
    if args.command not in ("run", "validate"):     # the other commands name their kind
        cfg.values["experiment.kind"] = args.command.replace("-", "_")
    return cfg


def _output_dir(cfg, args):
    if args.out is not None:
        return args.out
    env = os.environ.get(OUTDIR_ENV)
    if env:
        return env
    return cfg.text("output.dir")


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_manifest(cfg, outdir):
    header = (
        f"trefftzdg {__version__} manifest: rerun with "
        "`trefftzdg run manifest.cfg`",
        f"python {sys.version.split()[0]}, numpy {np.__version__}, "
        f"scipy {scipy.__version__}",
    )
    path = os.path.join(outdir, "manifest.cfg")
    with open(path, "w") as fh:
        fh.write(cfg.to_text(header_lines=header))
    return path


def write_svg(path, series, x_label, y_label, log_y=False):
    """Tiny dependency-free line plot: one polyline per (label, xs, ys)."""
    width, height, margin = 640, 440, 60
    pts_all = [(x, y) for _, xs, ys in series for x, y in zip(xs, ys)
               if not log_y or y > 0]
    if not pts_all:
        return
    trans_y = (lambda y: math.log10(y)) if log_y else (lambda y: y)
    xs_all = [x for x, _ in pts_all]
    ys_all = [trans_y(y) for _, y in pts_all]
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    def to_px(x, y):
        px = margin + (x - x_lo) / x_span * (width - 2 * margin)
        py = height - margin - (trans_y(y) - y_lo) / y_span * (height - 2 * margin)
        return f"{px:.2f},{py:.2f}"

    colors = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<text x="{width // 2}" y="{height - margin // 4}" '
        f'text-anchor="middle" font-size="13">{x_label}</text>',
        f'<text x="{margin // 4}" y="{height // 2}" text-anchor="middle" '
        f'font-size="13" transform="rotate(-90 {margin // 4} {height // 2})">'
        f'{("log10 " if log_y else "") + y_label}</text>',
    ]
    for k, (label, xs, ys) in enumerate(series):
        pts = [to_px(x, y) for x, y in zip(xs, ys) if not log_y or y > 0]
        if not pts:
            continue
        color = colors[k % len(colors)]
        lines.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'points="{" ".join(pts)}"/>'
        )
        lines.append(
            f'<text x="{width - margin + 4}" y="{margin + 16 * k}" '
            f'font-size="12" fill="{color}">{label}</text>'
        )
    lines.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _solve_once(cfg, h=None, degree=None, alpha=None, beta=None):
    mesh = build_mesh(cfg, h_x=h, h_t=h)
    spec = build_spec(cfg, degree=degree)
    flux = build_flux(cfg, alpha=alpha, beta=beta)
    bc = build_bc(cfg)
    data = build_initial_data(cfg)
    sol = march(mesh, spec, flux, bc, data)
    return sol, data


def _report(cfg, sol, name):
    profile = build_profile(cfg)
    mesh, spec, flux = sol.mesh, sol.spec, sol.flux
    eps_q = l2_relative_error(sol, profile) if profile is not None else float("nan")
    dg = dg_error(sol, profile, flux=flux) if profile is not None else float("nan")
    energy_final = discrete_energy(sol, mesh.domain.t_final, side="below")
    return ErrorReport(
        experiment=name,
        h_x=mesh.hx[0], h_t=mesh.ht[0],
        p=spec.max_degree(), family=spec.family,
        alpha=flux.alpha, beta=flux.beta,
        eps_q=eps_q, dg=dg, energy_final=energy_final,
    )


def _attach_rate(reports, xs, mode):
    errors = [r.eps_q for r in reports]
    if any(not math.isfinite(e) for e in errors):
        return
    try:
        fit = fit_rates(xs, errors, mode=mode)
    except (InsufficientSamples, NonpositiveError):
        return
    reports[-1].rate = fit.rate


#: the coordinate a sweep's rate and plot read from its reports: the mesh's
#: own spacing, which rounds h to a whole number of cells, or the degree
_SWEPT = {"sweep_h": ("h", lambda r: r.h_x), "sweep_p": ("p", lambda r: float(r.p))}


def _experiment_rows(cfg, name):
    reports = [_report(cfg, _solve_once(cfg, **args)[0], name)
               for args, _ in experiment_points(cfg)]
    swept = _SWEPT.get(cfg.text("experiment.kind"))
    if swept:
        mode, coordinate = swept
        _attach_rate(reports, [coordinate(r) for r in reports], mode=mode)
    return reports


def _run_tabular(cfg, outdir, name):
    reports = _experiment_rows(cfg, name)
    csv_path = os.path.join(outdir, cfg.text("output.csv"))
    _write_csv(csv_path, CSV_HEADER, [r.row() for r in reports])
    print(f"wrote {csv_path} ({len(reports)} rows)")

    svg_name = cfg.text("output.svg")
    swept = _SWEPT.get(cfg.text("experiment.kind"))
    if svg_name and swept and len(reports) > 1:
        x_label, coordinate = swept
        ys = [r.eps_q for r in reports]
        if all(math.isfinite(y) and y > 0 for y in ys):
            path = os.path.join(outdir, svg_name)
            write_svg(path, [(name, [coordinate(r) for r in reports], ys)], x_label,
                      "relative L2 error", log_y=True)
            print(f"wrote {path}")


def _run_spectrum(cfg, outdir, name):
    mesh = build_mesh(cfg)
    flux = build_flux(cfg)
    bc = build_bc(cfg)
    eig_rows, summary_rows = [], []
    for args, _ in experiment_points(cfg):
        p = args["degree"]
        spec = build_spec(cfg, degree=p)
        update = update_matrix(mesh, spec, flux, bc)
        spct = spectrum(update)
        for k, lam in enumerate(spct.eigenvalues):
            eig_rows.append([name, str(p), str(k), repr(float(lam.real)),
                             repr(float(lam.imag)), repr(float(abs(lam)))])
        summary_rows.append([name, str(p), str(update.shape[0]),
                             repr(float(spct.spectral_radius)),
                             repr(float(spct.cond))])
        print(f"p={p}: n={update.shape[0]} "
              f"spectral_radius={spct.spectral_radius:.15g} cond={spct.cond:.6g}")
    _write_csv(os.path.join(outdir, "eigenvalues.csv"),
               ["experiment", "p", "index", "re", "im", "modulus"], eig_rows)
    _write_csv(os.path.join(outdir, "spectrum.csv"),
               ["experiment", "p", "n_dofs", "spectral_radius", "cond"],
               summary_rows)
    print(f"wrote {os.path.join(outdir, 'eigenvalues.csv')} and spectrum.csv")


def _run_energy(cfg, outdir, name):
    sol, data = _solve_once(cfg)
    budget = energy_budget(sol, data)
    times, energies = energy_trajectory(sol)
    rows = [[name, repr(0.0), repr(float(budget.initial_energy))]]
    rows += [[name, repr(float(t)), repr(float(e))]
             for t, e in zip(times, energies)]
    _write_csv(os.path.join(outdir, "energy.csv"),
               ["experiment", "t", "energy"], rows)
    budget_rows = [[term, repr(float(value))]
                   for term, value in budget.as_dict().items()]
    _write_csv(os.path.join(outdir, "budget.csv"), ["term", "value"], budget_rows)
    print(f"initial energy {budget.initial_energy:.15g}, "
          f"final energy {budget.final_energy:.15g}, "
          f"identity residual {budget.residual:.3e}")

    svg_name = cfg.text("output.svg")
    if svg_name:
        xs = [0.0] + list(times)
        ys = [budget.initial_energy] + list(energies)
        write_svg(os.path.join(outdir, svg_name), [(name, xs, ys)],
                  "t", "energy", log_y=False)
    print(f"wrote {os.path.join(outdir, 'energy.csv')} and budget.csv")


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)

    try:
        cfg = _load_config(args)
    except (TrefftzDGError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    diagnostics = validate(cfg)
    if args.command == "validate":
        for line in diagnostics:
            print(line)
        if diagnostics:
            print(f"{len(diagnostics)} problem(s) found")
            return 1
        print("ok")
        return 0
    if diagnostics:
        for line in diagnostics:
            print(f"error: {line}", file=sys.stderr)
        return 1

    outdir = _output_dir(cfg, args)
    os.makedirs(outdir, exist_ok=True)

    try:
        name = cfg.text("experiment.name") or cfg.text("experiment.kind")
        kind = cfg.text("experiment.kind")
        if kind == "spectrum":
            _run_spectrum(cfg, outdir, name)
        elif kind == "energy":
            _run_energy(cfg, outdir, name)
        else:
            _run_tabular(cfg, outdir, name)
    except ConfigParse as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except TrefftzDGError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    _write_manifest(cfg, outdir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
