"""Flat key-value experiment configuration.

Grammar: one `section.key = value` per line; `#` starts a comment;
blank lines are skipped. Values parse as bool (true/false), int,
float, or string; a comma turns the value into a list of scalars; an
empty right-hand side is the empty list. Floats are serialized with
repr(), so a written manifest re-parses to bit-identical values.

The build_* functions turn a config into the solver's objects, and
experiment_points lists the solves an experiment kind runs. validate
checks a config by running those builders at those points: every rule
lives in the constructor that enforces it.
"""

import os
import warnings
from dataclasses import dataclass
from sys import float_info

from .assembly import BoundaryCondition, FluxParams, InitialData
from .basis import TREFFTZ, BasisSpec
from .errors import ConfigParse, TrefftzDGError
from .mesh import (MaterialLayout, SpaceTimeDomain, cell_count, mesh_from_spacing,
                   spacing_partition)
from .reference import Constant, GaussianPulse, CharacteristicProfile

EXPERIMENTS = ("run", "sweep_h", "sweep_p", "sweep_flux", "spectrum", "energy")

DEFAULTS = {
    "domain.x_l": 0.0,
    "domain.x_r": 60.0,
    "domain.t_final": 60.0,
    "mesh.h_x": 1.0,
    "mesh.h_t": 1.0,
    "materials.breakpoints": [],
    "materials.eps": [1.0],
    "materials.mu": [1.0],
    "basis.family": "trefftz",
    "basis.degree": 3,
    "flux.alpha": 0.5,
    "flux.beta": 0.5,
    "flux.delta": 0.5,
    "flux.per_face_scaling": False,
    "bc.kind": "pec",
    "ic.kind": "gaussian",
    "ic.center": 10.0,
    "ic.width": 10.0,
    "ic.amplitude_e": 1.0,
    "ic.amplitude_h": 1.0,
    "ic.value_e": 0.0,
    "ic.value_h": 0.0,
    "source.kind": "none",
    "experiment.kind": "run",
    "experiment.name": "",
    "experiment.h_values": [2.0, 1.0, 0.5, 0.25],
    "experiment.p_values": [0, 1, 2, 3, 4, 5],
    "experiment.alpha_values": [],
    "experiment.beta_values": [],
    "output.dir": "out",
    "output.csv": "results.csv",
    "output.svg": "",
}


def _parse_scalar(text):
    text = text.strip()
    low = text.lower()
    if low == "true":
        return True
    if low == "false":
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def _parse_value(text):
    text = text.strip()
    if text == "":
        return []
    if "," in text:
        return [_parse_scalar(part) for part in text.split(",")]
    return _parse_scalar(text)


def _format_value(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return ",".join(_format_value(v) for v in value)
    return str(value)


def _canonical(key, value):
    """Resolve grammar ambiguity against the default's shape.

    A single scalar is a one-element list for list-typed keys, and an
    empty right-hand side is the empty string for string-typed keys, so
    parse(to_text(cfg)) reproduces cfg structurally.
    """
    default = DEFAULTS[key]
    if isinstance(default, list) and not isinstance(value, list):
        return [value]
    if isinstance(default, str) and value == []:
        return ""
    return value


def parse_config_text(text, name="<config>"):
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigParse(f"{name}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise ConfigParse(f"{name}:{lineno}: empty key")
        values[key] = _parse_value(value)
    return values


@dataclass
class ExperimentConfig:
    """Resolved configuration: defaults overlaid with file and CLI values."""

    values: dict

    @classmethod
    def from_text(cls, text, name="<config>"):
        merged = dict(DEFAULTS)
        parsed = parse_config_text(text, name)
        unknown = sorted(set(parsed) - set(DEFAULTS))
        if unknown:
            raise ConfigParse(f"{name}: unknown keys: {', '.join(unknown)}")
        merged.update({k: _canonical(k, v) for k, v in parsed.items()})
        return cls(merged)

    @classmethod
    def from_file(cls, path):
        with open(path) as fh:
            return cls.from_text(fh.read(), name=str(path))

    @classmethod
    def defaults(cls):
        return cls(dict(DEFAULTS))

    def override(self, assignments):
        """Apply `key=value` strings (CLI flags win over file keys)."""
        for item in assignments:
            if "=" not in item:
                raise ConfigParse(f"override {item!r} is not of the form key=value")
            key, _, value = item.partition("=")
            key = key.strip()
            if key not in DEFAULTS:
                raise ConfigParse(f"override of unknown key {key!r}")
            self.values[key] = _canonical(key, _parse_value(value))
        return self

    # typed access ----------------------------------------------------

    def number(self, key):
        v = self.values[key]
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not abs(v) <= float_info.max:
            raise ConfigParse(f"{key} must be a finite number, got {v!r}")
        return float(v)

    def integer(self, key):
        v = self.values[key]
        if isinstance(v, bool) or not isinstance(v, int):
            raise ConfigParse(f"{key} must be an integer, got {v!r}")
        return v

    def text(self, key):
        v = self.values[key]
        if v == []:
            return ""          # an empty right-hand side is also the empty string
        if not isinstance(v, str):
            raise ConfigParse(f"{key} must be a string, got {v!r}")
        return v

    def flag(self, key):
        v = self.values[key]
        if not isinstance(v, bool):
            raise ConfigParse(f"{key} must be true or false, got {v!r}")
        return v

    def numbers(self, key):
        v = self.values[key]
        items = v if isinstance(v, list) else [v]
        if all(isinstance(x, (int, float)) and not isinstance(x, bool)
               and abs(x) <= float_info.max for x in items):
            return [float(x) for x in items]
        raise ConfigParse(f"{key} must be a list of finite numbers, got {v!r}")

    def integers(self, key):
        v = self.values[key]
        if isinstance(v, int) and not isinstance(v, bool):
            return [v]
        if isinstance(v, list) and all(
            isinstance(x, int) and not isinstance(x, bool) for x in v
        ):
            return list(v)
        raise ConfigParse(f"{key} must be a list of integers, got {v!r}")

    def to_text(self, header_lines=()):
        lines = [f"# {line}" for line in header_lines]
        for key in sorted(self.values):
            lines.append(f"{key} = {_format_value(self.values[key])}")
        return "\n".join(lines) + "\n"


class _Reads(dict):
    """Config values that note, in order, each key read from them."""

    def __init__(self, values):
        super().__init__(values)
        self.read = []

    def __getitem__(self, key):
        if key not in self.read:
            self.read.append(key)
        return super().__getitem__(key)


def experiment_points(cfg):
    """The solves the configured experiment runs, in order.

    Each is (builder arguments, the config text that names them): h for
    both spacings, degree, or alpha and beta; run and energy solve once
    with the config's own values.
    """
    kind = cfg.text("experiment.kind")
    if kind in ("run", "energy"):
        return [({}, "")]
    if kind == "sweep_h":
        return [({"h": h}, f"experiment.h_values = {h}")
                for h in cfg.numbers("experiment.h_values")]
    if kind in ("sweep_p", "spectrum"):
        return [({"degree": p}, f"experiment.p_values = {p}")
                for p in cfg.integers("experiment.p_values")]
    if kind == "sweep_flux":
        alphas, betas = cfg.numbers("experiment.alpha_values"), cfg.numbers("experiment.beta_values")
        return [({"alpha": a, "beta": b},
                 f"experiment.alpha_values = {a}, experiment.beta_values = {b}")
                for a in alphas for b in betas]
    raise ConfigParse(f"experiment.kind must be one of {EXPERIMENTS}, got {kind!r}")


def validate(cfg):
    """Every diagnostic of the config; an empty list means it runs.

    validate calls the builders the experiment calls, at every point it
    solves (experiment_points), and at each spacing the mesh's own cell
    count and partition check, without building a mesh. Each
    TrefftzDGError becomes one line, prefixed by the point and the config
    keys that the failing call read; identical lines appear once. Its own
    rules are only those no builder makes: source.kind, sweep lists that
    are empty, and the names the CLI reads, experiment.name and output.*.
    """
    diagnostics = []

    def attempt(build, *args, name="", values=None):
        """build(cfg, *args), or None with its failure noted."""
        values = _Reads(cfg.values) if values is None else values
        try:
            return build(ExperimentConfig(values), *args)
        except TrefftzDGError as exc:
            line = f"{', '.join(filter(None, [name, *values.read]))}: {exc}"
            if line not in diagnostics:
                diagnostics.append(line)

    domain = attempt(build_domain)
    materials = attempt(build_materials)
    attempt(build_bc)
    attempt(build_initial_data)
    listed = _Reads(cfg.values)
    points = attempt(experiment_points, values=listed)
    if points == []:        # a sweep over an empty list
        diagnostics += [f"{key} must not be empty for {cfg.values['experiment.kind']}"
                        for key in listed.read if cfg.values[key] == []]

    # without a domain there is no extent to count cells across, only a sign to check
    length, t_final = (domain.length, domain.t_final) if domain else (0.0, 0.0)

    def x_spacing(c, h):
        h = c.number("mesh.h_x") if h is None else h
        if domain and materials:
            spacing_partition(domain, materials, h)
        else:
            cell_count(length, h)

    def t_spacing(c, h):
        cell_count(t_final, c.number("mesh.h_t") if h is None else h)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")     # alpha = 0 or beta = 0: the march warns
        for args, point in points or []:
            named = dict.fromkeys(args, point)      # the point names the calls it sets up
            attempt(build_spec, args.get("degree"), name=named.get("degree"))
            attempt(build_flux, args.get("alpha"), args.get("beta"), name=named.get("alpha"))
            attempt(x_spacing, args.get("h"), name=named.get("h"))
            attempt(t_spacing, args.get("h"), name=named.get("h"))

    for key in ("output.dir", "output.csv", "output.svg", "experiment.name"):
        text = attempt(lambda c: c.text(key))
        if text == "" and key in ("output.dir", "output.csv"):
            diagnostics.append(f"{key} must not be empty")
        # the CLI opens output.csv and output.svg inside the output directory
        elif text and key in ("output.csv", "output.svg") and (
                os.path.basename(text) != text or text in (os.curdir, os.pardir)):
            diagnostics.append(f"{key} must be a bare file name, got {text!r}")
    if attempt(lambda c: c.text("source.kind")) not in (None, "none"):
        if cfg.values["basis.family"] == TREFFTZ:
            diagnostics.append(
                "source.kind != none is incompatible with basis.family = trefftz: "
                "transport polynomials solve the homogeneous system exactly"
            )
        else:
            diagnostics.append(
                "volume sources are not expressible in the flat config; "
                "use the library API for source terms"
            )
    return diagnostics


# builders -------------------------------------------------------------


def build_domain(cfg):
    return SpaceTimeDomain(cfg.number("domain.x_l"), cfg.number("domain.x_r"),
                           cfg.number("domain.t_final"))


def build_materials(cfg):
    breaks = cfg.numbers("materials.breakpoints")
    return MaterialLayout(tuple(breaks), tuple(cfg.numbers("materials.eps")),
                          tuple(cfg.numbers("materials.mu")))


def build_mesh(cfg, h_x=None, h_t=None):
    domain = build_domain(cfg)
    materials = build_materials(cfg)
    return mesh_from_spacing(domain, materials,
                             h_x if h_x is not None else cfg.number("mesh.h_x"),
                             h_t if h_t is not None else cfg.number("mesh.h_t"))


def build_spec(cfg, degree=None):
    return BasisSpec(cfg.text("basis.family"),
                     degree if degree is not None else cfg.integer("basis.degree"))


def build_flux(cfg, alpha=None, beta=None):
    return FluxParams(
        alpha=alpha if alpha is not None else cfg.number("flux.alpha"),
        beta=beta if beta is not None else cfg.number("flux.beta"),
        delta=cfg.number("flux.delta"),
        per_face_scaling=cfg.flag("flux.per_face_scaling"),
    )


def build_bc(cfg):
    """The configured walls; the flat config carries no boundary data."""
    return BoundaryCondition(cfg.text("bc.kind"))


def build_initial_data(cfg):
    kind = cfg.text("ic.kind")
    if kind == "zero":
        return InitialData.zero()
    if kind == "constant":
        return InitialData(Constant(cfg.number("ic.value_e")),
                           Constant(cfg.number("ic.value_h")))
    if kind != "gaussian":
        raise ConfigParse(f"ic.kind must be one of ('gaussian', 'constant', 'zero'), got {kind!r}")
    center, width = cfg.number("ic.center"), cfg.number("ic.width")
    return InitialData(
        GaussianPulse(center, width, cfg.number("ic.amplitude_e")),
        GaussianPulse(center, width, cfg.number("ic.amplitude_h")),
    )


def build_profile(cfg):
    """Closed-form reference for the configured problem, or None.

    Available when the materials are constant; the boundary data in the
    config is always homogeneous, so pec/dirichlet walls get the
    conducting-wall reference and robin walls the one with zero wall data.
    """
    materials = build_materials(cfg)
    if not materials.is_constant:
        return None
    data = build_initial_data(cfg)
    return CharacteristicProfile.for_problem(
        build_domain(cfg), materials, data.e0, data.h0, cfg.text("bc.kind")
    )
