"""Flat key-value experiment configuration.

Grammar: one `section.key = value` per line; `#` starts a comment;
blank lines are skipped. Values parse as bool (true/false), int,
float, or string; a comma turns the value into a list of scalars; an
empty right-hand side is the empty list. Floats are serialized with
repr(), so a written manifest re-parses to bit-identical values.
"""

from dataclasses import dataclass
from sys import float_info

from .assembly import BC_KINDS, BoundaryCondition, FluxParams, InitialData
from .basis import FAMILIES, BasisSpec
from .errors import ConfigParse
from .mesh import (MaterialLayout, SpaceTimeDomain, mesh_from_spacing, missed_breakpoints,
                   spacing_partition)
from .reference import Constant, GaussianPulse, CharacteristicProfile

EXPERIMENTS = ("run", "sweep_h", "sweep_p", "sweep_flux", "spectrum", "energy")
IC_CHOICES = ("gaussian", "constant", "zero")
MAX_CELLS = 2**24      # elements per direction: numpy can size every mesh array below it

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


def validate(cfg):
    """Collect every configuration diagnostic; empty list means runnable."""
    diagnostics = []

    def checked(read, key):
        try:
            return read(key)
        except ConfigParse as exc:
            diagnostics.append(str(exc))
            return None

    def num(key):
        return checked(cfg.number, key)

    def choice(key, choices):
        value = checked(cfg.text, key)
        if value is not None and value not in choices:
            diagnostics.append(f"{key} must be one of {choices}, got {value!r}")
        return value

    def spacing(key, h, extent):
        """Whether meshes can be built at spacing h; diagnoses why not."""
        if not h > 0:
            diagnostics.append(f"{key} = {h} must be positive")
        elif extent is not None and not extent / h <= MAX_CELLS:
            diagnostics.append(f"{key} = {h} gives more than {MAX_CELLS} elements per direction")
        else:
            return True
        return False

    x_l, x_r = num("domain.x_l"), num("domain.x_r")
    t_final = num("domain.t_final")
    length = None if x_l is None or x_r is None else x_r - x_l
    if length is not None and not x_l < x_r:
        diagnostics.append(f"domain.x_l = {x_l} must be below domain.x_r = {x_r}")
    if t_final is not None and not t_final > 0:
        diagnostics.append(f"domain.t_final = {t_final} must be positive")

    h_x, h_t = num("mesh.h_x"), num("mesh.h_t")
    h_x_usable = h_x is not None and spacing("mesh.h_x", h_x, length)
    if h_t is not None:
        spacing("mesh.h_t", h_t, t_final)

    try:
        breaks = cfg.numbers("materials.breakpoints")
        eps = cfg.numbers("materials.eps")
        mu = cfg.numbers("materials.mu")
    except ConfigParse as exc:
        diagnostics.append(str(exc))
        breaks, eps, mu = [], [1.0], [1.0]
    if len(eps) != len(breaks) + 1 or len(mu) != len(breaks) + 1:
        diagnostics.append(
            f"{len(breaks)} material breakpoints require {len(breaks) + 1} values "
            f"in materials.eps and materials.mu, got {len(eps)} and {len(mu)}"
        )
    if any(e <= 0 for e in eps) or any(m <= 0 for m in mu):
        diagnostics.append("materials.eps and materials.mu must be positive")
    if any(b1 <= b0 for b0, b1 in zip(breaks, breaks[1:])):
        diagnostics.append("materials.breakpoints must be strictly increasing")
    inside = []         # the breakpoints the partitions must contain
    if length is not None and length > 0:
        for b in breaks:
            if x_l < b < x_r:
                inside.append(b)
            else:
                diagnostics.append(f"material breakpoint {b} outside the open domain")

    family = choice("basis.family", FAMILIES)
    try:
        degree = cfg.integer("basis.degree")
        if degree < 0:
            diagnostics.append(f"basis.degree = {degree} must be non-negative")
    except ConfigParse as exc:
        diagnostics.append(str(exc))

    alpha, beta, delta = num("flux.alpha"), num("flux.beta"), num("flux.delta")
    checked(cfg.flag, "flux.per_face_scaling")
    if alpha is not None and alpha < 0:
        diagnostics.append("flux.alpha must be positive")
    if beta is not None and beta < 0:
        diagnostics.append("flux.beta must be positive")
    if delta is not None and not 0 < delta < 1:
        diagnostics.append(f"flux.delta = {delta} must lie strictly between 0 and 1")

    choice("bc.kind", BC_KINDS)
    ic_kind = choice("ic.kind", IC_CHOICES)
    if ic_kind == "gaussian":
        width = num("ic.width")
        if width is not None and not width > 0:
            diagnostics.append(f"ic.width = {width} must be positive")
    # the other numbers build_initial_data reads for this kind
    for key in {"gaussian": ("ic.center", "ic.amplitude_e", "ic.amplitude_h"),
                "constant": ("ic.value_e", "ic.value_h")}.get(ic_kind, ()):
        num(key)

    source_kind = checked(cfg.text, "source.kind")
    if source_kind not in (None, "none"):
        if family == "trefftz":
            diagnostics.append(
                "source.kind != none is incompatible with basis.family = trefftz: "
                "transport polynomials solve the homogeneous system exactly"
            )
        else:
            diagnostics.append(
                "volume sources are not expressible in the flat config; "
                "use the library API for source terms"
            )

    kind = choice("experiment.kind", EXPERIMENTS)
    # the spatial spacings the experiment builds its meshes with
    built = [("mesh.h_x", h_x)] if h_x_usable else []
    if kind == "sweep_h":
        built = []
        try:
            hs = cfg.numbers("experiment.h_values")
            if len(hs) < 1:
                diagnostics.append("experiment.h_values must not be empty for sweep_h")
            for h in hs:
                if spacing("experiment.h_values", h, max(length or 0.0, t_final or 0.0)):
                    built.append(("experiment.h_values", h))
        except ConfigParse as exc:
            diagnostics.append(str(exc))
    for key, h in built if inside else []:
        for b in missed_breakpoints(spacing_partition(x_l, x_r, h), inside, length):
            diagnostics.append(
                f"material breakpoint {b} misses the partition of slab 0 at {key} = {h} "
                f"(and of every slab: the mesh is uniform)"
            )
    if kind in ("sweep_p", "spectrum"):
        try:
            ps = cfg.integers("experiment.p_values")
            if len(ps) < 1:
                diagnostics.append("experiment.p_values must not be empty")
            if any(p < 0 for p in ps):
                diagnostics.append("experiment.p_values must be non-negative")
        except ConfigParse as exc:
            diagnostics.append(str(exc))
    if kind == "sweep_flux":
        for key in ("experiment.alpha_values", "experiment.beta_values"):
            try:
                vals = cfg.numbers(key)
                if len(vals) < 1:
                    diagnostics.append(f"{key} must not be empty for sweep_flux")
                if any(v < 0 for v in vals):
                    diagnostics.append(f"{key} must be non-negative")
            except ConfigParse as exc:
                diagnostics.append(str(exc))

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
    center, width = cfg.number("ic.center"), cfg.number("ic.width")
    return InitialData(
        GaussianPulse(center, width, cfg.number("ic.amplitude_e")),
        GaussianPulse(center, width, cfg.number("ic.amplitude_h")),
    )


def build_profile(cfg):
    """Closed-form reference for the configured problem, or None.

    Available when the materials are constant; the boundary data in the
    config is always homogeneous, so pec/dirichlet walls get the
    conducting-wall reference and robin walls the zero-extended one.
    """
    materials = build_materials(cfg)
    if not materials.is_constant:
        return None
    data = build_initial_data(cfg)
    return CharacteristicProfile.for_problem(
        build_domain(cfg), materials, data.e0, data.h0, cfg.text("bc.kind")
    )
