"""Config grammar, validation diagnostics, and object builders."""

import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trefftzdg.basis import TREFFTZ
from trefftzdg.config import (
    DEFAULTS,
    ExperimentConfig,
    build_bc,
    build_domain,
    build_flux,
    build_initial_data,
    build_materials,
    build_mesh,
    build_profile,
    build_spec,
    experiment_points,
    parse_config_text,
    validate,
)
from trefftzdg.errors import ConfigParse, NonconformingMaterial
from trefftzdg.mesh import MAX_CELLS


def test_grammar_scalars_lists_and_comments():
    values = parse_config_text(
        """
        # full-line comment
        domain.x_l = 0        # trailing comment
        domain.x_r = 12.5
        flux.per_face_scaling = true
        experiment.h_values = 2, 1, 0.5
        experiment.p_values = 3
        experiment.alpha_values =
        output.csv = results.csv
        """
    )
    assert values["domain.x_l"] == 0 and isinstance(values["domain.x_l"], int)
    assert values["domain.x_r"] == 12.5
    assert values["flux.per_face_scaling"] is True
    assert values["experiment.h_values"] == [2, 1, 0.5]
    assert values["experiment.p_values"] == 3
    assert values["experiment.alpha_values"] == []
    assert values["output.csv"] == "results.csv"


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ConfigParse, match=r"problem.cfg:2"):
        parse_config_text("a.b = 1\nnot a key value line\n", name="problem.cfg")
    with pytest.raises(ConfigParse, match="empty key"):
        parse_config_text("= 3\n")


def test_unknown_keys_are_rejected():
    with pytest.raises(ConfigParse, match="unknown keys: mesh.h_z"):
        ExperimentConfig.from_text("mesh.h_z = 1\n")


def test_overrides_win_and_are_checked():
    cfg = ExperimentConfig.from_text("mesh.h_x = 2\n")
    cfg.override(["mesh.h_x=0.5", "basis.degree=4"])
    assert cfg.number("mesh.h_x") == 0.5
    assert cfg.integer("basis.degree") == 4
    with pytest.raises(ConfigParse, match="unknown key"):
        cfg.override(["mesh.h_z=1"])
    with pytest.raises(ConfigParse, match="key=value"):
        cfg.override(["mesh.h_x"])


def test_typed_accessors_reject_wrong_shapes():
    cfg = ExperimentConfig.defaults()
    with pytest.raises(ConfigParse):
        cfg.integer("mesh.h_x")        # 1.0 is not an integer
    with pytest.raises(ConfigParse):
        cfg.flag("basis.degree")
    with pytest.raises(ConfigParse):
        cfg.number("basis.family")
    assert cfg.text("experiment.name") == ""    # empty RHS doubles as empty string
    assert cfg.numbers("mesh.h_x") == [1.0]     # scalars promote to singletons
    assert cfg.integers("basis.degree") == [3]


def test_round_trip_is_bit_identical():
    cfg = ExperimentConfig.defaults()
    cfg.values["mesh.h_x"] = 0.1    # not exactly representable
    cfg.values["flux.alpha"] = 1.0 / 3.0
    text = cfg.to_text(header_lines=["written by a test"])
    again = ExperimentConfig.from_text(text)
    assert again.values == cfg.values
    assert again.to_text(header_lines=["written by a test"]) == text


def test_defaults_validate_clean():
    assert validate(ExperimentConfig.defaults()) == []


def _diagnose(**overrides):
    cfg = ExperimentConfig.defaults()
    cfg.values.update(overrides)
    return validate(cfg)


def test_validation_collects_all_diagnostics():
    diags = _diagnose(**{"domain.x_l": 5.0, "domain.x_r": 1.0, "mesh.h_t": -1.0,
                         "flux.delta": 1.5})
    assert len(diags) == 3
    assert any("domain.x_l" in d for d in diags)
    assert any("mesh.h_t" in d for d in diags)
    assert any("flux.delta" in d for d in diags)


def test_validation_messages():
    assert _diagnose(**{"flux.alpha": -0.5}) == [
        "flux.alpha, flux.beta, flux.delta, flux.per_face_scaling: "
        "flux penalties must be non-negative, got alpha=-0.5, beta=0.5"]
    assert _diagnose(**{"flux.alpha": 0.0}) == []    # zero passes, march warns
    assert any("basis.family" in d for d in _diagnose(**{"basis.family": "spectral"}))
    assert any("bc.kind" in d for d in _diagnose(**{"bc.kind": "absorbing"}))
    assert any("ic.width" in d for d in _diagnose(**{"ic.width": 0.0}))
    assert any("t_final" in d for d in _diagnose(**{"domain.t_final": -2.0}))
    assert any("experiment.kind" in d for d in _diagnose(**{"experiment.kind": "scan"}))


def test_source_diagnostics_depend_on_family():
    [diag] = _diagnose(**{"source.kind": "constant"})
    assert "trefftz" in diag and "homogeneous" in diag
    [diag] = _diagnose(**{"source.kind": "constant", "basis.family": "full"})
    assert "library API" in diag


def test_material_breakpoint_diagnostics():
    diags = _diagnose(**{"materials.breakpoints": [10.0, 20.0],
                         "materials.eps": [1.0, 4.0, 1.0],
                         "materials.mu": [1.0, 1.0, 1.0]})
    assert diags == []
    [diag] = _diagnose(**{"materials.breakpoints": 10.5,
                          "materials.eps": [1.0, 4.0],
                          "materials.mu": [1.0, 1.0]})
    assert "misses the partition" in diag
    diags = _diagnose(**{"materials.breakpoints": 10.0})
    assert any("materials.eps" in d for d in diags)
    [diag] = _diagnose(**{"materials.breakpoints": 70.0,
                          "materials.eps": [1.0, 4.0],
                          "materials.mu": [1.0, 1.0]})
    assert "outside the open domain" in diag


def _two_materials(breakpoint):
    return {"materials.breakpoints": breakpoint, "materials.eps": [1.0, 2.0],
            "materials.mu": [1.0, 1.0]}


@pytest.mark.parametrize("overrides, spacings, missed", [
    # 60 / 7 rounds to 9 cells of 6.67: x = 7 is no breakpoint
    ({"mesh.h_x": 7.0, **_two_materials(7.0)}, [7.0], True),
    # a sweep builds with its h_values only, never with mesh.h_x
    ({"experiment.kind": "sweep_h", "mesh.h_x": 0.5, "experiment.h_values": [2.0, 1.0],
      **_two_materials(10.5)}, [2.0, 1.0], True),
    # within BREAKPOINT_RTOL * length of the breakpoint x = 10
    ({"mesh.h_x": 1.0, **_two_materials(10.0 + 1e-8)}, [1.0], False),
])
def test_breakpoint_diagnostics_agree_with_the_mesh(overrides, spacings, missed):
    diags = _diagnose(**overrides)
    assert len(diags) == (len(spacings) if missed else 0)
    assert all("misses the partition" in d for d in diags)
    cfg = ExperimentConfig.defaults()
    cfg.values.update(overrides)
    for h in spacings:
        if missed:
            with pytest.raises(NonconformingMaterial):
                build_mesh(cfg, h_x=h, h_t=h)
        else:
            assert build_mesh(cfg, h_x=h, h_t=h).n_elements == 60 * 60


def test_sweep_lists_are_checked():
    diags = _diagnose(**{"experiment.kind": "sweep_flux"})
    assert len(diags) == 2    # both alpha_values and beta_values default empty
    assert all("must not be empty" in d for d in diags)
    diags = _diagnose(**{"experiment.kind": "sweep_flux",
                         "experiment.alpha_values": [0.5],
                         "experiment.beta_values": [-0.5]})
    assert any("beta_values" in d for d in diags)
    diags = _diagnose(**{"experiment.kind": "sweep_h", "experiment.h_values": []})
    assert any("h_values" in d for d in diags)
    diags = _diagnose(**{"experiment.kind": "sweep_p", "experiment.p_values": -1})
    assert any("p_values" in d for d in diags)
    # a sweep builds at its h_values only, so mesh.h_x and mesh.h_t go unread
    assert _diagnose(**{"experiment.kind": "sweep_h", "mesh.h_x": -1.0, "mesh.h_t": -1.0}) == []
    diags = _diagnose(**{"mesh.h_x": -1.0, "mesh.h_t": -1.0})
    assert len(diags) == 2 and any("mesh.h_x" in d for d in diags)
    assert any("mesh.h_t" in d for d in diags)


@pytest.mark.parametrize("overrides", [
    ["experiment.kind=sweep_h", "mesh.h_x=-1", "mesh.h_t=5e-324"],
    ["experiment.kind=sweep_p", "basis.degree=-1"],
    ["experiment.kind=spectrum", "basis.degree=x"],
    ["experiment.kind=sweep_flux", "experiment.alpha_values=1", "experiment.beta_values=0.5",
     "flux.alpha=-1", "flux.beta=x"],
], ids=lambda o: " ".join(o))
def test_values_a_sweep_replaces_are_not_checked(overrides):
    cfg = ExperimentConfig.defaults().override(overrides)
    assert validate(cfg) == []
    _check(lambda: cfg)


def test_unknown_initial_data_kind_is_rejected():
    cfg = ExperimentConfig.defaults().override(["ic.kind=sine"])
    with pytest.raises(ConfigParse, match="ic.kind"):
        build_initial_data(cfg)
    [diag] = validate(cfg)
    assert diag.startswith("ic.kind: ") and "'sine'" in diag


def test_experiment_points_name_each_solve():
    cfg = ExperimentConfig.defaults()
    assert experiment_points(cfg) == [({}, "")]
    cfg.override(["experiment.kind=sweep_h", "experiment.h_values=2,1"])
    assert experiment_points(cfg) == [({"h": 2.0}, "experiment.h_values = 2.0"),
                                      ({"h": 1.0}, "experiment.h_values = 1.0")]
    cfg.override(["experiment.kind=sweep_flux", "experiment.alpha_values=0.5",
                  "experiment.beta_values=0,1"])
    assert [args for args, _ in experiment_points(cfg)] == [
        {"alpha": 0.5, "beta": 0.0}, {"alpha": 0.5, "beta": 1.0}]
    cfg.override(["experiment.kind=scan"])
    with pytest.raises(ConfigParse, match="experiment.kind"):
        experiment_points(cfg)


def test_builders_assemble_the_problem():
    cfg = ExperimentConfig.defaults()
    cfg.values.update({"domain.x_r": 4.0, "domain.t_final": 2.0,
                       "mesh.h_x": 0.5, "mesh.h_t": 1.0})
    mesh = build_mesh(cfg)
    assert mesh.n_slabs == 2
    assert len(mesh.elem_grid[0]) == 8
    spec = build_spec(cfg)
    assert spec.family == TREFFTZ and spec.degree == 3
    assert build_spec(cfg, degree=1).degree == 1
    flux = build_flux(cfg, alpha=0.25)
    assert flux.alpha == 0.25 and flux.beta == 0.5
    assert build_bc(cfg).kind == "pec"
    cfg.values["bc.kind"] = "robin"
    assert build_bc(cfg).kind == "robin"
    data = build_initial_data(cfg)
    assert data.e0(10.0) == pytest.approx(1.0)
    cfg.values["ic.kind"] = "zero"
    assert build_initial_data(cfg).e0(3.0) == 0.0
    cfg.values.update({"ic.kind": "constant", "ic.value_h": 2.5})
    assert build_initial_data(cfg).h0(1.0) == 2.5


def test_reference_profile_needs_constant_materials():
    cfg = ExperimentConfig.defaults()
    assert build_profile(cfg) is not None
    cfg.values.update({"materials.breakpoints": [30.0],
                       "materials.eps": [1.0, 4.0], "materials.mu": [1.0, 1.0]})
    assert build_profile(cfg) is None


def test_default_table_is_self_consistent():
    cfg = ExperimentConfig.defaults()
    assert set(cfg.values) == set(DEFAULTS)
    text = cfg.to_text()
    assert ExperimentConfig.from_text(text).values == cfg.values


# -- fuzzing -------------------------------------------------------------

_VALUES = st.one_of(
    st.sampled_from(["", "0", "-1", "1", "3", "0.5", "-0.0", "1e-300", "1e308", "-1e308",
                     "nan", "inf", "-inf", "true", "false", "pec", "robin", "dirichlet",
                     "trefftz", "full", "gaussian", "constant", "zero", "none", "run",
                     "sweep_h", "sweep_p", "sweep_flux", "spectrum", "energy",
                     "1,2", "0.5,1", "1,", ",", "30.0", "1.0,4.0", "x,1"]),
    st.floats().map(repr),
    st.integers(-3, 12).map(str),
    st.integers().map(str),
    st.text(st.characters(codec="utf-8", exclude_characters="\n\r"), max_size=8),
)
_KEYS = st.sampled_from(sorted(DEFAULTS) + ["mesh.h", "bogus", ""])


def _build_all(cfg):
    """Every builder the configured experiment calls, on a config that
    validated clean, with the values the CLI gives it: a sweep's list
    stands in for the config value it sweeps. A mesh is built only where
    it stays small, since a valid config may ask for any resolution."""
    build_materials(cfg)
    domain = build_domain(cfg)
    kind = cfg.text("experiment.kind")
    if kind == "sweep_h":
        spacings = [(h, h) for h in cfg.numbers("experiment.h_values")]
    else:
        spacings = [(cfg.number("mesh.h_x"), cfg.number("mesh.h_t"))]
    for h_x, h_t in spacings:
        n_x, n_t = max(1.0, domain.length / h_x), max(1.0, domain.t_final / h_t)
        # past MAX_CELLS numpy cannot size the arrays; below it only memory can run out
        assert n_x <= MAX_CELLS and n_t <= MAX_CELLS
        if n_x * n_t <= 2000:
            build_mesh(cfg, h_x=h_x, h_t=h_t)
    if kind in ("sweep_p", "spectrum"):
        for p in cfg.integers("experiment.p_values"):
            build_spec(cfg, degree=p)
    else:
        build_spec(cfg)
    if kind == "sweep_flux":
        for a in cfg.numbers("experiment.alpha_values"):
            for b in cfg.numbers("experiment.beta_values"):
                build_flux(cfg, alpha=a, beta=b)
    else:
        build_flux(cfg)
    build_bc(cfg)
    build_initial_data(cfg)
    build_profile(cfg)


def _check(make_cfg):
    """ConfigParse, diagnostics, or a config that builds: never another exception."""
    try:
        cfg = make_cfg()
        with warnings.catch_warnings():
            warnings.simplefilter("error")      # validate itself warns about nothing
            diagnostics = validate(cfg)
    except ConfigParse:
        return
    assert all(isinstance(d, str) for d in diagnostics)
    if not diagnostics:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")     # alpha = 0 or beta = 0 warns
            _build_all(cfg)


@pytest.mark.parametrize("overrides", [
    ["ic.amplitude_e="],
    ["flux.per_face_scaling="],
    ["basis.family=3"],
    ["domain.x_r=inf"],
    ["ic.center=nan"],
    ["domain.x_l=-1e308", "domain.x_r=1e308"],
    ["mesh.h_t=5e-324"],
    ["domain.x_r=1" + "0" * 400],
    ["domain.x_l=-1e308"],
    ["domain.t_final=1e308"],
    ["experiment.kind=sweep_h", "experiment.h_values=1,5e-324"],
], ids=lambda o: " ".join(o))
def test_inputs_the_builders_reject_are_diagnosed(overrides):
    # before validate read every key the builders read, required finite
    # numbers and bounded the element counts, each of these validated clean
    # (the builders then raised ConfigParse, OverflowError or ValueError) or
    # stopped validate early
    assert validate(ExperimentConfig.defaults().override(overrides))


@settings(max_examples=200, deadline=None)
@given(st.text())
def test_arbitrary_text_parses_or_raises_config_parse(text):
    try:
        values = parse_config_text(text)
    except ConfigParse:
        return
    assert isinstance(values, dict)
    _check(lambda: ExperimentConfig.from_text(text))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_KEYS, _VALUES), max_size=6), st.booleans())
def test_random_overrides_give_diagnostics_or_a_config_that_builds(pairs, as_file):
    lines = [f"{key} = {value}" for key, value in pairs]
    if as_file:
        _check(lambda: ExperimentConfig.from_text("\n".join(lines)))
    else:
        _check(lambda: ExperimentConfig.defaults().override([line.replace(" = ", "=", 1)
                                                             for line in lines]))
