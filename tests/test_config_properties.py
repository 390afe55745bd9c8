"""Property tests of the config boundary: every valid config survives the
dict and JSON round trip, and every invalid number given on the command line
exits 2 with one line before any mesh is built."""

import json
import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from degenlab import cli, domain, experiments  # noqa: E402
from degenlab.experiments import ExperimentConfig  # noqa: E402

FEW = settings(max_examples=30, deadline=None, derandomize=True, database=None,
               suppress_health_check=[HealthCheck.function_scoped_fixture])

FLOAT_KEYS = ("R", "L", "alpha", "T", "dt_factor", "theta", "s_default",
              "gamma_default", "lambda_default", "carleman_epsilon")
LIST_KEYS = ("mesh_levels", "carleman_s", "carleman_gamma", "carleman_lambda")


def _distinct(values, reverse=False):
    return tuple(sorted(set(values), reverse=reverse))


@st.composite
def valid_configs(draw):
    R = draw(st.floats(0.5, 2.0))
    fractions = draw(st.lists(st.floats(0.1, 0.9), min_size=1, max_size=3))
    grid = st.lists(st.floats(1.0, 50.0), min_size=1, max_size=4)
    return ExperimentConfig(
        R=R, L=R * draw(st.floats(8.01, 12.0)), alpha=draw(st.floats(0.01, 1.99)),
        T=draw(st.floats(0.25, 2.0)),
        mesh_levels=_distinct((R * f for f in fractions), reverse=True),
        dt_factor=draw(st.floats(0.5, 10.0)), theta=draw(st.floats(0.5, 1.0)),
        k_levels=_distinct(draw(st.lists(st.integers(1, 64), min_size=1,
                                         max_size=4))),
        sample_count=draw(st.integers(1, 100)),
        sampler_families=tuple(draw(st.lists(
            st.sampled_from(("interior", "adversarial", "noise")),
            min_size=1, max_size=3, unique=True))),
        carleman_s=tuple(draw(grid)), carleman_gamma=tuple(draw(grid)),
        carleman_lambda=tuple(draw(grid)),
        s_default=draw(st.floats(1.0, 50.0)),
        carleman_family_count=draw(st.integers(1, 20)),
        carleman_sweep_samples=draw(st.integers(0, 5)),
        carleman_epsilon=draw(st.floats(0.01, 0.5)),
        seed=draw(st.integers(0, 2 ** 31)), out_dir=draw(st.text(min_size=1)))


@FEW
@given(cfg=valid_configs())
def test_valid_config_round_trips(cfg):
    assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg
    again = ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert again == cfg and again.config_hash() == cfg.config_hash()


# h on a log scale over 1e-300 .. 1e3, outside the meshes the vertex cap and
# (0, R) = (0, 1) admit; 0.02 already holds more than MAX_VERTICES vertices
TINY_H = st.floats(-300.0, math.log10(0.02)).map(lambda x: 10.0 ** x)
COARSE_H = st.floats(0.0, 3.0).map(lambda x: 10.0 ** x)
NON_FINITE = st.sampled_from((math.inf, -math.inf, math.nan))


@st.composite
def invalid_overrides(draw):
    """One (key, value) that ExperimentConfig must reject."""
    case = draw(st.sampled_from(("h", "non_finite", "non_finite_entry",
                                 "dt_factor", "k_levels", "grid", "default")))
    if case == "h":
        return "mesh_levels", [draw(st.one_of(TINY_H, COARSE_H,
                                              st.floats(1e-300, 0.02)))]
    if case == "non_finite":
        return draw(st.sampled_from(FLOAT_KEYS)), draw(NON_FINITE)
    if case == "non_finite_entry":
        key = draw(st.sampled_from(LIST_KEYS))
        return key, [draw(NON_FINITE)] if key == "mesh_levels" else [
            4.0, draw(NON_FINITE)]
    if case == "dt_factor":
        # at most 0, or so small that the h = 0.18 level needs more than
        # MAX_TRAJECTORY_FLOATS trajectory values
        return "dt_factor", draw(st.one_of(st.floats(-1e3, 0.0),
                                           st.floats(5e-324, 1e-3)))
    if case == "k_levels":
        bad = draw(st.one_of(st.integers(-100, 0),
                             st.floats(1.0, 64.0).filter(lambda k: k % 1.0),
                             st.sampled_from((8.0, 16.0))))
        return "k_levels", [bad, 128]
    if case == "grid":
        return draw(st.sampled_from(LIST_KEYS[1:])), [
            4.0, draw(st.floats(-1e3, 1.0, exclude_max=True))]
    return (draw(st.sampled_from(("s_default", "gamma_default",
                                  "lambda_default"))),
            draw(st.floats(-1e3, 1.0, exclude_max=True)))


@FEW
@given(override=invalid_overrides())
def test_invalid_number_exits_2_before_any_mesh(override, tmp_path,
                                                monkeypatch, capsys):
    def build_disk_mesh(*args, **kwargs):
        raise AssertionError(f"a mesh was built with {override}")

    monkeypatch.setattr(domain, "build_disk_mesh", build_disk_mesh)
    monkeypatch.setattr(experiments, "build_disk_mesh", build_disk_mesh)
    key, value = override
    capsys.readouterr()
    rc = cli.main(["observe", "--set", f"{key}={json.dumps(value)}",
                   "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 2, (override, err)
    assert err.startswith("degenlab: config error: ") and err.count("\n") == 1
    assert key in err, (override, err)
