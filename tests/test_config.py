import json

import pytest

from revivals import ConfigError, config_from_json
from revivals.config import expand_preset, load_preset, preset_names

from conftest import ALPHA, OMEGA0


def sample_config(**over):
    base = dict(dim=30, omega0=OMEGA0, alpha_re=ALPHA, alpha_im=0.0,
                nonlinearity_order=2, b=0.005, gamma=0.0, t_final=100.0)
    base.update(over)
    return base


def test_round_trip_identity():
    cfg = config_from_json(json.dumps(sample_config(dt=0.05, state_n=2, comment="c")))
    again = config_from_json(cfg.to_json())
    assert again == cfg


def test_empty_config_lists_missing_fields():
    with pytest.raises(ConfigError) as err:
        config_from_json("{}")
    msg = str(err.value)
    for name in ("dim", "omega0", "b", "gamma", "t_final"):
        assert name in msg


# record_every, seed_preset and outputs were fields once; configs carrying them fail
@pytest.mark.parametrize("field", ["bogus", "record_every", "seed_preset", "outputs"])
def test_unknown_fields_rejected(field):
    with pytest.raises(ConfigError, match="unknown config fields"):
        config_from_json(json.dumps(sample_config(**{field: 1})))


def test_validate_collects_problems():
    cfg = config_from_json(json.dumps(sample_config(dim=1, gamma=-1, t_final=0)))
    problems = cfg.validate()
    assert len(problems) == 3
    with pytest.raises(ConfigError):
        cfg.require_valid()


def test_alpha_property():
    cfg = config_from_json(json.dumps(sample_config(alpha_im=0.5)))
    assert cfg.alpha == complex(ALPHA, 0.5)


def test_all_presets_load_and_validate():
    for name in preset_names():
        spec = load_preset(name)
        assert spec.config.validate() == []


def test_preset_expansion():
    assert expand_preset("fig2") == ["fig2a", "fig2b", "fig2c", "fig2d"]
    assert expand_preset("fig2b") == ["fig2b"]
    assert expand_preset("fig1") == ["fig1"]
    with pytest.raises(ConfigError):
        expand_preset("fig9")


def test_fig8_is_a_sweep():
    spec = load_preset("fig8")
    assert spec.sweep_axis == "state_n"
    assert list(spec.sweep_values) == list(range(1, 11))
    assert spec.config.dim == 44


def test_fig4_documents_damping_conflict():
    spec = load_preset("fig4b")
    assert spec.config.gamma == 4e-5
    assert "caption" in spec.config.comment


#: each figure's panels, as shipped
FIGURES = {"fig1": ["fig1"], **{f"fig{i}": [f"fig{i}{p}" for p in "abcd"] for i in range(2, 8)},
           "fig8": ["fig8"]}


@pytest.mark.parametrize("label", FIGURES)
def test_figure_expands_to_its_panels(label):
    assert expand_preset(label) == FIGURES[label]
