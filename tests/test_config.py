import pytest

import recurlab as rl
from recurlab.config import ConfigError, load_config, parse_config_text

RECURRENCE_OK = """
[run]
seed = 42
samples = 10

[system]
kind = golden

[rate]
value = pow:1

[recurrence]
horizon = 100
"""


def test_parse_sections_and_lines():
    sections = parse_config_text("[a]\nx = 1\n# comment\n\n[b]\ny = 2,3\n")
    assert sections["a"]["x"] == ("1", 2)
    assert sections["b"]["y"] == ("2,3", 6)


def test_parse_rejects_key_outside_section():
    with pytest.raises(ConfigError) as err:
        parse_config_text("x = 1\n")
    assert "line 1" in str(err.value)


def test_parse_rejects_missing_equals():
    with pytest.raises(ConfigError) as err:
        parse_config_text("[a]\njust words\n")
    assert "line 2" in str(err.value)


def test_load_valid_recurrence_config():
    cfg = load_config("recurrence", RECURRENCE_OK)
    assert cfg.seed == 42
    assert cfg.samples == 10
    assert cfg.params["horizon"] == 100
    assert isinstance(cfg.params["system"], rl.Rotation)


def test_unknown_key_is_fatal_and_names_the_line():
    bad = RECURRENCE_OK + "\n[recurrence]\nhorizzon = 5\n"
    with pytest.raises(ConfigError) as err:
        load_config("recurrence", bad)
    assert "horizzon" in str(err.value)
    assert "line" in str(err.value)


def test_unknown_section_is_fatal():
    bad = RECURRENCE_OK + "\n[plotting]\nstyle = fancy\n"
    with pytest.raises(ConfigError) as err:
        load_config("recurrence", bad)
    assert "plotting" in str(err.value)


def test_scenario_mismatch_rejected():
    cfg_text = "[run]\nscenario = hitting\n" + RECURRENCE_OK.replace("[run]\nseed = 42\nsamples = 10\n", "")
    with pytest.raises(ConfigError):
        load_config("recurrence", cfg_text)


def test_missing_required_key():
    bad = RECURRENCE_OK.replace("horizon = 100", "")
    with pytest.raises(ConfigError) as err:
        load_config("recurrence", bad)
    assert "horizon" in str(err.value)


def test_invalid_values_rejected():
    for mutation in (
        ("seed = 42", "seed = -1"),
        ("samples = 10", "samples = zero"),
        ("value = pow:1", "value = pow:-2"),
        ("horizon = 100", "horizon = 0"),
        ("kind = golden", "kind = unknown_map"),
    ):
        bad = RECURRENCE_OK.replace(*mutation)
        with pytest.raises(ConfigError):
            load_config("recurrence", bad)


def test_overrides_win_and_are_validated():
    cfg = load_config("recurrence", RECURRENCE_OK, ["run.seed=7"])
    assert cfg.seed == 7
    with pytest.raises(ConfigError):
        load_config("recurrence", RECURRENCE_OK, ["recurrence.bogus=1"])
    with pytest.raises(ConfigError):
        load_config("recurrence", RECURRENCE_OK, ["not-a-pair"])


def test_build_system_variants():
    cases = [
        ("kind = rotation\nalpha = 0.25,0.5", rl.Rotation, 2),
        ("kind = cat", rl.ToralAutomorphism, 2),
        ("kind = automorphism\nmatrix = 2,1;1,1", rl.ToralAutomorphism, 2),
        ("kind = identity\ndim = 2", rl.Identity, 2),
        ("kind = shift\ngrid_m = 5\nshift = 1", rl.GridBackedMap, 1),
        ("kind = golden\ngrid_m = 6", rl.GridBackedMap, 1),
    ]
    for body, expected, dim in cases:
        y = ",".join(["0.5"] * dim)
        text = (f"[run]\nsamples = 5\n[system]\n{body}\n"
                f"[bc]\ny = {y}\nbeta = 2\nm = 1\nhorizon = 10\n")
        cfg = load_config("bc", text)
        assert isinstance(cfg.params["system"], expected)


def test_build_system_towerize_in_config():
    text = """
[system]
kind = golden
grid_m = 8
towerize_delta = 0.0625
towerize_epsilon = 0.2

[perturb]
delta = 0.0625
epsilon = 0.2
"""
    cfg = load_config("perturb", text)
    system = cfg.params["system"]
    assert isinstance(system, rl.GridBackedMap)
    base = rl.discretize(rl.golden_rotation(), rl.torus_grid(1, 8))
    towered = rl.towerize(base, rl.build_cover(base.grid, 0.0625, 0.2)).permutation
    assert system.permutation == towered
    assert system.permutation != base


def test_towerize_keys_must_pair():
    text = "[system]\nkind = golden\ngrid_m = 8\ntowerize_delta = 0.0625\n[perturb]\ndelta = 0.1\nepsilon = 0.1\n"
    with pytest.raises(ConfigError):
        load_config("perturb", text)


def test_perturb_requires_grid():
    text = "[system]\nkind = golden\n[perturb]\ndelta = 0.1\nepsilon = 0.1\n"
    with pytest.raises(ConfigError):
        load_config("perturb", text)


def test_dimension_config_builds_grid():
    text = "[dimension]\ny = 0.4,0.7\ngrid_m = 8\nr_min = 0.002\nr_max = 0.0625\n"
    cfg = load_config("dimension", text)
    assert cfg.params["grid"] == rl.torus_grid(2, 8)


def test_hitting_dimension_check():
    text = """
[system]
kind = cat

[hitting]
horizon = 10
y = 0.5
"""
    with pytest.raises(ConfigError) as err:
        load_config("hitting", text)
    assert "dimension" in str(err.value)


def test_mapdist_needs_two_systems():
    text = "[system]\nkind = rotation\nalpha = 0.25\n"
    with pytest.raises(ConfigError):
        load_config("mapdist", text)
    ok = text + "[system2]\nkind = rotation\nalpha = 0.3\n"
    cfg = load_config("mapdist", ok)
    assert isinstance(cfg.params["system2"], rl.Rotation)


def test_echo_lines_sorted_and_complete():
    cfg = load_config("recurrence", RECURRENCE_OK, ["run.out=/tmp/x"])
    lines = cfg.echo_lines()
    assert lines == sorted(lines)
    assert "run.out = /tmp/x" in lines
    assert "system.kind = golden" in lines


def test_correlations_exponents_default_takes_effect():
    text = """
[system]
kind = golden
grid_m = 8

[correlations]
horizons = 1,2,4,8,16,32,64,128
"""
    cfg = load_config("correlations", text)
    assert cfg.params["exponents"] == (1.0, 2.0, 4.0)
    cfg = load_config("correlations", text + "exponents = 3\n")
    assert cfg.params["exponents"] == (3.0,)
