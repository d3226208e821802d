import hashlib
import importlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import recurlab as rl
import recurlab.cli
import recurlab.config
import recurlab.runner
from recurlab.cli import main
from recurlab.config import load_config
from recurlab.grid import DiscretizationError
from recurlab.perturbation import CoverError
from recurlab.runner import run_experiment

from conftest import benchmark_module, read_permutation

PERTURB_CFG = """
[run]
seed = 5

[system]
kind = golden
grid_m = 8

[perturb]
delta = 0.0625
epsilon = 0.1
"""

RECURRENCE_CFG = """
[run]
seed = 3
samples = 120

[system]
kind = golden

[rate]
value = pow:1

[recurrence]
horizon = 2000
n_start = 1000
m = 1
l = 50
k = 0.4
"""


def _run(args):
    return main([str(a) for a in args])


def test_cli_perturb_writes_artifacts(tmp_path):
    cfg = tmp_path / "p.cfg"
    cfg.write_text(PERTURB_CFG)
    out = tmp_path / "out"
    assert _run(["perturb", "--config", cfg, "--out", out]) == 0
    for name in ("histogram.csv", "report.txt", "permutation.gprm", "manifest.txt"):
        assert (out / name).exists()
    report = (out / "report.txt").read_text()
    assert "p_star" in report and "max_displacement" in report
    # the saved permutation reads back, apart from the library, as a
    # bijection of the 2^8 cells
    gp = read_permutation(out / "permutation.gprm")
    assert gp.grid.cell_count == 256


def test_cli_recurrence_csv_and_window(tmp_path):
    cfg = tmp_path / "r.cfg"
    cfg.write_text(RECURRENCE_CFG)
    out = tmp_path / "out"
    assert _run(["recurrence", "--config", cfg, "--out", out]) == 0
    scores = (out / "scores.csv").read_text().splitlines()
    assert scores[0] == "sample,x0,score,n_start,horizon"
    assert len(scores) == 121
    window = (out / "window.csv").read_text().splitlines()
    assert window[0].startswith("system,f,rate,m,l,k,")


def test_cli_reruns_are_byte_identical(tmp_path):
    cfg = tmp_path / "r.cfg"
    cfg.write_text(RECURRENCE_CFG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert _run(["recurrence", "--config", cfg, "--out", out1, "--threads", "1"]) == 0
    assert _run(["recurrence", "--config", cfg, "--out", out2, "--threads", "4"]) == 0
    for name in ("scores.csv", "window.csv"):
        b1 = (out1 / name).read_bytes()
        b2 = (out2 / name).read_bytes()
        assert b1 == b2


def test_manifest_digests_match_files(tmp_path):
    cfg = tmp_path / "p.cfg"
    cfg.write_text(PERTURB_CFG)
    out = tmp_path / "out"
    assert _run(["perturb", "--config", cfg, "--out", out]) == 0
    manifest = (out / "manifest.txt").read_text()
    for line in manifest.splitlines():
        if line.startswith("artifact."):
            name = line.split(" = ")[0].removeprefix("artifact.")
            digest = line.split(" = ")[1]
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest


def test_manifest_reproducible_across_runs(tmp_path):
    cfg = load_config("perturb", PERTURB_CFG)
    m1 = run_experiment(cfg)
    m2 = run_experiment(load_config("perturb", PERTURB_CFG))
    assert m1.artifacts == m2.artifacts


def test_cli_bad_config_exits_2_without_artifacts(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(RECURRENCE_CFG.replace("horizon = 2000", "horizon = not_a_number"))
    out = tmp_path / "nope"
    assert _run(["recurrence", "--config", cfg, "--out", out]) == 2
    assert not out.exists()
    assert "horizon" in capsys.readouterr().err


def test_cli_every_single_key_mutation_fails_closed(tmp_path):
    # flipping any one key to garbage must exit nonzero and write nothing
    mutations = [
        ("seed = 3", "seed = -4"),
        ("samples = 120", "samples = 0"),
        ("kind = golden", "kind = sphere"),
        ("value = pow:1", "value = banana"),
        ("n_start = 1000", "n_start = 9999999"),
        ("k = 0.4", "k = -1"),
        ("l = 50", "l = 0"),
    ]
    for idx, (old, new) in enumerate(mutations):
        text = RECURRENCE_CFG.replace(old, new)
        assert text != RECURRENCE_CFG
        cfg = tmp_path / f"m{idx}.cfg"
        cfg.write_text(text)
        out = tmp_path / f"out{idx}"
        code = _run(["recurrence", "--config", cfg, "--out", out])
        assert code != 0
        assert not out.exists()


def test_cli_infeasible_delta_exits_1(tmp_path, capsys):
    cfg = tmp_path / "p.cfg"
    cfg.write_text(PERTURB_CFG.replace("delta = 0.0625", "delta = 0.0001"))
    assert _run(["perturb", "--config", cfg]) == 1
    assert "minimum feasible delta" in capsys.readouterr().err


def test_cli_defaults_run_without_config(tmp_path):
    assert _run(["dimension", "--out", tmp_path / "dim"]) == 0
    summary = (tmp_path / "dim" / "manifest.txt").read_text()
    assert "slope = 2.0" in summary


def test_cli_mapdist_roundtrip(tmp_path):
    assert _run(["mapdist", "--out", tmp_path / "md"]) == 0
    row = (tmp_path / "md" / "mapdist.csv").read_text().splitlines()[1]
    assert row.endswith("0.050000000000000044")


def test_cli_mapdist_huge_rotation_angle_is_its_remainder(tmp_path):
    # alpha = 1e20 is an integer, so the rotation is the identity.
    out = tmp_path / "md"
    assert _run(["mapdist", "--out", out, "--set", "system.alpha=1e20",
                 "--set", "system2.alpha=0"]) == 0
    row = (out / "mapdist.csv").read_text().splitlines()[1]
    assert row == "rotation:1e+20,rotation:0,4096,0,0.0"


def test_window_union_estimate_survives_cli_path(tmp_path):
    cfg = load_config("recurrence", RECURRENCE_CFG)
    manifest = run_experiment(cfg)
    got = dict(manifest.summary)
    assert "window.estimate" in got
    assert 0.0 <= float(got["window.estimate"]) <= 1.0


def test_env_var_supplies_thread_default(tmp_path, monkeypatch):
    monkeypatch.setenv("RECURLAB_THREADS", "4")
    cfg = tmp_path / "p.cfg"
    cfg.write_text(PERTURB_CFG)
    out = tmp_path / "env_out"
    assert _run(["perturb", "--config", cfg, "--out", out]) == 0
    manifest = (out / "manifest.txt").read_text()
    assert "config.run.threads = 4" in manifest


def test_bad_thread_env_var_is_a_config_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("RECURLAB_THREADS", "abc")
    assert _run(["dimension", "--out", tmp_path / "out"]) == 2
    assert not (tmp_path / "out").exists()
    assert "config error: override: [run] threads = 'abc' is not an integer" in \
        capsys.readouterr().err


def test_recurrence_scenario_median_matches_expected_band(tmp_path):
    # golden rotation, tail half-window: median of 100 scores near 1/sqrt(5)
    text = RECURRENCE_CFG.replace("horizon = 2000", "horizon = 100000")
    text = text.replace("n_start = 1000", "n_start = 50000")
    cfg = load_config("recurrence", text)
    manifest = run_experiment(cfg)
    median = float(dict(manifest.summary)["scores.median"])
    assert 0.44 <= median <= 0.48


def test_perturb_scenario_report_values(tmp_path):
    cfg = tmp_path / "p.cfg"
    cfg.write_text(PERTURB_CFG.replace("grid_m = 8", "grid_m = 10")
                   .replace("delta = 0.0625", "delta = 0.03125"))
    out = tmp_path / "out"
    assert _run(["perturb", "--config", cfg, "--out", out]) == 0
    report = dict(
        line.split(" = ") for line in (out / "report.txt").read_text().splitlines()
    )
    assert float(report["max_displacement"]) <= 1.0 / 32.0
    assert int(report["p_star"]) <= 64
    assert float(report["p_star_fraction"]) >= 0.9


TOWERED_GOLDEN_SYSTEM = """
[system]
kind = golden
grid_m = 10
towerize_delta = 0.03125
towerize_epsilon = 0.1
"""


@pytest.mark.parametrize("scenario,section", [
    ("recurrence", "[recurrence]\nhorizon = 2000\nm = 1\nl = 50\nk = 0.4\n"),
    ("hitting", "[hitting]\nhorizon = 2000\ny = 0.25\np = 1\nm = 50\nl = 500\n"),
], ids=["recurrence", "hitting"])
def test_cli_undersized_union_samples_exit_2_before_build(tmp_path, capsys, monkeypatch,
                                                          scenario, section):
    def build_system(section):
        pytest.fail("the system was built before the samples were checked")

    monkeypatch.setattr(recurlab.config, "build_system", build_system)
    cfg = tmp_path / "u.cfg"
    cfg.write_text(TOWERED_GOLDEN_SYSTEM + section)
    out = tmp_path / "out"
    assert _run([scenario, "--config", cfg, "--samples", 99, "--out", out]) == 2
    assert not out.exists()
    assert "at least 100 samples" in capsys.readouterr().err


def _fail_on_build(section):
    pytest.fail("the system was built before the config was checked")


@pytest.mark.parametrize("scenario,text,message", [
    ("recurrence", TOWERED_GOLDEN_SYSTEM + "[recurrence]\nn_start = 10\n",
     "missing required key 'horizon'"),
    ("recurrence", TOWERED_GOLDEN_SYSTEM + "[recurrence]\nhorizon = 100\nn_start = 500\n",
     "n_start must not exceed horizon"),
    ("hitting", TOWERED_GOLDEN_SYSTEM + "[hitting]\nhorizon = 100\nn_start = 500\ny = 0.25\n",
     "n_start must not exceed horizon"),
    ("hitting", TOWERED_GOLDEN_SYSTEM + "[hitting]\nhorizon = 100\ny = 0.25,0.5\n",
     "[hitting] y has the wrong dimension"),
    ("recurrence", TOWERED_GOLDEN_SYSTEM + "[recurrence]\nhorizon = 100\n"
     "[observable]\nkind = trig\nfreqs = 1,2\n", "freqs rows must have the system's dimension"),
    ("recurrence", TOWERED_GOLDEN_SYSTEM + "[recurrence]\nhorizon = 100\n"
     "[observable]\nkind = trig\nfreqs = nan\n", "freqs = 'nan' has a non-finite entry"),
    ("correlations", "[system]\nkind = cat\ngrid_m = 4\n[correlations]\n"
     "horizons = 1,2,4,8,16,32,64,128\n[observable]\nkind = trig\nfreqs = 0.5,0\n",
     "[observable] freqs must be integers"),
    ("recurrence", TOWERED_GOLDEN_SYSTEM + "[recurrence]\nhorizon = 100\nk = 0.4\n",
     "window needs all of m, l, k"),
    ("recurrence", TOWERED_GOLDEN_SYSTEM + "[recurrence]\nhorizon = 100\n[system]\nalpha = 0.3\n",
     "line 10: [system] alpha is not read"),
    ("perturb", "[system]\nkind = golden\n[perturb]\ndelta = 0.1\nepsilon = 0.1\n",
     "[perturb] needs a grid-backed system"),
    ("correlations", "[system]\nkind = cat\n[correlations]\nhorizons = 1,2\n",
     "[correlations] needs a grid-backed system"),
    ("correlations", "[system]\nkind = cat\n[correlations]\nhorizons = 1,2\n"
     "scheme = full-grid\n", "[correlations] needs a grid-backed system"),
    ("mapdist", TOWERED_GOLDEN_SYSTEM + "[system2]\nkind = cat\n",
     "[system2] must have the dimension of [system]"),
    ("correlations", "[system]\nkind = cat\ngrid_m = 4\n[correlations]\nhorizons = 1,2,4\n",
     "horizons must be at least 8 values spanning two decades"),
    ("correlations", "[system]\nkind = cat\ngrid_m = 4\n[correlations]\n"
     "horizons = 1,2,3,4,5,6,7,8\n", "horizons must be at least 8 values spanning two decades"),
    ("correlations", "[system]\nkind = cat\ngrid_m = 4\n[correlations]\n"
     "horizons = 0,1,2,4,8,16,32,64,128\n", "[correlations] horizons must be >= 1"),
    ("correlations", "[system]\nkind = cat\ngrid_m = 4\n[correlations]\n"
     "horizons = -1,1,2,4,8,16,32,64,128\n", "[correlations] horizons must be >= 1"),
    ("recurrence", TOWERED_GOLDEN_SYSTEM + "[recurrence]\nhorizon = 100\nm = 10\nl = 5\n"
     "k = 0.4\n", "[recurrence] window needs 1 <= m <= l"),
    ("recurrence", TOWERED_GOLDEN_SYSTEM + "[recurrence]\nhorizon = 100\nm = 1\nl = 5\n"
     "k = -1\n", "[recurrence] threshold k must be positive"),
    ("hitting", TOWERED_GOLDEN_SYSTEM + "[hitting]\nhorizon = 100\ny = 0.25\np = 1\nm = 10\n"
     "l = 5\n", "[hitting] window needs 1 <= m <= l"),
    ("bc", "[system]\nkind = cat\n[bc]\ny = 0.5,0.5\nbeta = 3\nm = 200000\nhorizon = 100000\n",
     "[bc] need 1 <= m < horizon"),
    ("bc", "[system]\nkind = cat\n[bc]\ny = 0.5,0.5\nbeta = -1\nm = 10\nhorizon = 100000\n",
     "[bc] beta must be positive"),
    ("perturb", "[system]\nkind = golden\ngrid_m = 8\n[perturb]\ndelta = 0.0625\n"
     "epsilon = 1.5\n", "[perturb] epsilon must lie in (0, 1)"),
    ("hitting", TOWERED_GOLDEN_SYSTEM.replace("towerize_epsilon = 0.1", "towerize_epsilon = 1.5")
     + "[hitting]\nhorizon = 100\ny = 0.25\n", "[system] towerize_epsilon must lie in (0, 1)"),
    ("recurrence", TOWERED_GOLDEN_SYSTEM + "[recurrence]\nhorizon = 100000000\n",
     "[recurrence] horizon must be <= 10000000"),
    ("hitting", TOWERED_GOLDEN_SYSTEM + "[hitting]\nhorizon = 20000000\ny = 0.25\n",
     "[hitting] horizon must be <= 10000000"),
    ("bc", "[system]\nkind = cat\n[bc]\ny = 0.5,0.5\nbeta = 3\nm = 10\nhorizon = 20000000\n",
     "[bc] horizon must be <= 10000000"),
    ("recurrence", TOWERED_GOLDEN_SYSTEM + "[recurrence]\nhorizon = 100\nm = 1\nl = 20000000\n"
     "k = 0.4\n", "[recurrence] l must be <= 10000000"),
    ("hitting", TOWERED_GOLDEN_SYSTEM + "[hitting]\nhorizon = 100\ny = 0.25\np = 1\nm = 1\n"
     "l = 20000000\n", "[hitting] l must be <= 10000000"),
    ("dimension", "[dimension]\ny = 0.375,0.625\ngrid_m = 40\nr_min = 0.001953125\n"
     "r_max = 0.0625\n",
     "[dimension] grid of 2^80 cells exceeds the 67108864 addressable-cell cap"),
    ("recurrence", "[system]\nkind = golden\ngrid_m = 40\n[recurrence]\nhorizon = 100\n",
     "[system] grid of 2^40 cells exceeds the 67108864 addressable-cell cap"),
    ("correlations", "[system]\nkind = rotation\nalpha = 0.1,0.2,0.3,0.4\n[correlations]\n"
     "scheme = monte-carlo\nhorizons = 1,2,4,8,16,32,64,128\n[observable]\nkind = trig\n"
     "freqs = 1,0,0,0\n",
     "[correlations] grid of 2^32 cells exceeds the 67108864 addressable-cell cap"),
    ("dimension", "[dimension]\ny = 0.375,0.625\ngrid_m = 10\nr_min = -1\nr_max = 0.0625\n",
     "[dimension] need 0 < r_min < r_max <= 0.5"),
    ("dimension", "[dimension]\ny = 0.375,0.625\ngrid_m = 10\nr_min = 0.001953125\n"
     "r_max = 5\n", "[dimension] need 0 < r_min < r_max <= 0.5"),
    ("dimension", "[dimension]\ny = 0.375,0.625\ngrid_m = 10\nr_min = 0.01\nr_max = 0.02\n",
     "[dimension] need at least 5 dyadic radii between r_min and r_max"),
    ("mapdist", "[system]\nkind = cat\n[system2]\nkind = cat\n[mapdist]\n"
     "samples_per_box = 1000000000000\n", "[mapdist] samples_per_box = 1000000000000: "
     "1000000000000 x 2 coordinates exceed the 67108864-value budget for sample points"),
    ("recurrence", "[system]\nkind = identity\ndim = 1048576\n[recurrence]\nhorizon = 100\n",
     "[system] dim must be <= 26"),
    ("mapdist", "[system]\nkind = rotation\nalpha = " + ",".join(["0.5"] * 27) + "\n[system2]\n"
     "kind = identity\ndim = 27\n", "[system] alpha has 27 axes, above the cap of 26"),
    ("recurrence", "[system]\nkind = automorphism\nmatrix = "
     + ";".join(",".join(str(int(i == j)) for j in range(27)) for i in range(27))
     + "\n[recurrence]\nhorizon = 100\n", "[system] matrix has 27 axes, above the cap of 26"),
    ("recurrence", TOWERED_GOLDEN_SYSTEM + "[recurrence]\nhorizon = 100\n"
     "[observable]\nkind = trig\nfreqs = 67108865\n",
     "[observable] freqs must lie within +/-67108864"),
    ("recurrence", TOWERED_GOLDEN_SYSTEM + "[recurrence]\nhorizon = 100\n[rate]\n"
     "value = table:1,2,3\n", "[rate] value is a table of 3 entries, but [recurrence] reads "
     "r_n up to n = 100"),
    ("recurrence", TOWERED_GOLDEN_SYSTEM + "[recurrence]\nhorizon = 10\nm = 1\nl = 30\n"
     "k = 0.4\n[rate]\nvalue = table:" + ",".join(["1"] * 20) + "\n",
     "[rate] value is a table of 20 entries, but [recurrence] reads r_n up to n = 30"),
    ("hitting", TOWERED_GOLDEN_SYSTEM + "[hitting]\nhorizon = 10\ny = 0.25\np = 1\nm = 1\n"
     "l = 12\n[rate]\nvalue = table:" + ",".join(["1"] * 11) + "\n",
     "[rate] value is a table of 11 entries, but [hitting] reads r_n up to n = 12"),
], ids=["missing-horizon", "recurrence-n-start", "hitting-n-start", "hitting-y-dim",
        "trig-freqs-dim", "trig-freqs-nan", "trig-freqs-not-integers", "partial-window", "unread-key",
        "perturb-without-grid", "correlations-without-grid", "full-grid-without-grid",
        "mapdist-dims", "superpoly-three-horizons", "superpoly-one-decade",
        "horizon-zero", "horizon-negative", "recurrence-window-m-above-l",
        "recurrence-window-k-negative", "wp-window-m-above-l", "bc-m-not-below-horizon",
        "bc-beta-negative", "perturb-epsilon-above-1", "towerize-epsilon-above-1",
        "recurrence-horizon-above-cap", "hitting-horizon-above-cap", "bc-horizon-above-cap",
        "recurrence-window-l-above-cap", "wp-window-l-above-cap", "dimension-grid-above-cap",
        "system-grid-above-cap", "monte-carlo-norm-grid-above-cap", "dimension-r-min-negative", "dimension-r-max-above-diameter",
        "dimension-too-few-radii", "mapdist-samples-per-box-above-budget",
        "identity-dim-above-cap", "rotation-alpha-above-cap", "automorphism-matrix-above-cap",
        "trig-freqs-above-cap", "rate-table-below-horizon", "rate-table-below-window-l",
        "rate-table-below-wp-l"])
def test_cli_config_errors_exit_2_before_build(tmp_path, capsys, monkeypatch, scenario, text,
                                               message):
    monkeypatch.setattr(recurlab.config, "build_system", _fail_on_build)
    cfg = tmp_path / "c.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert _run([scenario, "--config", cfg, "--out", out]) == 2
    assert not out.exists()
    assert message in capsys.readouterr().err


# Keys that no reader asks for, each appended to a default config as
# (scenario, section, key, value).
_UNREAD_KEYS = [
    ("bc", "system", "alpha", "0.3"),  # the cat map reads neither
    ("bc", "system", "matrix", "2,1;1,1"),  # of these four keys
    ("bc", "system", "dim", "2"),
    ("bc", "system", "shift", "1"),
    ("recurrence", "observable", "freqs", "9"),  # without kind = trig
    ("mapdist", "mapdist", "boxes", "0.1,0.2"),  # map_distance on a torus has no boxes
    ("recurrence", "plotting", "style", "fancy"),  # a section no scenario opens
    ("bc", "rate", "value", "pow:1"),  # a section bc does not open
    ("dimension", "system", "kind", "cat"),
    ("dimension", "run", "samples", "5"),  # local_dimension takes no samples
    ("dimension", "run", "seed", "1"),  # and no seed
    ("mapdist", "run", "samples", "5"),  # map_distance draws samples_per_box points
    ("correlations", "run", "samples", "5"),  # full-grid correlations average every cell
    ("perturb", "run", "samples", "5"),  # towerize redirects every cell
    ("dimension", "dimension", "dim", "2"),  # the grid takes len(y)
]


@pytest.mark.parametrize("scenario,section,key,value", _UNREAD_KEYS,
                         ids=[f"{s}-{sec}-{k}" for s, sec, k, _ in _UNREAD_KEYS])
def test_cli_unread_key_exits_2_naming_section_key_and_line(tmp_path, capsys, monkeypatch,
                                                            scenario, section, key, value):
    monkeypatch.setattr(recurlab.config, "build_system", _fail_on_build)
    text = recurlab.cli.DEFAULT_CONFIGS[scenario] + f"[{section}]\n{key} = {value}\n"
    cfg = tmp_path / "c.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert _run([scenario, "--config", cfg, "--out", out]) == 2
    assert not out.exists()
    line = text.count("\n")
    assert f"line {line}: [{section}] {key} is not read" in capsys.readouterr().err
    # The same key given as an override is named as one.
    assert _run([scenario, "--set", f"{section}.{key}={value}", "--out", out]) == 2
    assert not out.exists()
    assert f"override: [{section}] {key} is not read" in capsys.readouterr().err


def test_cli_monte_carlo_correlations_need_no_grid(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("[run]\nsamples = 200\n[system]\nkind = cat\n"
                   "[observable]\nkind = trig\nfreqs = 1,0\n"
                   "[correlations]\nscheme = monte-carlo\nhorizons = 1,2,4,8,16,32,64,128\n")
    out = tmp_path / "out"
    assert _run(["correlations", "--config", cfg, "--out", out]) == 0
    rows = (out / "series.csv").read_text().splitlines()
    assert len(rows) == 9 and rows[1].endswith(",monte-carlo,200,0")


def test_manifest_names_python_and_numpy(tmp_path):
    import sys

    import numpy as np

    out = tmp_path / "out"
    assert _run(["dimension", "--out", out]) == 0
    kv = dict(line.split(" = ", 1) for line in (out / "manifest.txt").read_text().splitlines())
    assert kv["python"] == ".".join(map(str, sys.version_info[:3]))
    assert kv["numpy"] == np.__version__


def test_cli_empty_unread_section_exits_2(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(recurlab.cli.DEFAULT_CONFIGS["bc"] + "[plotting]\n")
    out = tmp_path / "out"
    assert _run(["bc", "--config", cfg, "--out", out]) == 2
    assert not out.exists()
    assert "empty section [plotting] is not read" in capsys.readouterr().err


# sha256 of every file (manifest aside) each default scenario writes, as
# written before all samples were scored in one batched scan; a speed-up
# must leave every one of them unchanged.  The recurrence digest was
# recorded again when rotations began to count n * alpha through an exact
# split (its golden scores then lie within 1e-11 of the exact ones).
DEFAULT_ARTIFACT_SHA256 = {
    "recurrence": {
        "scores.csv": "9e1277b5ecaa06d3ff335e64ae235851f71dfdeee30ee44d3361a024cbb738d2",
    },
    "hitting": {
        "scores.csv": "e6488e3fa503512ad40d8bc9f1d48e0548edb0381f04347f40c26e5fa9549885",
    },
    "perturb": {
        "histogram.csv": "ee643e9f0cd55148270da92a7d347dec46e353f4271cf93a1f78690648f67704",
        "permutation.gprm": "c16103811575fea1043592224ffc2a33d52b9cfafd027231bf232322427e8965",
        "report.txt": "0e6e7059a5c1a0f2cc84f9c57251bf3fc8e75d9cc02db10f9975ca5c299a9081",
    },
    "correlations": {
        "series.csv": "63b378cafc77f2d3cf61a3d9ded0a043a753ca44daf0531866725f1f5fd025bc",
        "sn.csv": "d7a6e30bfdd1058ad8d2d93d1190466ef67425bd77df7b5b8c243e2cd7ac938f",
        "verdicts.txt": "bbb2e0f9d1735b48eb70f54557123b9b23dd54596775e7ecf7780b7438080e0d",
    },
    "dimension": {
        "masses.csv": "aebd82147ad417e430224359419c1b81c839af46e1d701abf1ca91df02fa5bcd",
    },
    "bc": {
        "bc.csv": "fa4242d9b531ef4a20d226553c58861fdeb74ec7d700a79b5b5318d47a431258",
    },
    "mapdist": {
        "mapdist.csv": "0f7bb5293e489f627a75f170e5993881574f0331cabcb4bd288151939e46aa54",
    },
}


@pytest.mark.parametrize("scenario", sorted(DEFAULT_ARTIFACT_SHA256))
def test_default_scenario_artifacts_are_pinned(tmp_path, scenario):
    out = tmp_path / scenario
    assert _run([scenario, "--out", out]) == 0
    got = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
           for path in out.iterdir() if path.name != "manifest.txt"}
    assert got == DEFAULT_ARTIFACT_SHA256[scenario]


@pytest.mark.parametrize("override", [
    "perturb.delta=nan", "perturb.delta=inf", "perturb.epsilon=-inf",
    "system.towerize_delta=nan",
])
def test_cli_non_finite_number_exits_2(tmp_path, capsys, override):
    cfg = tmp_path / "p.cfg"
    cfg.write_text(PERTURB_CFG)
    out = tmp_path / "out"
    assert _run(["perturb", "--config", cfg, "--set", override, "--out", out]) == 2
    assert not out.exists()
    assert "not finite" in capsys.readouterr().err


@pytest.mark.parametrize("y", ["0.5,nan", "inf,0.5"])
def test_cli_non_finite_number_list_exits_2(tmp_path, capsys, y):
    out = tmp_path / "out"
    assert _run(["bc", "--set", f"bc.y={y}", "--out", out]) == 2
    assert not out.exists()
    assert "non-finite" in capsys.readouterr().err


def test_manifest_wall_time_counts_system_build(tmp_path, monkeypatch):
    build = recurlab.config.build_system

    def slow_build(section):
        time.sleep(0.3)
        return build(section)

    monkeypatch.setattr(recurlab.config, "build_system", slow_build)
    out = tmp_path / "out"
    assert _run(["mapdist", "--out", out]) == 0
    kv = dict(line.split(" = ", 1) for line in (out / "manifest.txt").read_text().splitlines())
    # mapdist builds two systems
    assert float(kv["wall_time_s"]) >= 0.6


@pytest.mark.parametrize("scenario,samples", [
    ("bc", 100_000_000_000),  # cat map, 2 coordinates: 745 GiB of points
    ("bc", 2 ** 25 + 1),  # 2^26 + 2 coordinates
    ("recurrence", 2 ** 26 + 1),  # golden rotation, 1 coordinate
], ids=["1e11-cat", "cap-plus-one-cat", "cap-plus-one-golden"])
def test_cli_oversized_samples_exit_2_before_build(tmp_path, capsys, monkeypatch,
                                                   scenario, samples):
    def build_system(section):
        pytest.fail("the system was built before the samples were checked")

    monkeypatch.setattr(recurlab.config, "build_system", build_system)
    out = tmp_path / "out"
    assert _run([scenario, "--samples", samples, "--out", out]) == 2
    assert not out.exists()
    assert "value budget for sample points" in capsys.readouterr().err


def test_samples_at_the_cap_pass_config_checks():
    # Both default systems are analytic maps: building them allocates nothing.
    for scenario, samples in (("bc", 2 ** 25), ("recurrence", 2 ** 26)):
        cfg = load_config(scenario, recurlab.cli.DEFAULT_CONFIGS[scenario],
                          [f"run.samples={samples}"])
        assert cfg.samples == samples


_RAISED = [
    (TypeError("internal"), 3),
    (KeyError("internal"), 3),
    (NotImplementedError("internal"), 3),
    (ValueError("infeasible"), 1),
    (CoverError("infeasible"), 1),
    (DiscretizationError("infeasible"), 1),
    (AssertionError("a hard guarantee failed"), 1),
    (MemoryError("too large"), 1),
]


# Real configs whose parameters load_config rejects while it builds the system.
_BUILD_REJECTS = [
    (CoverError("delta 0.01 below the cell width 0.125"), "towerize-delta-below-cell",
     ["hitting", "--set", "system.grid_m=3", "--set", "system.towerize_delta=0.01"]),
    (ValueError("matrix determinant 4 breaks measure preservation"), "matrix-det-4",
     ["bc", "--set", "system.kind=automorphism", "--set", "system.matrix=2,0;0,2"]),
    (ValueError("automorphism matrix entry 1000000000000000000000000000000 does not fit in int64"),
     "matrix-entry-beyond-int64", ["bc", "--set", "system.kind=automorphism",
                                   "--set", "system.matrix=1000000000000000000000000000000,1;1,1"]),
]


@pytest.mark.parametrize("exc,code,patch,argv", [
    *(pytest.param(exc, code, "run", ["mapdist"], id=f"{type(exc).__name__}-{code}")
      for exc, code in _RAISED),
    *(pytest.param(exc, code, "build", ["mapdist"], id=f"build-{type(exc).__name__}-{code}")
      for exc, code in _RAISED),
    *(pytest.param(exc, 1, None, argv, id=f"build-{name}")
      for exc, name, argv in _BUILD_REJECTS),
])
def test_cli_exit_code_tells_internal_errors_apart(tmp_path, capsys, monkeypatch, exc, code,
                                                   patch, argv):
    def fail(*args, **kwargs):
        raise exc

    if patch == "run":
        monkeypatch.setitem(recurlab.runner._DISPATCH, "mapdist", fail)
    elif patch == "build":
        monkeypatch.setattr(recurlab.config, "build_system", fail)
    out = tmp_path / "out"
    assert _run(argv + ["--out", out]) == code
    assert not out.exists()
    err = capsys.readouterr().err
    if code == 3:
        assert "Traceback" in err and type(exc).__name__ in err
        assert "internal error" in err
    else:
        assert err.startswith("run failed: ") and "Traceback" not in err
        assert str(exc) in err and err.count("\n") == 1


def test_cli_near_tie_rotation_grid_runs(tmp_path):
    # alpha = 2^-4 (1 - 2^-50): the cell centers' float images round to
    # shifts 0 and 1, which the exact lattice rule resolves to shift 0.
    out = tmp_path / "out"
    argv = ["recurrence", "--set", "system.kind=rotation",
            "--set", "system.alpha=0.062499999999999944", "--set", "system.grid_m=3",
            "--set", "recurrence.horizon=1000", "--set", "recurrence.n_start=500",
            "--samples", 20, "--out", out]
    assert _run(argv) == 0


def test_benchmark_trace_targets_resolve(monkeypatch):
    # The benchmark's --trace mode wraps TRACED_FUNCTIONS by name; a name
    # trimmed from the library would only fail there, at install time.
    child = benchmark_module("child")
    assert child.TRACED_FUNCTIONS
    for layer, names in child.TRACED_FUNCTIONS.items():
        module = importlib.import_module(f"recurlab.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"recurlab.{layer}.{name}"
    # Tracer.install indexes sys.modules for every traced layer once
    # recurlab.cli is imported, in a fresh process: a layer imported lazily
    # would not be there.
    root = Path(__file__).resolve().parents[1]
    paths = [str(root / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.run([sys.executable, "-c", "import sys, recurlab.cli; print(*sys.modules)"],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    layers = set(child.TRACED_FUNCTIONS) | {"grid", "maps"}
    assert {f"recurlab.{layer}" for layer in layers} <= set(proc.stdout.split())
    # Tracer.install also wraps GridPermutation.__init__, and the step_block
    # and step methods that classes of recurlab.maps define themselves.  A
    # method moved out of those classes would make its layer read 0.
    assert "__init__" in vars(rl.GridPermutation)
    maps = rl.maps
    hooked = {name: {cls for cls in vars(maps).values() if isinstance(cls, type)
                     and cls.__module__ == maps.__name__ and name in vars(cls)}
              for name in ("step_block", "step", "advance")}
    # Each analytic map class defines its own step_block, the one block
    # kernel: no class keeps a second walk, and score_scan,
    # first_hit_fraction and wp_hit_count all reach it.  A grid map is
    # never walked, and the base class has no kernel.  discretize calls
    # step on the cat map and the golden rotation.  The maps with a closed
    # form define advance; the automorphism's walks the kernel (SystemMap's).
    assert hooked["step_block"] == {rl.Rotation, rl.ToralAutomorphism}
    assert {rl.ToralAutomorphism, rl.Rotation} <= hooked["step"]
    assert {rl.SystemMap, rl.Rotation, rl.GridBackedMap} <= hooked["advance"]
    for cls in hooked["step_block"]:
        assert not hasattr(cls, "orbit_blocks") and not hasattr(cls, "step_columns")
    blocks = []
    kernel = rl.ToralAutomorphism.step_block

    def counted(self, start, cols, n, out):
        blocks.append(n)
        kernel(self, start, cols, n, out)

    monkeypatch.setattr(rl.ToralAutomorphism, "step_block", counted)
    cat, f, rate = rl.cat_map(), rl.IdentityObservable(2), rl.Power(1.0)
    pts = rl.sample_points(cat, 3, 1)
    for call in (lambda: rl.recurrence_score(cat, f, rate, pts, 20),
                 lambda: rl.recurrence.first_hit_fraction(cat, f, pts, pts, 1, 20, 1.0, 1e-9),
                 lambda: rl.wp_hit_count(cat, f, rate, pts[0], pts[1], rl.WpWindow(1, 1, 20))):
        blocks.clear()
        call()
        assert blocks
    # orbit-cat's tail window: the pre-window goes through the rebound
    # step_block too, so the traced kernel calls count the whole walk.
    blocks.clear()
    rl.recurrence_score(cat, f, rate, pts, 20, 10)
    assert blocks[0] == 0 and 9 in blocks
    # The maps.step_block spans count walk blocks alone: step, which
    # discretize calls, does not go through step_block.
    def no_block(*args):
        pytest.fail("ToralAutomorphism.step went through step_block")

    monkeypatch.setattr(rl.ToralAutomorphism, "step_block", no_block)
    rl.discretize(rl.cat_map(), rl.torus_grid(2, 3))
    rl.ToralAutomorphism(((3, 1), (2, 1))).step([[0.3, 0.6]])


def test_benchmark_trace_run_writes_spans(tmp_path):
    # A traced call in a fresh process, as the benchmark's --trace mode
    # runs it: installing the wrappers must succeed and the spans be written.
    root = Path(__file__).resolve().parents[1]
    paths = [str(root / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    stamp, spans = tmp_path / "stamp.json", tmp_path / "spans.json"
    argv = [sys.executable, str(root / "benchmarks" / "child.py"), str(stamp),
            "--trace", str(spans), "--", "dimension", "--out", str(tmp_path / "out")]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    names = {span[0] for span in json.loads(spans.read_text())["spans"]}
    assert "config.load_config" in names


def test_benchmark_setup_probe_passes_through_main(tmp_path, monkeypatch):
    # The benchmark samples set-up time by raising from a wrapper put in
    # place of cli.load_config; main must let that exception through
    # rather than report it as an internal error.
    monkeypatch.setattr(recurlab.cli, "load_config", recurlab.cli.load_config)
    stamp = tmp_path / "stamp.json"
    out = tmp_path / "out"
    assert benchmark_module("child").main([str(stamp), "--probe", "--", "dimension", "--out", str(out)]) == 0
    assert "load_config_at" in json.loads(stamp.read_text())
    assert not out.exists()


@pytest.mark.parametrize("content", [None, b"[run]\nseed = \xff\n"], ids=["missing", "not-utf8"])
def test_cli_unreadable_config_file_exits_2(tmp_path, capsys, content):
    cfg = tmp_path / "c.cfg"
    if content is not None:
        cfg.write_bytes(content)
    assert _run(["bc", "--config", cfg, "--out", tmp_path / "out"]) == 2
    assert not (tmp_path / "out").exists()
    assert capsys.readouterr().err.startswith("config error: ")


def test_overflowing_rate_run_prints_no_warning(tmp_path):
    # n^200 overflows to inf from n = 35 and inf * 0 is nan: both are
    # defined and handled, so the run prints nothing to stderr, and its
    # scores are the ones pinned before the warnings were silenced.
    root = Path(__file__).resolve().parents[1]
    paths = [str(root / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    env.pop("PYTHONWARNINGS", None)
    out = tmp_path / "out"
    argv = [sys.executable, "-m", "recurlab.cli", "recurrence", "--set", "system.kind=identity",
            "--set", "rate.value=pow:200", "--set", "recurrence.horizon=100",
            "--set", "recurrence.n_start=1", "--samples", "2", "--out", str(out)]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert hashlib.sha256((out / "scores.csv").read_bytes()).hexdigest() == (
        "2472fcf3c2a51990e24c561f19df490a3e9c55ef65dfa3cacc09f66054602a3b")


def test_powerlog_rate_outside_the_float_range_runs_without_warning(tmp_path):
    # powlog:200,-1000: n^200 overflows and log(n + 1)^-1000 underflows
    # apart, from n = 31 on, while r_n stays a normal float; each score is
    # min over n of r_n ||n alpha||, positive, and nothing goes to stderr.
    root = Path(__file__).resolve().parents[1]
    paths = [str(root / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    env.pop("PYTHONWARNINGS", None)
    out = tmp_path / "out"
    argv = [sys.executable, "-m", "recurlab.cli", "recurrence", "--set", "system.kind=golden",
            "--set", "rate.value=powlog:200,-1000", "--set", "recurrence.horizon=100",
            "--set", "recurrence.n_start=1", "--samples", "2", "--out", str(out)]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0
    assert proc.stderr == ""
    alpha = (math.sqrt(5.0) - 1.0) / 2.0
    want = min(math.exp(200 * math.log(n) - 1000 * math.log(math.log(n + 1)))
               * min((n * alpha) % 1.0, 1.0 - (n * alpha) % 1.0) for n in range(1, 101))
    rows = (out / "scores.csv").read_text().splitlines()[1:]
    assert len(rows) == 2
    for row in rows:
        assert float(row.split(",")[2]) == pytest.approx(want, rel=1e-6)
