import hashlib

import pytest

import recurlab as rl
import recurlab.config
from recurlab.cli import main
from recurlab.config import load_config
from recurlab.runner import run_experiment

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
    # saved permutation loads back to a bijection
    gp = rl.load_permutation(out / "permutation.gprm")
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
