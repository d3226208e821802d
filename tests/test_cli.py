import hashlib
import time

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


# sha256 of every file (manifest aside) each default scenario writes, as
# written before all samples were scored in one batched scan; a speed-up
# must leave every one of them unchanged.
DEFAULT_ARTIFACT_SHA256 = {
    "recurrence": {
        "scores.csv": "ff59e6294ebe1b4a993e46e838d9c7512aea21fc3757feae507ae04878724019",
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


@pytest.mark.parametrize("exc,code", [
    (TypeError("internal"), 3),
    (KeyError("internal"), 3),
    (NotImplementedError("internal"), 3),
    (ValueError("infeasible"), 1),
    (CoverError("infeasible"), 1),
    (DiscretizationError("infeasible"), 1),
    (AssertionError("a hard guarantee failed"), 1),
    (MemoryError("too large"), 1),
], ids=lambda v: type(v).__name__ if isinstance(v, BaseException) else str(v))
def test_cli_exit_code_tells_internal_errors_apart(tmp_path, capsys, monkeypatch, exc, code):
    def scenario(cfg):
        raise exc

    monkeypatch.setitem(recurlab.runner._DISPATCH, "mapdist", scenario)
    out = tmp_path / "out"
    assert _run(["mapdist", "--out", out]) == code
    assert not out.exists()
    err = capsys.readouterr().err
    if code == 3:
        assert "Traceback" in err and type(exc).__name__ in err
        assert "internal error" in err
    else:
        assert err.startswith("run failed: ") and "Traceback" not in err
