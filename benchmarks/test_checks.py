"""Each output check passes on real recurlab output and fails on a corrupted copy.

    PYTHONPATH=src python3 -m pytest -q benchmarks

The outputs are made by the recurlab CLI on small grids; the checks
themselves never import recurlab.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import recurlab  # noqa: E402
from recurlab.cli import main as cli_main  # noqa: E402
from run import layer_metrics  # noqa: E402

SEED = 5


def run_cli(tmp_path, name, scenario, config, capsys) -> Path:
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(f"[run]\nseed = {SEED}\n" + config)
    out = tmp_path / name
    assert cli_main([scenario, "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    return out


def replace_field(path: Path, row: int, column: str, value: str) -> None:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    fields = lines[row + 1].split(",")
    fields[header.index(column) - len(header)] = value
    lines[row + 1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")


def one_ulp_up(text: str) -> str:
    return repr(math.nextafter(float(text), math.inf))


@pytest.fixture
def tower(tmp_path, capsys):
    return run_cli(tmp_path, "tower", "perturb", """[system]
kind = cat
grid_m = 5
[perturb]
delta = 0.125
epsilon = 0.1
""", capsys)


def check_tower(out):
    checks.check_tower(out, checks.cat_lattice(5), 2, 5, 0.125, 0.1)


def test_lattice_formulas_match_discretize():
    for m in (9, 10):
        grid = recurlab.torus_grid(2, m)
        assert np.array_equal(checks.cat_lattice(m),
                              recurlab.discretize(recurlab.cat_map(), grid).forward)
    grid = recurlab.torus_grid(1, 18)
    assert np.array_equal(checks.golden_lattice(18),
                          recurlab.discretize(recurlab.golden_rotation(), grid).forward)


def test_cat_lattice_iterate_is_the_composed_map():
    step = checks.cat_lattice(4)
    cur = np.arange(step.size)
    for n in range(1, 30):
        cur = step[cur]
        assert np.array_equal(checks.cat_lattice(4, n), cur)


def test_tower_check_passes_on_real_output(tower):
    check_tower(tower)
    checks.check_manifest(tower)


def test_gprm_entries_swapped_across_cubes_fail(tower):
    data = bytearray((tower / "permutation.gprm").read_bytes())
    head = checks.GPRM_HEADER.size
    forward = np.frombuffer(bytes(data[head:]), dtype="<u8").copy()
    edge = checks.cube_edge(5, 0.125)
    cubes = checks.cube_ids(forward.astype(np.int64), 2, 5, edge)
    a, b = 0, int(np.nonzero(cubes != cubes[0])[0][0])
    forward[[a, b]] = forward[[b, a]]
    (tower / "permutation.gprm").write_bytes(bytes(data[:head]) + forward.tobytes())
    with pytest.raises(checks.CheckError, match="delta-cube"):
        check_tower(tower)


@pytest.mark.parametrize("corrupt, message", [
    (lambda raw: raw + b"\0", "payload bytes"),
    (lambda raw: raw[:-8], "payload bytes"),
    (lambda raw: raw[:25] + raw[33:41] + raw[33:], "bijection"),
    (lambda raw: b"GPRX" + raw[4:], "magic"),
])
def test_malformed_gprm_fails(tower, corrupt, message):
    path = tower / "permutation.gprm"
    path.write_bytes(corrupt(path.read_bytes()))
    with pytest.raises(checks.CheckError, match=message):
        check_tower(tower)


def test_untouched_map_with_matching_histogram_and_report_fails(tower):
    """A build that redirects nothing writes tau itself.  Its image of every
    cell is trivially in tau's cube, so only the cycle property catches it."""
    tau = checks.cat_lattice(5)
    head = checks.GPRM_HEADER.size
    path = tower / "permutation.gprm"
    path.write_bytes(path.read_bytes()[:head] + tau.astype("<u8").tobytes())
    hist, seen = {}, np.zeros(tau.size, dtype=bool)
    for start in range(tau.size):
        length, z = 0, start
        while not seen[z]:
            seen[z] = True
            z, length = int(tau[z]), length + 1
        if length:
            hist[length] = hist.get(length, 0) + length
    (tower / "histogram.csv").write_text(
        "period,cells\n" + "".join(f"{p},{c}\n" for p, c in sorted(hist.items())))
    report = checks.read_kv(tower / "report.txt")
    report.update(checks.tower_report(tau, tau, hist, 2, 5, 0.125, 0.1))
    (tower / "report.txt").write_text("".join(f"{k} = {v}\n" for k, v in report.items()))
    with pytest.raises(checks.CheckError, match="visits cube"):
        check_tower(tower)


def test_histogram_row_off_by_one_fails(tower):
    path = tower / "histogram.csv"
    replace_field(path, 0, "cells", str(int(checks.read_csv(path)[0]["cells"]) + 1))
    with pytest.raises(checks.CheckError, match="histogram"):
        check_tower(tower)


@pytest.mark.parametrize("key", ["p_star", "total_redirects", "max_displacement"])
def test_report_disagreeing_with_the_permutation_fails(tower, key):
    path = tower / "report.txt"
    kv = checks.read_kv(path)
    kv[key] = kv[key] + "1"
    path.write_text("".join(f"{k} = {v}\n" for k, v in kv.items()))
    with pytest.raises(checks.CheckError, match=key):
        check_tower(tower)


def test_manifest_digest_mismatch_fails(tower):
    path = tower / "histogram.csv"
    path.write_text(path.read_text() + "\n")
    with pytest.raises(checks.CheckError, match="digest"):
        checks.check_manifest(tower)


def test_recurrence_score_one_ulp_off_fails(tmp_path, capsys):
    out = run_cli(tmp_path, "rec", "recurrence", """samples = 5
[system]
kind = cat
[recurrence]
horizon = 3000
n_start = 1000
""", capsys)
    checks.check_cat_recurrence(out, SEED, 5, 3000, 1000, checked=5)
    path = out / "scores.csv"
    replace_field(path, 2, "score", one_ulp_up(checks.read_csv(path)[2]["score"]))
    with pytest.raises(checks.CheckError, match="sample 2"):
        checks.check_cat_recurrence(out, SEED, 5, 3000, 1000, checked=5)


def test_bc_fraction_off_by_one_sample_fails(tmp_path, capsys):
    spec = dict(samples=200, target=(0.5, 0.5), beta=1.0, m=10, horizon=2000)
    out = run_cli(tmp_path, "bc", "bc", """samples = 200
[system]
kind = cat
[bc]
y = 0.5,0.5
beta = 1
m = 10
horizon = 2000
""", capsys)
    checks.check_cat_bc(out, SEED, **spec)
    path = out / "bc.csv"
    replace_field(path, 0, "fraction", repr(float(checks.read_csv(path)[0]["fraction"]) + 1 / 200))
    with pytest.raises(checks.CheckError, match="bc fraction"):
        checks.check_cat_bc(out, SEED, **spec)


@pytest.fixture
def golden_hitting(tmp_path, capsys):
    system = """kind = golden
grid_m = 10
"""
    ref = run_cli(tmp_path, "ref", "perturb", f"""[system]
{system}[perturb]
delta = 0.03125
epsilon = 0.1
""", capsys)
    out = run_cli(tmp_path, "hit", "hitting", f"""samples = 100
[system]
{system}towerize_delta = 0.03125
towerize_epsilon = 0.1
[hitting]
horizon = 3000
n_start = 100
y = 0.25
p = 1
m = 50
l = 500
""", capsys)
    g = checks.check_tower(ref, checks.golden_lattice(10), 1, 10, 0.03125, 0.1)
    spec = dict(samples=100, y=0.25, horizon=3000, n_start=100, wp_m=50, wp_l=500)
    return out, lambda: checks.check_grid_hitting(out, g, 10, SEED, **spec)


def test_hitting_score_one_ulp_off_fails(golden_hitting):
    out, check = golden_hitting
    check()
    path = out / "scores.csv"
    replace_field(path, 7, "score", one_ulp_up(checks.read_csv(path)[7]["score"]))
    with pytest.raises(checks.CheckError, match="sample 7"):
        check()


def test_wp_estimate_off_by_one_sample_fails(golden_hitting):
    out, check = golden_hitting
    path = out / "wp.csv"
    replace_field(path, 0, "estimate", repr(float(checks.read_csv(path)[0]["estimate"]) + 0.01))
    with pytest.raises(checks.CheckError, match="wp estimate"):
        check()


HORIZONS = (1, 2, 3, 4, 8, 16, 32, 64, 128)


@pytest.fixture
def correlations(tmp_path, capsys):
    # cos(2 pi 16 x1) on 2^6 cells, the mode the benchmark uses at 2^10 scaled
    # down: the cat map returns it to itself every third step.
    out = run_cli(tmp_path, "corr", "correlations", """[system]
kind = cat
grid_m = 6
[observable]
kind = trig
freqs = 16,0
[correlations]
horizons = 1,2,3,4,8,16,32,64,128
exponents = 1,2,4
""", capsys)
    return out, lambda: checks.check_correlations(out, 6, (16.0, 0.0), HORIZONS, (1, 2, 4))


def test_correlations_pass_and_return_at_period_three(correlations):
    out, check = correlations
    check()
    c_hat = [float(r["c_hat"]) for r in checks.read_csv(out / "series.csv")]
    assert [round(c, 12) for c in c_hat] == [0.0, 0.0, 0.5] + [0.0] * 6


def test_correlation_set_to_zero_fails(correlations):
    out, check = correlations
    replace_field(out / "series.csv", 2, "c_hat", "0.0")
    with pytest.raises(checks.CheckError, match="c_hat at n=3"):
        check()


def test_correlations_shifted_one_horizon_fail(correlations):
    out, check = correlations
    path = out / "series.csv"
    values = [r["c_hat"] for r in checks.read_csv(path)]
    for row, value in enumerate(values[1:]):
        replace_field(path, row, "c_hat", value)
    with pytest.raises(checks.CheckError, match="c_hat at n=2"):
        check()


@pytest.mark.parametrize("key, value", [("verdict.p=2", "inconclusive"),
                                        ("norm_phi", "7.0")])
def test_verdicts_and_norms_are_checked(correlations, key, value):
    out, check = correlations
    path = out / "verdicts.txt"
    kv = checks.read_kv(path)
    kv[key] = value
    path.write_text("".join(f"{k} = {v}\n" for k, v in kv.items()))
    with pytest.raises(checks.CheckError, match=key):
        check()


def test_layer_metrics_subtract_child_spans():
    spans = [
        ["config.load_config", 0.0, 10.0, -1],
        ["grid.discretize", 1.0, 4.0, 0],
        ["grid.permutation_init", 2.0, 3.0, 1],
        ["perturbation.towerize", 5.0, 9.0, 0],
        ["grid.permutation_init", 8.0, 8.5, 3],
    ]
    counts = {"maps.step_calls": 1, "maps.points_stepped": 7,
              "perturbation.redirects": 3, "perturbation.cubes": 4}
    got = layer_metrics({"spans": spans, "counts": counts})
    assert got["config.load_config_s"] == 3.0
    assert got["grid.discretize_s"] == 2.0
    assert got["perturbation.towerize_s"] == 3.5
    assert got["grid.permutation_init_s"] == 1.5
    assert got["grid.permutation_init_calls"] == 2
    assert got["maps.step_block_calls"] == 0
    assert got["maps.points_stepped"] == 7
