"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the pass lines.
Tolerances are pinned here and nowhere else; every derived expectation is
cross-checked against the independent oracles in ``oracles.py``.
"""

import contextlib
import io
import time

import numpy as np
import pytest

import recurlab as rl
from recurlab.cli import main as cli_main
from recurlab.maps import GridBackedMap
from recurlab.recurrence import RecurrenceWindow
from recurlab.hitting import WpWindow

from oracles import cycle_histogram, rotation_score_fast, wrap_dist_1d

GOLDEN = rl.maps.GOLDEN_MEAN
DELTA = 1.0 / 32.0
EPSILON = 0.1


def _passed(num, text):
    print(f"ACCEPTANCE {num:02d} PASS: {text}")


def _towerize_cases():
    """The four perturbation targets at their acceptance resolutions."""
    g1 = rl.torus_grid(1, 10)
    g2 = rl.torus_grid(2, 5)
    return [
        ("identity-1d", rl.GridPermutation.identity(g1)),
        ("identity-2d", rl.GridPermutation.identity(g2)),
        ("shift-by-1", rl.GridPermutation.cyclic_shift(g1, 1)),
        ("golden-rotation", rl.discretize(rl.golden_rotation(), g1)),
        ("cat-map", rl.discretize(rl.cat_map(), g2)),
    ]


def test_criterion_01_perturbation_hard_guarantees():
    for name, tau in _towerize_cases():
        start = time.perf_counter()
        cover = rl.build_cover(tau.grid, DELTA, EPSILON)
        report = rl.towerize(tau, cover)
        g = report.permutation
        n = tau.grid.cell_count
        # exhaustive bijectivity
        assert np.array_equal(g.inverse[g.forward], np.arange(n)), name
        # displacement strictly below delta for every cell
        disp = g.displacement_cells(tau)
        assert float(disp.max()) < DELTA, name
        # g = tau wherever tau's image falls outside the cover cubes
        cube_of = cover.cube_of_cells()
        outside = cube_of[tau.forward] < 0  # full tiling: no such cells
        assert np.array_equal(g.forward[outside], tau.forward[outside]), name
        # and redirected images stay inside the image's own cube
        moved = g.forward != tau.forward
        assert np.all(cube_of[g.forward[moved]] == cube_of[tau.forward[moved]]), name
        elapsed = time.perf_counter() - start
        assert elapsed < 2.0, f"{name} took {elapsed:.2f}s"
    _passed(1, "towerize hard guarantees (bijectivity, displacement < 1/32, "
               "support) on all five systems, < 2 s each")


def test_criterion_02_short_period_mass():
    g1 = rl.torus_grid(1, 10)
    start = time.perf_counter()
    for name, tau in [
        ("shift-by-1", rl.GridPermutation.cyclic_shift(g1, 1)),
        ("golden-rotation", rl.discretize(rl.golden_rotation(), g1)),
    ]:
        report = rl.towerize(tau, rl.build_cover(g1, DELTA, EPSILON))
        frac = report.periodicity.fraction_within(64)
        assert frac >= 0.9, f"{name}: fraction {frac}"
        # exhaustive cycle decomposition oracle, independent walk
        assert report.periodicity.histogram == cycle_histogram(
            report.permutation.forward.tolist()
        ), name
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"criterion 2 took {elapsed:.2f}s"
    _passed(2, "towerized shift and golden rotation carry >= 0.9 mass in "
               "cycles of length <= 64, verified exhaustively, < 1 s")


def test_criterion_03_recurrence_score_sanity():
    start = time.perf_counter()
    ident = rl.Identity(1)
    f1 = rl.IdentityObservable(ident.dim)
    for x in (0.0, 0.33, 0.77):
        assert rl.recurrence_score(ident, f1, rl.Power(1.0),
                                   np.array([x]), 100) == 0.0

    system = rl.golden_rotation()
    f = rl.IdentityObservable(system.dim)
    rate = rl.Power(1.0)
    horizon = 10 ** 5
    n_start = horizon // 2  # tail half-window, the liminf-style proxy
    oracle = rotation_score_fast(GOLDEN, n_start, horizon)
    assert 0.44 <= oracle <= 0.48
    pts = rl.sample_points(rl.Identity(system.dim), 100, seed=2025)
    scores = [
        rl.recurrence_score(system, f, rate, pts[i], horizon, n_start)
        for i in range(100)
    ]
    for s in scores:
        assert 0.44 <= s <= 0.48
        assert abs(s - oracle) < 1e-6  # rotation scores are x-independent
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"criterion 3 took {elapsed:.2f}s"
    _passed(3, f"identity scores exactly 0; golden tail-window scores all in "
               f"[0.44, 0.48] (oracle {oracle:.6f} ~ 1/sqrt(5)), < 5 s")


def test_criterion_04_claim1_finite_equivalence():
    systems = [
        GridBackedMap(rl.GridPermutation.identity(rl.torus_grid(1, 3))),
        GridBackedMap(rl.GridPermutation.cyclic_shift(rl.torus_grid(1, 5), 1)),
        GridBackedMap(rl.discretize(rl.golden_rotation(), rl.torus_grid(1, 5))),
        GridBackedMap(rl.discretize(rl.cat_map(), rl.torus_grid(2, 2))),
    ]
    rate = rl.Power(1.0)
    horizon = 200
    n_ladder = (1, 2, 3, 5, 8, 13, 21, 55, 89, 144, 200)
    k_ladder = np.geomspace(1e-3, 2.0, 20)
    checks = violations = 0
    for system in systems:
        f = rl.IdentityObservable(system.dim)
        grid = system.grid
        for cell in range(grid.cell_count):
            x = grid.centers(np.int64(cell))
            scores = {N: rl.recurrence_score(system, f, rate, x, N)
                      for N in n_ladder}
            for k in k_ladder:
                fired = np.array([
                    rl.in_window_set(system, f, rate, x, n, float(k))
                    for n in range(1, horizon + 1)
                ])
                any_up_to = np.cumsum(fired) > 0
                for N in n_ladder:
                    checks += 1
                    if (scores[N] < k) != bool(any_up_to[N - 1]):
                        violations += 1
    assert violations == 0
    _passed(4, f"score < k iff some window set fires: {checks} exhaustive "
               f"checks across 4 grid systems, zero violations")


def test_criterion_05_monotonicity_suite():
    rng = np.random.Generator(np.random.Philox(key=20240601))
    grid = rl.torus_grid(1, 6)
    perms = [
        rl.GridPermutation.cyclic_shift(grid, 1),
        rl.discretize(rl.golden_rotation(), grid),
        rl.GridPermutation(grid, rng.permutation(grid.cell_count)),
    ]
    systems = [GridBackedMap(p) for p in perms]
    rate = rl.Power(1.0)
    total = 0

    # family 1: window sets grow with the threshold
    for _ in range(3000):
        system = systems[int(rng.integers(len(systems)))]
        f = rl.IdentityObservable(system.dim)
        x = rng.random(1)
        n = int(rng.integers(1, 40))
        k = float(rng.uniform(0.005, 1.0))
        k2 = k * float(rng.uniform(1.0, 4.0))
        if rl.in_window_set(system, f, rate, x, n, k):
            assert rl.in_window_set(system, f, rate, x, n, k2)
        total += 1

    # family 2: scores never increase with the horizon
    for _ in range(3000):
        system = systems[int(rng.integers(len(systems)))]
        f = rl.IdentityObservable(system.dim)
        x = rng.random(1)
        n1 = int(rng.integers(1, 30))
        n2 = n1 + int(rng.integers(0, 30))
        s1 = rl.recurrence_score(system, f, rate, x, n1)
        s2 = rl.recurrence_score(system, f, rate, x, n2)
        assert s2 <= s1
        total += 1

    # family 3: hit counts grow with p and with the window end
    for _ in range(3000):
        system = systems[int(rng.integers(len(systems)))]
        f = rl.IdentityObservable(system.dim)
        x, y = rng.random(1), rng.random(1)
        m = int(rng.integers(1, 15))
        l = m + int(rng.integers(0, 40))
        p = int(rng.integers(1, 4))
        base = rl.wp_hit_count(system, f, rate, x, y, WpWindow(p, m, l))
        assert rl.wp_hit_count(system, f, rate, x, y, WpWindow(p + 1, m, l)) >= base
        assert rl.wp_hit_count(system, f, rate, x, y, WpWindow(p, m, l + 15)) >= base
        total += 1

    # family 4: union measures grow with l and k under a common seed
    for i in range(1000):
        system = systems[int(rng.integers(len(systems)))]
        f = rl.IdentityObservable(system.dim)
        m = int(rng.integers(1, 5))
        l = m + int(rng.integers(0, 12))
        k = float(rng.uniform(0.01, 0.6))
        seed = int(rng.integers(2 ** 32))
        base = rl.window_union_measure(system, f, rate, RecurrenceWindow(m, l, k),
                                       100, seed).value
        more_l = rl.window_union_measure(system, f, rate,
                                         RecurrenceWindow(m, l + 8, k), 100, seed).value
        more_k = rl.window_union_measure(system, f, rate,
                                         RecurrenceWindow(m, l, k * 2), 100, seed).value
        assert more_l >= base
        assert more_k >= base
        total += 1

    assert total == 10_000
    _passed(5, "10^4 randomized monotonicity instances across four "
               "families, zero violations")


def test_criterion_06_hitting_divergence_on_towerized_golden():
    grid = rl.torus_grid(1, 10)
    tau = rl.discretize(rl.golden_rotation(), grid)
    report = rl.towerize(tau, rl.build_cover(grid, DELTA, EPSILON))
    system = GridBackedMap(report.permutation)
    f = rl.IdentityObservable(system.dim)
    rate = rl.Power(1.0)
    width = grid.cell_width
    horizon = 10 ** 3
    n_start = horizon // 2
    bound = horizon * width * 0.5

    pts = rl.sample_points(system, 100, seed=424242)
    passes = 0
    for i in range(100):
        cell = int(grid.cell_of(pts[i][None, :])[0])
        orbit = system.cell_orbit(cell, horizon)  # exhaustive enumeration
        orbit_cells = np.unique(orbit)
        # target: the center farthest from the whole orbit, ties to the
        # lowest index; always at least 4 cells away (orbits are short)
        all_cells = np.arange(grid.cell_count)
        dmat = np.abs(all_cells[:, None] - orbit_cells[None, :])
        dmat = np.minimum(dmat, grid.cell_count - dmat)
        far = dmat.min(axis=1)
        target_cell = int(np.argmax(far))
        assert far[target_cell] >= 4
        y = grid.centers(np.int64(target_cell))

        score = rl.hitting_score(system, f, rate, pts[i], y, horizon, n_start)
        # independent oracle: walk the enumerated orbit in python
        want = min(
            (n + 1) * wrap_dist_1d((orbit[n] + 0.5) * width, float(y[0]))
            for n in range(n_start - 1, horizon)
        )
        assert abs(score - want) < 1e-12
        if score >= bound:
            passes += 1
    assert passes >= 95
    _passed(6, f"towerized golden rotation: tail hitting score >= 1e3*w/2 "
               f"for {passes}/100 samples (need 95)")


def test_criterion_07_local_dimension():
    start = time.perf_counter()
    results = {}
    for dim, want in ((1, 1.0), (2, 2.0)):
        est = rl.local_dimension(np.full(dim, 0.37), 2.0 ** -9, 2.0 ** -4, rl.torus_grid(dim, 10))
        assert abs(est.slope - want) <= 0.05, est
        results[dim] = est.slope
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"criterion 7 took {elapsed:.2f}s"
    _passed(7, f"Lebesgue local dimension: T1 slope {results[1]:.3f}, "
               f"T2 slope {results[2]:.3f} (need 1.00/2.00 +- 0.05), < 1 s")


def test_criterion_08_borel_cantelli_fraction():
    spec = rl.ShrinkingTargetSpec((0.5, 0.5), 3.0)
    cat = rl.cat_map()
    fr1 = rl.borel_cantelli_fraction(cat, spec, 10, 10 ** 5, 1000, seed=1)
    fr2 = rl.borel_cantelli_fraction(cat, spec, 10, 10 ** 5, 1000, seed=2)
    assert fr1 >= 0.99
    assert fr2 >= 0.99
    assert abs(fr1 - fr2) <= 0.005
    _passed(8, f"cat map shrinking targets at beta=3: fractions {fr1:.4f} / "
               f"{fr2:.4f} across seeds (need >= 0.99, spread <= 0.005)")


def test_criterion_09_correlation_contrast():
    phi2 = rl.CoordinateTrig(((1.0, 0.0),))
    cat8 = GridBackedMap(rl.discretize(rl.cat_map(), rl.torus_grid(2, 8)))
    ns = [1, 2, 4, 8, 16, 32, 64, 128]
    cat_series = rl.correlation_series(cat8, phi2, phi2, ns)
    cat_fit = rl.superpoly_test(cat_series, [1.0, 2.0, 4.0])
    for v in cat_fit.verdicts:
        assert v.verdict == "consistent-with-decay", v
        assert len(v.weighted) == len(ns)  # raw s_n emitted with the verdict

    grid = rl.torus_grid(1, 10)
    tau = rl.discretize(rl.golden_rotation(), grid)
    report = rl.towerize(tau, rl.build_cover(grid, DELTA, EPSILON))
    tower = GridBackedMap(report.permutation)
    phi1 = rl.CoordinateTrig(((1.0,),))
    tower_ns = [report.p_star * k for k in (1, 2, 4, 8, 16, 32, 64, 128)]
    tower_series = rl.correlation_series(tower, phi1, phi1, tower_ns)
    tower_fit = rl.superpoly_test(tower_series, [1.0])
    assert tower_fit.verdicts[0].verdict == "not-decaying"
    assert len(tower_fit.verdicts[0].weighted) == len(tower_ns)
    _passed(9, f"cat map at m=8 consistent-with-decay for p in (1,2,4); "
               f"towerized golden along multiples of P*={report.p_star} "
               f"not-decaying at p=1; s_n sequences emitted")


_DETERMINISM_CONFIGS = {
    "recurrence": """
[run]
seed = 9001
samples = 100
[system]
kind = golden
[rate]
value = pow:1
[recurrence]
horizon = 100000
n_start = 50000
m = 1
l = 64
k = 0.4
""",
    "hitting": """
[run]
seed = 9001
samples = 100
[system]
kind = golden
grid_m = 10
towerize_delta = 0.03125
towerize_epsilon = 0.1
[rate]
value = pow:1
[hitting]
horizon = 1000
n_start = 500
y = 0.25
p = 1
m = 1
l = 100
""",
    "perturb": """
[run]
seed = 9001
[system]
kind = golden
grid_m = 10
[perturb]
delta = 0.03125
epsilon = 0.1
""",
    "correlations": """
[run]
seed = 9001
[system]
kind = cat
grid_m = 8
[observable]
kind = trig
freqs = 1,0
[correlations]
horizons = 1,2,4,8,16,32,64,128
exponents = 1,2,4
""",
    "dimension": """
[dimension]
y = 0.37,0.61
grid_m = 10
r_min = 0.001953125
r_max = 0.0625
""",
    "bc": """
[run]
seed = 9001
samples = 1000
[system]
kind = cat
[bc]
y = 0.5,0.5
beta = 3
m = 10
horizon = 100000
""",
    "mapdist": """
[run]
seed = 9001
[system]
kind = rotation
alpha = 0.25
[system2]
kind = rotation
alpha = 0.30
""",
}


def test_criterion_10_determinism_across_thread_counts(tmp_path):
    compared = 0
    for scenario, text in _DETERMINISM_CONFIGS.items():
        cfg_file = tmp_path / f"{scenario}.cfg"
        cfg_file.write_text(text)
        outs = []
        for threads in (1, 4):
            out = tmp_path / f"{scenario}-t{threads}"
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli_main([scenario, "--config", str(cfg_file),
                                 "--out", str(out), "--threads", str(threads)])
            assert code == 0, scenario
            outs.append(out)
        csvs = sorted(p.name for p in outs[0].glob("*.csv"))
        assert csvs, scenario
        for name in csvs:
            b1 = (outs[0] / name).read_bytes()
            b2 = (outs[1] / name).read_bytes()
            assert b1 == b2, f"{scenario}/{name} differs across thread counts"
            compared += 1
    _passed(10, f"all 7 scenarios byte-identical across --threads 1 and 4 "
                f"({compared} CSV artifacts compared)")
