"""Exact values on the torus steps the default-scenario pins do not reach.

Mod 1 is taken as x - floor(x) in every torus step, which must keep the
bits of numpy's float ``%``.  The seven sha256 pins in test_cli.py cover
the golden rotation, the cat map and grid maps through the CLI; these
values (``float.hex``, recorded from the ``% 1.0`` code) cover a 2-D
rotation and the automorphism [[3, 1], [2, 1]] through the union
estimators, the shrinking-target fraction, scores with a ``powlog`` rate
over a horizon of several blocks, and steps of points at and near
integers.  The rotation's scores were recorded again when its walk began
to count n * alpha through an exact split: ``recurrence_id`` and
``hitting_id`` are then the exact minima over the float alpha, rounded
once.
"""

import numpy as np
import pytest

import recurlab as rl
from recurlab.hitting import ShrinkingTargetSpec, WpWindow
from recurlab.maps import BLOCK_POINTS

ROTATION = rl.Rotation((0.3137, 0.7241))
AUTOMORPHISM = rl.ToralAutomorphism(((3, 1), (2, 1)))
TRIG = rl.CoordinateTrig(((1.0, 1.0), (3.0, -1.0)))
SAMPLES, SEED = 300, 5

# Coordinates at, just inside and just outside integers, both signs.
NEAR_INTEGERS = np.array([
    [0.0, -0.0], [-1e-17, 1e-17], [-5e-324, 5e-324], [1.0 - 2.0 ** -53, -(1.0 - 2.0 ** -53)],
    [1.0, -1.0], [-2.0, 3.0], [2.0 + 2.0 ** -51, -2.0 - 2.0 ** -51],
    [-0.3137, -0.7241], [0.6863, 0.2759], [-7.75, 12.25],
    [2.0 ** 52 + 1.0, -(2.0 ** 52) - 1.0], [-1e-300, 1e-300],
])


def _values(name):
    system = {"rotation": ROTATION, "automorphism": AUTOMORPHISM}[name]
    ident = rl.IdentityObservable(system.dim)
    rate = rl.parse_rate("powlog:0.5,-3")
    window = rl.RecurrenceWindow(2, 400, 0.003)
    out = {
        "step": system.step(NEAR_INTEGERS),
        "window_union_trig": rl.window_union_measure(
            system, TRIG, rate, window, SAMPLES, SEED).value,
        "window_union_id": rl.window_union_measure(
            system, ident, rate, window, SAMPLES, SEED).value,
        "wp_union": rl.wp_union_measure(
            system, ident, rl.Power(1.0), (0.25, 0.6), WpWindow(1, 5, 600), SAMPLES, SEED).value,
        "bc": rl.borel_cantelli_fraction(
            system, ShrinkingTargetSpec((0.5, 0.5), 1.0), 10, 3000, SAMPLES, SEED),
    }
    pts = rl.sample_points(system, 5, SEED)
    # Five points walk in blocks of 819 steps, so the pre-window steps and
    # the window each end with a short block.
    horizon, n_start = 2 * BLOCK_POINTS + 808, 3001
    for key, f in (("id", ident), ("trig", TRIG)):
        out[f"recurrence_{key}"] = rl.recurrence_score(system, f, rate, pts, horizon, n_start)
        out[f"hitting_{key}"] = rl.hitting_score(
            system, f, rate, pts, np.array([0.25, 0.6]), horizon, n_start)
    return {k: [float(v).hex() for v in np.ravel(a)] for k, a in out.items()}


PINS = {
    "rotation": {
        "step": [
            "0x1.413a92a305532p-2", "0x1.72bd3c3611340p-1", "0x1.413a92a305532p-2",
            "0x1.72bd3c3611340p-1", "0x1.413a92a305532p-2", "0x1.72bd3c3611340p-1",
            "0x1.413a92a305530p-2", "0x1.72bd3c3611341p-1", "0x1.413a92a305530p-2",
            "0x1.72bd3c3611340p-1", "0x1.413a92a305530p-2", "0x1.72bd3c3611340p-1",
            "0x1.413a92a305538p-2", "0x1.72bd3c361133cp-1", "0x0.0p+0", "0x0.0p+0",
            "0x0.0p+0", "0x0.0p+0", "0x1.209d495182a98p-1", "0x1.f2bd3c3611340p-1",
            "0x0.0p+0", "0x0.0p+0", "0x1.413a92a305532p-2", "0x1.72bd3c3611340p-1"
        ],
        "window_union_trig": ["0x1.2e147ae147ae1p-1"],
        "window_union_id": ["0x1.0000000000000p+0"],
        "wp_union": ["0x1.5555555555555p-1"],
        "bc": ["0x1.b4e81b4e81b4fp-2"],
        "recurrence_id": [
            "0x1.0be0dbb9309cdp-10", "0x1.0be0dbb9309cdp-10", "0x1.0be0dbb9309cdp-10",
            "0x1.0be0dbb9309cdp-10", "0x1.0be0dbb9309cdp-10"
        ],
        "hitting_id": [
            "0x1.39d853c61557bp-11", "0x1.72013b7569943p-12", "0x1.901f722a8afd5p-11",
            "0x1.0a4ef98941397p-12", "0x1.2742ddb77ea12p-11"
        ],
        "recurrence_trig": [
            "0x1.8fc170b1c08e0p-43", "0x1.6bc3ebda3236ep-43", "0x1.8e1153e03707bp-44",
            "0x1.d530a5afa14efp-46", "0x1.ebad43fae3738p-44"
        ],
        "hitting_trig": [
            "0x1.59e030d7d180fp-10", "0x1.fe0b4ff4c035ep-12", "0x1.21a5cc08dbfe8p-8",
            "0x1.a1911ee728d72p-10", "0x1.fc7d756a1a2b9p-11"
        ],
    },
    "automorphism": {
        "step": [
            "0x0.0p+0", "0x0.0p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0",
            "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.ffffffffffffcp-1",
            "0x1.fffffffffffffp-1", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
            "0x1.0000000000000p-49", "0x1.0000000000000p-51", "0x1.56d5cfaacd9e8p-2",
            "0x1.4c083126e978ep-1", "0x1.56d5cfaacd9e8p-2", "0x1.4c083126e978ep-1",
            "0x0.0p+0", "0x1.8000000000000p-1", "0x0.0p+0", "0x0.0p+0",
            "0x1.0000000000000p+0", "0x1.0000000000000p+0"
        ],
        "window_union_trig": ["0x1.a740da740da74p-2"],
        "window_union_id": ["0x1.8369d0369d037p-1"],
        "wp_union": ["0x1.23d70a3d70a3dp-1"],
        "bc": ["0x1.5f92c5f92c5f9p-2"],
        "recurrence_id": [
            "0x1.536ba8e26262cp-11", "0x1.4aa57521e27bdp-12", "0x1.26f8bce1115c7p-10",
            "0x1.138162a735224p-11", "0x1.a4fe9362586b1p-11"
        ],
        "hitting_id": [
            "0x1.09c53bfea6540p-12", "0x1.f572bcd6bf7afp-11", "0x1.6d76e95381e1fp-14",
            "0x1.1b215115a040ap-11", "0x1.d3eaa7dd84fdfp-11"
        ],
        "recurrence_trig": [
            "0x1.2e4bc7804d606p-11", "0x1.3dc2eaf27dfa6p-9", "0x1.aa346cf55d430p-11",
            "0x1.1f1cf1d4377cep-13", "0x1.0a8ffcd1e68c3p-12"
        ],
        "hitting_trig": [
            "0x1.634827c8a9a0fp-10", "0x1.19bababcd2272p-10", "0x1.2d8b613e50ec4p-10",
            "0x1.576d9d8c4ddd9p-9", "0x1.b87244b74e563p-9"
        ],
    },
}


@pytest.mark.parametrize("name", ["rotation", "automorphism"])
def test_torus_values_match_the_recorded_bits(name):
    got = _values(name)
    assert got.keys() == PINS[name].keys()
    for key, expected in PINS[name].items():
        assert got[key] == expected, key
