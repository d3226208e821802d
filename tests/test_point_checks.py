"""Every public entry point rejects a point, or a map, of the wrong dimension.

A torus is named by its dimension alone, so these checks are what keeps a
point of d - 1 or d + 1 coordinates off a d-dimensional map: without them
``GridSpec.flat_index`` would drop the extra columns and a metric would
broadcast a short point across the axes.
"""

import numpy as np
import pytest

import recurlab as rl
from recurlab.hitting import ShrinkingTargetSpec, WpWindow

CAT = rl.cat_map()
CAT_GRID = rl.GridBackedMap(rl.discretize(CAT, rl.torus_grid(2, 4)))
POINT = np.array([0.3, 0.6])
RATE = rl.Power(1.0)
F = rl.IdentityObservable(2)


def _grid(system):
    return system.grid if isinstance(system, rl.GridBackedMap) else rl.torus_grid(2, 4)


def _other_map(bad):
    """A map of the wrong point's dimension."""
    return rl.Rotation(tuple(bad))


ENTRY_POINTS = {
    "recurrence_score": lambda s, bad: rl.recurrence_score(s, F, RATE, bad, 10),
    "hitting_score-start": lambda s, bad: rl.hitting_score(s, F, RATE, bad, POINT, 10),
    "hitting_score-target": lambda s, bad: rl.hitting_score(s, F, RATE, POINT, bad, 10),
    "wp_hit_count": lambda s, bad: rl.wp_hit_count(s, F, RATE, bad, POINT, WpWindow(1, 1, 10)),
    "wp_union_measure": lambda s, bad: rl.wp_union_measure(
        s, F, RATE, bad, WpWindow(1, 1, 10), 100, 0),
    "borel_cantelli_fraction": lambda s, bad: rl.borel_cantelli_fraction(
        s, ShrinkingTargetSpec(tuple(bad), 1.0), 1, 10, 100, 0),
    "in_window_set": lambda s, bad: rl.in_window_set(s, F, RATE, bad, 1, 0.5),
    "iterate": lambda s, bad: rl.iterate(s, bad, 3),
    "local_dimension": lambda s, bad: rl.local_dimension(bad, 2.0 ** -6, 2.0 ** -1, _grid(s)),
    "cell_of": lambda s, bad: _grid(s).cell_of(bad),
    "discretize": lambda s, bad: rl.discretize(_other_map(bad), _grid(s)),
    "map_distance": lambda s, bad: rl.map_distance(s, _other_map(bad)),
}


@pytest.mark.parametrize("bad", [np.array([0.3]), np.array([0.3, 0.6, 0.9])],
                         ids=["1-coordinate", "3-coordinates"])
@pytest.mark.parametrize("system", [CAT, CAT_GRID], ids=["analytic", "grid"])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_wrong_dimension_is_rejected(entry, system, bad):
    with pytest.raises(ValueError, match="dimension|spaces|space differ"):
        ENTRY_POINTS[entry](system, bad)

