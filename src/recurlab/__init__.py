"""recurlab: recurrence and hitting statistics for measure-preserving dynamics.

A desk-scale laboratory for quantitative recurrence, shrinking-target
hitting, tower-redirect perturbations of grid permutations, correlation
decay classification, and local dimension estimation, with a
deterministic experiment CLI on top.
"""

__version__ = "0.1.0"

from .correlations import (
    CorrelationSeries,
    DecayFitReport,
    LocalDimensionEstimate,
    correlation_series,
    lipschitz_norm,
    local_dimension,
    superpoly_test,
)
from .grid import (
    GridPermutation,
    GridSpec,
    PeriodicityReport,
    cycle_decomposition,
    discretize,
    load_permutation,
    save_permutation,
    torus_grid,
)
from .hitting import (
    ShrinkingTargetSpec,
    WpWindow,
    borel_cantelli_fraction,
    hitting_score,
    wp_hit_count,
    wp_union_exhaustive,
    wp_union_measure,
)
from .maps import (
    GridBackedMap,
    Identity,
    Rotation,
    SystemMap,
    ToralAutomorphism,
    cat_map,
    golden_rotation,
    iterate,
    map_distance,
    sample_points,
)
from .observables import CoordinateTrig, GridTableObservable, IdentityObservable, Observable
from .perturbation import CubeCover, PerturbationReport, build_cover, towerize
from .rates import Power, PowerLog, RateSequence, Shrinking, TableRate, parse_rate
from .recurrence import (
    MeasureEstimate,
    RecurrenceWindow,
    in_window_set,
    recurrence_score,
    window_union_exhaustive,
    window_union_measure,
)
