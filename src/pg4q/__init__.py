"""Exact computational engine for PG(4,q), q even, and its parabolic quadrics."""

from .gf import GF, DEFAULT_MODULI
from .pg import (
    Geometry,
    InconsistencyError,
    enumerate_points,
    gaussian_binomial,
)
from .quadric import (
    QuadraticForm,
    NotParabolicError,
    apply_collineation,
    canonical_q4,
    classify_all_solids,
    fit_quadratic_form,
    line_profile,
    nucleus,
    zero_set,
)
from .families import (
    ColorMap,
    Report,
    Verdict,
    characterize,
    check_condition_I,
    check_condition_II,
    partition_solids,
    point_incidence_counts,
    solid_spectrum,
    structure_counts,
    verify_hyperbolic_spectra,
)
from .quasi import (
    QuasiCandidate,
    QuasiHit,
    exhaustive_search_q2,
    is_quasi_quadric,
    search_quasi,
    solids_meeting_in,
    verify_converse_lemma,
)

__version__ = "0.1.0"
