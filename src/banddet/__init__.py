"""Exact closed-form determinants of generalized binary band Toeplitz
matrices, brute-force oracles to check them with, and even/odd censuses
of the restricted-permutation classes they count."""

from .band import (
    BandResidue,
    BandSpec,
    FactoredDet,
    all_b_row_count,
    band_rows,
    bordered_matrix,
    det_case1,
    det_case2,
    det_closed,
    det_factored,
    det_recurrence,
    entry,
    f_closed,
    g_closed,
    materialize,
    residue,
    spec_from_json,
    spec_to_json,
)
from .errors import (
    DivisibilityError,
    InexactDivisionError,
    InvalidPermutationError,
    MixedRingError,
    ParityError,
    SizeLimitError,
)
from .oracle import (
    DenseMatrix,
    det_bareiss,
    det_laplace,
    permanent_expansion,
    permanent_ryser,
)
from .permcount import (
    CharMatrix,
    ExcedanceCensus,
    ParityCount,
    brute_force_excedance_census,
    brute_force_parity,
    excedance_census,
    excedance_matrix,
    family_table,
    menage_a_det,
    menage_a_matrix,
    menage_a_permanent_rec,
    menage_a_permanent_sum,
    menage_b_det,
    menage_b_matrix,
    parity_counts,
    perm_sign,
    weak_excedance_class,
    weak_excedance_count,
)
from .rings import (
    Integer,
    Poly,
    RingElement,
    as_element,
    element_from_json,
    element_to_json,
)

__version__ = "0.1.0"
