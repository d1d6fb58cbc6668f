"""Exact character computations for admissible configurations.

Three independent routes to the same generating functions: direct
enumeration of the configurations, Gordon-type fermionic sums, and graded
dimensions of symmetric vanishing spaces computed by exact linear algebra.
The package exists to evaluate all of them and check that they agree to any
requested truncation order.
"""

from .series import TruncatedSeries, first_mismatch
from .configurations import CapacityError, character_direct
from .fermionic import (
    GordonData,
    boundary_c2,
    boundary_c3,
    evaluate_gordon_sum,
    fermionic_r2,
    fermionic_r3,
    fermionic_r3_special,
    gordon_a,
    gordon_a2,
    gordon_b,
    gordon_b3,
    gordon_data_r2,
    gordon_data_r3,
    gordon_data_r3_special,
    level_restricted_partitions,
    quadratic_exponent,
)
from .polyspaces import (
    VanishingSpec,
    graded_dimension,
    vanishing_spec_r2,
    vanishing_spec_r3_pair,
    vanishing_spec_r3_signed,
    weight_degree,
)
from .vertexops import (
    PairFunction,
    PairingTable,
    VOFamily,
    VOSpec,
    build_family,
    closed_form_series,
    family_r2,
    family_r3_mixed,
    family_r3_split,
    pair_function,
)

__version__ = "0.1.0"
