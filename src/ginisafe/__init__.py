"""Gini-index analytics for random and quantum safes.

Row Markov matrices expanded over permutations with repetitions, Lorenz/Gini
sparsity analysis and majorization of probability vectors, seeded Monte Carlo
ensembles, and multipartite-qudit statistics under local and global Fourier
transforms, including uncertainty-coefficient searches.
"""

from .ensembles import (
    CORRELATED,
    INDEPENDENT,
    EnsembleSpec,
    McEstimate,
    collision_probability_mc,
    empirical_tensor,
    make_rng,
    sample_codes,
    shard_rng,
)
from .errors import (
    CorrelatedSpecRejectedError,
    DimensionMismatchError,
    DimensionTooLargeError,
    GiniSafeError,
    IndexOutOfRangeError,
    NegativeEntryError,
    NotNormalizedError,
    NotProductFormError,
    ValidationError,
)
from .eta import (
    MODES,
    EtaEstimate,
    deficit_sweep,
    estimate_eta,
)
from .markov import (
    FunctionMap,
    correlation_coefficients,
    function_table,
    local_gini_vector,
    product_probabilities,
    push_forward,
    scalar_product,
    scalar_product_via_tensors,
    tensor_dimension,
    tensor_to_matrix,
    total_gini,
    validate_markov_tensor,
    validate_row_markov,
)
from .probvec import (
    DEFAULT_TOL,
    Majorization,
    average_bounds,
    gini_index,
    gini_mean_abs_diff,
    lorenz_values,
    majorizes,
    ordering_permutation,
    uniform_vector,
    validate_prob_vector,
)
from .quantum import (
    GLOBAL,
    LOCAL,
    SINGLE,
    StateStats,
    UncertaintyDeficits,
    apply_dual,
    basis_state,
    diagonal_probabilities,
    dual_probabilities,
    dual_state,
    local_dimension,
    pure_density,
    random_pure_state,
    state_stats,
    tensor_stats,
    uncertainty_deficits,
    validate_density_matrix,
)

__version__ = "0.1.0"
