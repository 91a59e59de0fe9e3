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
    merge,
    sample_codes,
    sample_sequence,
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
    deficit,
    deficit_sweep,
    estimate_eta,
    gini_sum,
    gini_sum_cap,
)
from .markov import (
    FunctionMap,
    all_function_maps,
    compose,
    correlation_coefficients,
    function_table,
    function_to_matrix,
    local_gini_vector,
    product_probabilities,
    push_forward,
    scalar_product,
    scalar_product_via_tensors,
    tensor_dimension,
    tensor_to_matrix,
    total_gini,
    uniform_matrix,
    validate_markov_tensor,
    validate_row_markov,
)
from .probvec import (
    DEFAULT_TOL,
    Majorization,
    average_bounds,
    certain_vector,
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
    componentwise_parity,
    dft_unitary,
    diagonal_probabilities,
    dual_probabilities,
    dual_state,
    fourier_single,
    global_fourier,
    index_product,
    index_to_tuple,
    kron_chain,
    local_dimension,
    local_fourier,
    parity_matrix,
    projector_function,
    projector_local,
    pure_density,
    random_pure_state,
    reduced_density,
    state_scalar_product,
    state_stats,
    tensor_stats,
    tuple_to_index,
    uncertainty_deficits,
    validate_density_matrix,
)

__version__ = "0.1.0"
