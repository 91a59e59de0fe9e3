"""One admission rule for every count, size, seed and index argument, and one for every array.

Each public function that takes an integer argument goes through
``errors.admit_int``: a Python int or a numpy integer is admitted, and a
bool, a float (even an integral one), a string, None or any other value is a
ValidationError that names the argument, as is a value outside the
argument's range, before anything sized by the value is allocated.  Each
array argument goes through ``errors.admit_array``: a value that is no
non-empty array of numbers of the argument's dimensions, or a complex one
where a real array is expected, is a ValidationError that names it.
"""

import dataclasses
import inspect
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ginisafe as gs
from ginisafe import ensembles, eta, markov, quantum
from ginisafe.errors import (
    DimensionTooLargeError,
    IndexOutOfRangeError,
    ValidationError,
    admit_array,
    admit_index,
    admit_int,
    admit_square,
    admit_tol,
)

SPEC = gs.EnsembleSpec.independent([[0.5, 0.5, 0], [0, 0.5, 0.5], [0, 0.5, 0.5]])

# a bad value may allocate no more than this before it is rejected
ADMISSION_BYTES = 2**16


@dataclasses.dataclass(frozen=True)
class Slot:
    """One integer argument of one public function.

    `call` puts a value in the argument's place.  `lo` is the smallest
    admitted value (None: every integer); `cap` the largest, or None; an
    index slot admits [0, cap] and raises IndexOutOfRangeError outside it.
    `valid` are values the call admits and answers.
    """

    name: str
    call: object
    what: str
    lo: int | None
    cap: int | None
    valid: tuple
    index: bool = False

    def __repr__(self):
        return self.name


def _draws(rng):
    return rng.random(3)


SLOTS = [
    Slot("make_rng.seed", lambda v: _draws(gs.make_rng(v)), "seed", 0, None, (0, 7, 2**40)),
    Slot("shard_rng.seed", lambda v: _draws(gs.shard_rng(v, 1)), "seed", 0, None, (0, 3)),
    Slot("shard_rng.shard", lambda v: _draws(gs.shard_rng(0, v)), "shard", 0, None, (0, 5)),
    Slot("sample_codes.n", lambda v: gs.sample_codes(SPEC, v, gs.make_rng(0)),
         "sample count", 1, ensembles.MAX_SAMPLES, (1, 40)),
    Slot("empirical_tensor.n", lambda v: gs.empirical_tensor(SPEC, v, gs.make_rng(0)),
         "sample count", 1, ensembles.MAX_SAMPLES, (1, 40)),
    Slot("collision_probability_mc.n",
         lambda v: gs.collision_probability_mc(SPEC, SPEC, v, gs.make_rng(0)),
         "sample count", 1, ensembles.MAX_SAMPLES, (1, 40)),
    Slot("estimate_eta.d", lambda v: gs.estimate_eta(v, "single", 5), "'d'", 2, 5**5, (2, 3)),
    Slot("estimate_eta.budget", lambda v: gs.estimate_eta(2, "single", v), "budget", 1, 49_627, (1, 9)),
    Slot("estimate_eta.seed", lambda v: gs.estimate_eta(2, "single", 5, seed=v), "seed", 0, None, (0, 4)),
    Slot("deficit_sweep.d", lambda v: gs.deficit_sweep(v, "single", 5), "'d'", 2, 5**5, (2, 3)),
    Slot("deficit_sweep.n", lambda v: gs.deficit_sweep(2, "single", v), "sample count", 1,
         ensembles.MAX_SAMPLES // 2, (1, 30)),
    Slot("deficit_sweep.seed", lambda v: gs.deficit_sweep(2, "single", 5, seed=v), "seed", 0, None, (0, 4)),
    Slot("FunctionMap.images", lambda v: gs.FunctionMap((v, 0)), "image f(0)", 0, 1, (0, 1), True),
    Slot("FunctionMap.from_code.code", lambda v: gs.FunctionMap.from_code(v, 2), "code", 0, 3, (0, 3), True),
    Slot("FunctionMap.from_code.d", lambda v: gs.FunctionMap.from_code(0, v), "'d'", 1, 6, (1, 3)),
    Slot("function_table.d", gs.function_table, "'d'", 1, 6, (1, 3)),
    Slot("markov.code_count.d", markov.code_count, "'d'", 1, 6, (1, 4)),
    Slot("markov.admit_code_d.d", markov.admit_code_d, "'d'", 1, 6, (1, 6)),
    Slot("tensor_dimension.size", gs.tensor_dimension, "array size", 1, None, (1, 4, 27)),
    Slot("uniform_vector.d", gs.uniform_vector, "'d'", 1, None, (1, 3)),
    Slot("apply_dual.d", lambda v: gs.apply_dual(np.ones(4), v, "global"), "'d'", 2, 5, (2,)),
    Slot("local_dimension.dim", gs.local_dimension, "state 'dim'", 1, 5**5, (1, 4, 27)),
    Slot("quantum.check_state_dim.dim", quantum.check_state_dim, "state 'dim'", 1, 5**5, (1, 7)),
    # a local transform's d and the dimension d**d of its space, both from admit_transform
    Slot("quantum.space_dimension.d", lambda v: quantum.admit_transform(v, "local"), "'d'", 2, 5, (2, 4)),
    Slot("quantum.admit_transform.single.d", lambda v: quantum.admit_transform(v, "single"), "'d'", 2, 5**5,
         (2, 3125)),
    Slot("random_pure_state.dim", lambda v: gs.random_pure_state(v, gs.make_rng(0)), "state 'dim'",
         1, 5**5, (1, 4, 5**5)),
]
SLOT = {slot.name: slot for slot in SLOTS}

# the parameter names of the public API that take an integer
_INTEGER_PARAMETERS = {"d", "n", "dim", "seed", "shard", "budget", "size"}
# integers inside a sequence argument: the images of a map
_ELEMENT_SLOTS = {"FunctionMap.images"}


def test_every_integer_argument_of_the_public_api_has_a_slot():
    results = (gs.EtaEstimate, gs.McEstimate, gs.StateStats)  # fields of returned values
    wanted = set()
    for name in dir(gs):
        obj = getattr(gs, name)
        if name.startswith("_") or not callable(obj) or obj in results:
            continue
        try:
            params = inspect.signature(obj).parameters
        except ValueError:
            continue
        wanted |= {f"{name}.{p}" for p in params if p in _INTEGER_PARAMETERS}
    covered = {s.name for s in SLOTS}
    assert wanted - covered == set()
    assert _ELEMENT_SLOTS <= covered


NOT_INTEGERS = st.one_of(
    st.booleans(),
    st.sampled_from([np.bool_(False), np.bool_(True)]),
    st.floats(),
    st.integers(-10, 10**6).map(float),  # integral floats, which only JSON may spell
    st.floats(allow_nan=False).map(np.float64),
    st.floats(width=32, allow_nan=False).map(np.float32),
    st.integers(0, 9).map(np.longdouble),
    st.fractions(),
    st.integers(-5, 5).map(Decimal),
    st.text(max_size=4),
    st.none(),
    st.complex_numbers(max_magnitude=10),
    st.sampled_from([[2], (3,), np.array(2), np.array([2]), {"d": 2}]),
)

_NUMPY_INTEGERS = (np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64)


def _trip(self, *args):
    raise AssertionError("the raw argument reached the computation; only its admitted int may")


# A numpy integer whose arithmetic, comparisons and hash fail, so a call passes only if
# nothing but the int that admit_int returns is used past the admission.  Numpy 1.x turns
# np.uint64 combined with a Python int into float64, and a small dtype overflows in d**i;
# this finds any such use under every numpy.
_TRIPPED = ["__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__floordiv__",
            "__rfloordiv__", "__truediv__", "__rtruediv__", "__mod__", "__rmod__", "__pow__",
            "__rpow__", "__neg__", "__lt__", "__le__", "__gt__", "__ge__", "__eq__", "__ne__", "__hash__"]
_Tripwire = type("_Tripwire", (np.int64,), dict.fromkeys(_TRIPPED, _trip))


def _maybe_numpy(value: int, kind):
    """`value` as the numpy integer type `kind` when it fits, else as it is."""
    if kind is None:
        return value
    info = np.iinfo(kind)
    return kind(value) if info.min <= value <= info.max else value


def _bad_values(slot: Slot):
    """Values the slot must reject: non-integers, and integers outside its range."""
    outside = []
    if slot.lo is not None:
        outside.append(st.integers(slot.lo - 2**70, slot.lo - 1))
    if slot.cap is not None:
        outside.append(st.integers(slot.cap + 1, slot.cap + 2**70))
    if not outside:
        return NOT_INTEGERS
    integers = st.builds(_maybe_numpy, st.one_of(*outside), st.sampled_from((None,) + _NUMPY_INTEGERS))
    return st.one_of(NOT_INTEGERS, integers)


def _rejected(slot: Slot, value) -> ValidationError:
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError) as info:
            slot.call(value)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < ADMISSION_BYTES, (slot, value, peak)
    assert slot.what in str(info.value), (slot, value, str(info.value))
    return info.value


BAD_CASES = st.sampled_from(SLOTS).flatmap(lambda s: st.tuples(st.just(s), _bad_values(s)))


@settings(max_examples=500, deadline=None)
@given(case=BAD_CASES)
# silently wrong answers before the rule: a float or bool read as an int
@example(case=(SLOT["make_rng.seed"], 2.5))
@example(case=(SLOT["make_rng.seed"], True))
@example(case=(SLOT["shard_rng.shard"], 1.5))
@example(case=(SLOT["markov.code_count.d"], 2.5))
@example(case=(SLOT["markov.code_count.d"], True))
@example(case=(SLOT["quantum.check_state_dim.dim"], 2.5))
@example(case=(SLOT["FunctionMap.images"], True))
@example(case=(SLOT["FunctionMap.images"], 1.5))
@example(case=(SLOT["FunctionMap.from_code.code"], True))
# numpy or Python errors before the rule
@example(case=(SLOT["sample_codes.n"], 2.5))
@example(case=(SLOT["sample_codes.n"], True))
@example(case=(SLOT["estimate_eta.d"], 2.5))
@example(case=(SLOT["deficit_sweep.d"], 2.0))
@example(case=(SLOT["random_pure_state.dim"], 2.5))
@example(case=(SLOT["uniform_vector.d"], 2.5))
@example(case=(SLOT["FunctionMap.from_code.code"], 1.5))
# an int past Python's 4300-digit str() limit is shown by its sign and bit length
@example(case=(SLOT["make_rng.seed"], -10**5000))
@example(case=(SLOT["uniform_vector.d"], -10**5000))
@example(case=(SLOT["FunctionMap.from_code.code"], 10**5000))
@example(case=(SLOT["quantum.check_state_dim.dim"], 10**5000))
@example(case=(SLOT["deficit_sweep.n"], 10**5000))
# a state past the one state cap, which random_pure_state drew
@example(case=(SLOT["random_pure_state.dim"], 5**5 + 1))
def test_a_bad_integer_argument_is_rejected_by_name_before_allocating(case):
    slot, value = case
    error = _rejected(slot, value)
    if isinstance(value, (int, np.integer)) and not isinstance(value, (bool, np.bool_)):
        if slot.index:
            assert isinstance(error, IndexOutOfRangeError)
        elif slot.cap is not None and value > slot.cap:
            assert isinstance(error, DimensionTooLargeError)


@pytest.mark.parametrize(
    "call, value, what",
    [
        (lambda v: gs.random_pure_state(v, gs.make_rng(0)), 5**5 + 1, "state 'dim' = 3126 outside [1, 3125]"),
        (gs.pure_density, np.zeros(5**5 + 1, dtype=complex), "state 'dim' = 3126 outside [1, 3125]"),
        (gs.basis_state, gs.FunctionMap((0,) * 6), "basis state's 'd' = 6 outside [1, 5]"),
    ],
    ids=["random_pure_state", "pure_density", "basis_state"],
)
def test_a_state_past_the_state_cap_is_rejected_before_allocating(call, value, what):
    # each returned an over-cap state: 3126 amplitudes, a 3126 x 3126 density, 6**6 amplitudes
    tracemalloc.start()
    try:
        with pytest.raises(DimensionTooLargeError) as info:
            call(value)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < ADMISSION_BYTES, peak
    assert str(info.value) == what


DENSITY = gs.pure_density(np.full(4, 0.5, dtype=complex))


@pytest.mark.parametrize(
    "call, admissions",
    [
        (lambda: gs.apply_dual(np.ones(4), 2, "local"), 1),
        (lambda: gs.dual_state(DENSITY, "global"), 1),
        (lambda: gs.dual_probabilities(DENSITY, "local"), 1),
        (lambda: gs.uncertainty_deficits(DENSITY), 1),
        # the search or sweep once, and its evaluator once
        (lambda: gs.estimate_eta(2, "global_component", 5), 2),
        (lambda: gs.deficit_sweep(2, "local_total", 5), 2),
    ],
    ids=["apply_dual", "dual_state", "dual_probabilities", "uncertainty_deficits", "estimate_eta", "deficit_sweep"],
)
def test_the_transform_admissions_of_one_call_are_pinned(monkeypatch, call, admissions):
    real, admitted = quantum.admit_transform, []

    def counted(d, mode):
        admitted.append((d, mode))
        return real(d, mode)

    for module in (quantum, eta):
        monkeypatch.setattr(module, "admit_transform", counted)
    call()
    assert len(admitted) == admissions, admitted


def _canonical(result):
    """A comparable form of a result that tells dtypes and shapes apart."""
    if isinstance(result, np.ndarray):
        return ("array", result.dtype.str, result.shape, result.tobytes())
    if dataclasses.is_dataclass(result):
        return (type(result).__name__,) + tuple(
            _canonical(getattr(result, f.name)) for f in dataclasses.fields(result)
        )
    if isinstance(result, (list, tuple)):
        return tuple(map(_canonical, result))
    if isinstance(result, np.generic):
        result = result.item()
    return (type(result).__name__, result)


@pytest.mark.parametrize("slot", SLOTS, ids=repr)
def test_a_numpy_integer_gives_the_result_of_the_equal_int(slot):
    for value in slot.valid:
        want = _canonical(slot.call(value))
        for kind in _NUMPY_INTEGERS + (_Tripwire,):
            numpy_value = _maybe_numpy(value, kind)
            assert _canonical(slot.call(numpy_value)) == want, (value, kind)


@pytest.mark.parametrize("kind", [np.int16, np.uint64])
def test_a_numpy_d_decodes_as_its_int(kind):
    # int16: 6**5 overflows the dtype; uint64: numpy 1.x makes its digits floats
    assert gs.FunctionMap.from_code(46655, kind(6)).images == (5,) * 6
    assert np.array_equal(gs.function_table(kind(6)), gs.function_table(6))


@pytest.mark.parametrize("value", [0, 3, np.int64(3), np.uint8(3), 2**80])
def test_admit_int_returns_a_python_int(value):
    admitted = admit_int(value, "count", 0)
    assert type(admitted) is int and admitted == value


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: admit_int(1.0, "count", 1), ValidationError, "count must be an integer >= 1, got 1.0"),
        (lambda: admit_int(0, "count", 1), ValidationError, "count must be an integer >= 1, got 0"),
        (lambda: admit_int(np.bool_(True), "size", 1, 9), ValidationError,
         "size must be an integer in [1, 9], got "),
        (lambda: admit_int(0, "size", 1, 9), ValidationError, "size = 0 outside [1, 9]"),
        (lambda: admit_int(10, "size", 1, 9), DimensionTooLargeError, "size = 10 outside [1, 9]"),
        (lambda: admit_int("x" * 99, "n", None), ValidationError, "n must be an integer, got 'xxxxxxxxxxxx"),
        (lambda: admit_index(-1, "level", 3), IndexOutOfRangeError, "level = -1 outside [0, 3)"),
        (lambda: admit_index(3, "level", 3), IndexOutOfRangeError, "level = 3 outside [0, 3)"),
        (lambda: admit_index(0.0, "level", 3), ValidationError, "level must be an integer, got 0.0"),
        (lambda: admit_int(10, "size", None, 9), DimensionTooLargeError, "size = 10 outside [None, 9]"),
        (lambda: admit_int(-10**5000, "seed", 0), ValidationError,
         "seed must be an integer >= 0, got -<16610-bit integer>"),
        (lambda: admit_int(10**5000, "size", 1, 9), DimensionTooLargeError, "size = <16610-bit integer> outside"),
        (lambda: admit_index(10**5000, "level", 3), IndexOutOfRangeError, "level = <16610-bit integer> outside [0, 3)"),
        (lambda: admit_int(-(2**4096) + 1, "seed", 0), ValidationError, "seed must be an integer >= 0, got -10443888814131525..."),
    ],
)
def test_admission_messages(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value).startswith(message)
    assert len(str(info.value)) < 120


# ---------------------------------------------------------------------------
# Array arguments: errors.admit_array
# ---------------------------------------------------------------------------

P = np.array([0.5, 0.5])
Q = np.array([[0.5, 0.5], [0.25, 0.75]])
T = np.full(4, 0.25)


@dataclasses.dataclass(frozen=True)
class ArraySlot:
    """One array argument of one public function.

    `call` puts a value in the argument's place and `what` names it in the
    error; `dtype` and `ndim` are what the rule admits there.
    """

    name: str
    call: object
    what: str
    dtype: type
    ndim: tuple

    def __repr__(self):
        return self.name


ARRAY_SLOTS = [
    ArraySlot("validate_prob_vector.raw", gs.validate_prob_vector, "probability vector", float, (1,)),
    ArraySlot("ordering_permutation.x", gs.ordering_permutation, "probability vector", float, (1,)),
    ArraySlot("lorenz_values.x", gs.lorenz_values, "probability vector", float, (1,)),
    ArraySlot("gini_index.x", gs.gini_index, "probability vector", float, (1, 2, 3)),
    ArraySlot("gini_mean_abs_diff.x", gs.gini_mean_abs_diff, "probability vector", float, (1,)),
    ArraySlot("majorizes.x", lambda v: gs.majorizes(v, P), "'x'", float, (1,)),
    ArraySlot("majorizes.y", lambda v: gs.majorizes(P, v), "'y'", float, (1,)),
    ArraySlot("average_bounds.x", gs.average_bounds, "probability vector", float, (1,)),
    ArraySlot("validate_row_markov.matrix", gs.validate_row_markov, "row Markov matrix", float, (2,)),
    ArraySlot("validate_markov_tensor.tensor", gs.validate_markov_tensor, "Markov tensor", float, (1,)),
    ArraySlot("push_forward.x", lambda v: gs.push_forward(v, Q), "probability vector", float, (1,)),
    ArraySlot("push_forward.q", lambda v: gs.push_forward(P, v), "row Markov matrix", float, (2,)),
    ArraySlot("scalar_product.q", lambda v: gs.scalar_product(v, Q), "'q'", float, (2,)),
    ArraySlot("scalar_product.p", lambda v: gs.scalar_product(Q, v), "'p'", float, (2,)),
    ArraySlot("product_probabilities.q", gs.product_probabilities, "row Markov matrix", float, (2,)),
    ArraySlot("tensor_to_matrix.t", gs.tensor_to_matrix, "Markov tensor", float, (1, 2)),
    ArraySlot("correlation_coefficients.t", gs.correlation_coefficients, "Markov tensor", float, (1,)),
    ArraySlot("scalar_product_via_tensors.tq", lambda v: gs.scalar_product_via_tensors(v, T), "'tq'", float, (1,)),
    ArraySlot("scalar_product_via_tensors.tp", lambda v: gs.scalar_product_via_tensors(T, v), "'tp'", float, (1,)),
    ArraySlot("local_gini_vector.q", gs.local_gini_vector, "row Markov matrix", float, (2,)),
    ArraySlot("total_gini.t", gs.total_gini, "Markov tensor", float, (1,)),
    ArraySlot("EnsembleSpec.matrix", lambda v: gs.EnsembleSpec(kind="independent", matrix=v),
              "row Markov matrix", float, (2,)),
    ArraySlot("EnsembleSpec.tensor", lambda v: gs.EnsembleSpec(kind="correlated", tensor=v),
              "Markov tensor", float, (1,)),
    ArraySlot("EnsembleSpec.independent.matrix", gs.EnsembleSpec.independent, "row Markov matrix", float, (2,)),
    ArraySlot("EnsembleSpec.correlated.tensor", gs.EnsembleSpec.correlated, "Markov tensor", float, (1,)),
    ArraySlot("apply_dual.x", lambda v: gs.apply_dual(v, 2, "single"), "'x'", complex, (1, 2)),
    ArraySlot("pure_density.psi", gs.pure_density, "amplitude vector", complex, (1,)),
    ArraySlot("validate_density_matrix.rho", gs.validate_density_matrix, "density matrix", complex, (2,)),
    ArraySlot("state_stats.rho", gs.state_stats, "density matrix", complex, (2,)),
    ArraySlot("tensor_stats.tensor", gs.tensor_stats, "Markov tensor", float, (1,)),
    ArraySlot("diagonal_probabilities.rho", gs.diagonal_probabilities, "density matrix", complex, (2,)),
    ArraySlot("dual_probabilities.rho", lambda v: gs.dual_probabilities(v, "global"), "density matrix",
              complex, (2,)),
    ArraySlot("dual_state.rho", lambda v: gs.dual_state(v, "local"), "density matrix", complex, (2,)),
    ArraySlot("uncertainty_deficits.rho", gs.uncertainty_deficits, "density matrix", complex, (2,)),
]
ARRAY_SLOT = {slot.name: slot for slot in ARRAY_SLOTS}

# the parameter names of the public API that take an array
_ARRAY_PARAMETERS = {"x", "y", "q", "p", "t", "tq", "tp", "raw", "matrix", "tensor", "rho", "psi"}


def _public_signatures():
    """(name, parameters) of every public callable of ginisafe and of the public classmethods of its classes."""
    results = (gs.EtaEstimate, gs.McEstimate, gs.StateStats, gs.UncertaintyDeficits)  # returned values
    for name in dir(gs):
        obj = getattr(gs, name)
        if name.startswith("_") or not callable(obj) or obj in results:
            continue
        try:
            yield name, inspect.signature(obj).parameters
        except ValueError:
            continue
        for method, member in vars(obj).items() if inspect.isclass(obj) else ():
            if not method.startswith("_") and isinstance(member, classmethod):
                yield f"{name}.{method}", inspect.signature(getattr(obj, method)).parameters


def test_every_array_argument_of_the_public_api_has_a_slot():
    wanted = {f"{name}.{p}" for name, params in _public_signatures() for p in params if p in _ARRAY_PARAMETERS}
    covered = {s.name for s in ARRAY_SLOTS}
    assert wanted - covered == set()
    assert "EnsembleSpec.independent.matrix" in wanted  # the classmethods are searched too


_SMALL_FLOATS = st.floats(0, 1)
_RAGGED = st.one_of(
    st.sampled_from([[1, [0]], [[1], [1, 2]], [[1, [0]], [0, 0]], [[[1, 0]], [[1]]]]),
    st.tuples(st.lists(_SMALL_FLOATS, min_size=1, max_size=3), st.lists(_SMALL_FLOATS, min_size=1, max_size=3))
    .filter(lambda rows: len(rows[0]) != len(rows[1]))
    .map(list),
    st.lists(_SMALL_FLOATS, min_size=1, max_size=3).map(lambda row: [row, row[0]]),
)
_HUGE = st.integers(2**1024, 2**1100) | st.integers(-(2**1100), -(2**1024))


def _arrays(ndims, dtype=float, empty=False):
    """Arrays of one of `ndims` dimensions, of sides 1 to 3, or with one side 0 when `empty`."""
    def build(ndim, sides, zero_at, value):
        shape = list(sides[:ndim])
        if empty:
            shape[zero_at % ndim] = 0
        return np.full(shape, value, dtype=dtype)

    value = st.just(0.5 + 0.5j) if dtype is complex else st.just(0.25)
    sides = st.lists(st.integers(1, 3), min_size=4, max_size=4)
    return st.builds(build, st.sampled_from(ndims), sides, st.integers(0, 3), value)


def _numpy_scalars(array):
    """An object array holding the entries of `array` as numpy scalars, which ``tolist()`` would make Python's."""
    held = np.empty(array.shape, dtype=object)
    for index, entry in np.ndenumerate(array):
        held[index] = entry
    return held


def _bad_arrays(slot: ArraySlot):
    """Values the slot must reject: no array of numbers, an empty or wrong-ndim array, or a complex real."""
    wrong = tuple(n for n in range(5) if n not in slot.ndim)
    bad = [
        _RAGGED,
        st.text(max_size=4),
        st.none(),
        st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
        _HUGE,
        _HUGE.map(lambda h: [h, 0]),
        st.sampled_from([np.array(0.5), np.float64(0.5), np.complex128(1j), 0.5, 1]),
        _arrays(slot.ndim, empty=True),
        st.sampled_from([[], [[]], (), np.zeros((0, 0))]),
        _arrays(wrong),
        # numeric strings, which numpy would parse as the numbers they spell
        _arrays(slot.ndim).map(lambda a: a.astype(str)),
        _arrays(slot.ndim).map(lambda a: a.astype(str).tolist()),
    ]
    if slot.dtype is float:
        bad += [_arrays(slot.ndim, complex), _arrays(slot.ndim, complex).map(lambda a: a.tolist()),
                _arrays(slot.ndim, complex).map(_numpy_scalars)]
    return st.one_of(*bad)


BAD_ARRAY_CASES = st.sampled_from(ARRAY_SLOTS).flatmap(lambda s: st.tuples(st.just(s), _bad_arrays(s)))


@settings(max_examples=600, deadline=None)
@given(case=BAD_ARRAY_CASES)
# numpy's bare ValueError before the rule
@example(case=(ARRAY_SLOT["state_stats.rho"], [[1, [0]], [0, 0]]))
@example(case=(ARRAY_SLOT["apply_dual.x"], [1, [0]]))
@example(case=(ARRAY_SLOT["gini_index.x"], [[1], [1, 2]]))
@example(case=(ARRAY_SLOT["lorenz_values.x"], "ab"))
@example(case=(ARRAY_SLOT["product_probabilities.q"], [["a"]]))
@example(case=(ARRAY_SLOT["validate_density_matrix.rho"], [[1, [0]], [0, 0]]))
# silently wrong answers: an empty vector, a matrix read as a vector, a dropped imaginary part
@example(case=(ARRAY_SLOT["gini_index.x"], []))
@example(case=(ARRAY_SLOT["gini_mean_abs_diff.x"], []))
@example(case=(ARRAY_SLOT["average_bounds.x"], np.eye(2)))
@example(case=(ARRAY_SLOT["validate_prob_vector.raw"], np.array([0.5 + 0.3j, 0.5])))
@example(case=(ARRAY_SLOT["scalar_product.q"], np.eye(2) * (1 + 1j)))
@example(case=(ARRAY_SLOT["gini_index.x"], [np.complex128(1j), 1.0]))
# numpy complex scalars in an object array: cut to their real parts with only a ComplexWarning
@example(case=(ARRAY_SLOT["gini_index.x"], np.array([np.complex128(1j), 0.5], dtype=object)))
@example(case=(ARRAY_SLOT["validate_prob_vector.raw"], np.array([np.complex128(0.5 + 0.3j), 0.5], dtype=object)))
@example(case=(ARRAY_SLOT["gini_index.x"], [np.complex128(1j), "0.5"]))  # a string makes numpy find str, not complex
# a numeric string read as the number it spells
@example(case=(ARRAY_SLOT["gini_index.x"], ["0.5", "0.5"]))
@example(case=(ARRAY_SLOT["validate_row_markov.matrix"], [["1"]]))
def test_a_bad_array_argument_is_rejected_by_name_before_allocating(case):
    slot, value = case
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError) as info:
            slot.call(value)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < ADMISSION_BYTES, (slot, value, peak)
    assert str(info.value).startswith(f"{slot.what} must be "), (slot, value, str(info.value))


@pytest.mark.parametrize(
    "call, message",
    [
        # a non-square matrix ended in a reshape error; a flat tensor in an AttributeError
        (lambda: gs.state_stats(np.eye(4)[:, :3]), "density matrix must be square, got shape (4, 3)"),
        (lambda: gs.validate_row_markov(np.ones((2, 3)) / 3), "row Markov matrix must be square"),
        (lambda: gs.EnsembleSpec(kind="independent", matrix=[[2.0, -1.0], [0.0, 1.0]]), "row 0: entry 1 = -1"),
        (lambda: admit_array(np.eye(2), "'a'", float, (1, 3)),
         "'a' must be a non-empty 1-D or 3-D array of real numbers, got a float64 array of shape (2, 2)"),
        (lambda: admit_array([1j], "'a'", float, 1), "'a' must be a non-empty 1-D array of real numbers, got [1j]"),
        (lambda: admit_array(None, "'a'", complex, 2), "'a' must be a non-empty 2-D array of complex numbers, got None"),
        (lambda: admit_square(np.ones((1, 2)), "'m'", float), "'m' must be square, got shape (1, 2)"),
    ],
)
def test_array_admission_messages(call, message):
    with pytest.raises(ValidationError) as info:
        call()
    assert str(info.value).startswith(message)


@pytest.mark.parametrize("dtype", [float, complex])
def test_admit_array_returns_an_array_of_its_dtype_untouched(dtype):
    array = np.linspace(0, 1, 6, dtype=dtype).reshape(2, 3)
    assert admit_array(array, "a", dtype, 2) is array
    transposed = array.T
    assert admit_array(transposed, "a", dtype, 2) is transposed  # nor is a view copied
    swapped = array.astype(array.dtype.newbyteorder())
    for value in (swapped, array.tolist(), array.astype(np.complex64 if dtype is complex else np.float32)):
        admitted = admit_array(value, "a", dtype, 2)
        want = np.asarray(value, dtype=dtype)
        assert admitted.dtype == want.dtype and admitted.tobytes() == want.tobytes()


_NUMBERS = st.one_of(
    st.floats(allow_nan=False),
    st.integers(-(2**70), 2**70),
    st.booleans(),
    st.floats(width=32, allow_nan=False).map(np.float32),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.integers(0, 2**64 - 1).map(np.uint64),
    st.integers(-128, 127).map(np.int8),
)
_ROWS = st.integers(1, 4).flatmap(lambda n: st.lists(st.lists(_NUMBERS, min_size=n, max_size=n), min_size=1, max_size=3))


def test_an_object_array_of_real_numbers_converts_as_asarray_does():
    value = np.array([np.float64(0.25), 0.5, np.int64(3), np.float32(0.1), True], dtype=object)
    want = np.asarray(value, dtype=float)
    got = admit_array(value, "v", float, 1)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert admit_array(_numpy_scalars(np.array([0.5 + 1j])), "v", complex, 1).tobytes() == np.array([0.5 + 1j]).tobytes()
    with pytest.raises(ValidationError):  # a string among them is no number, though numpy would parse it
        admit_array(np.array([0.25, "0.5"], dtype=object), "v", float, 1)


@settings(max_examples=300, deadline=None)
@given(value=st.one_of(st.lists(_NUMBERS, min_size=1, max_size=6), _ROWS), dtype=st.sampled_from([float, complex]))
def test_the_rule_converts_as_asarray_does(value, dtype):
    # numpy's dtype is found first and then cast, which must give asarray's bits
    want = np.asarray(value, dtype=dtype)
    got = admit_array(value, "v", dtype, want.ndim)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# Amplitude vectors: the second form of every state argument
# ---------------------------------------------------------------------------

# Every state function with a 1-D complex ndarray, a ket, in its state's place.
KET_SLOTS = {
    "state_stats.rho": gs.state_stats,
    "diagonal_probabilities.rho": gs.diagonal_probabilities,
    "dual_probabilities.rho": lambda v: gs.dual_probabilities(v, "local"),
    "dual_state.rho": lambda v: gs.dual_state(v, "global"),
    "uncertainty_deficits.rho": gs.uncertainty_deficits,
}

# a plain diagonal has no cap: diagonal_probabilities prices any ket
_PAST_THE_CAP = {**dict.fromkeys(KET_SLOTS, "state 'dim' = 3126 outside [1, 3125]"), "diagonal_probabilities.rho": None}

# A bad ket by name, with the error each slot gives it; None leaves that slot out.
BAD_KETS = {
    "empty": (np.zeros(0, dtype=complex),
              dict.fromkeys(KET_SLOTS, "amplitude vector must be a non-empty 1-D array of complex numbers, "
                                       "got a complex128 array of shape (0,)")),
    # its |psi><psi| would be 156 MB
    "past the cap": (np.zeros(5**5 + 1, dtype=complex), _PAST_THE_CAP),
    # a 7-dimensional ket is a state of one qudit, but of no d**d space
    "not d**d": (np.full(7, 7**-0.5, dtype=complex),
                 {**dict.fromkeys(KET_SLOTS, "array of length 7 is not d**d for any d"),
                  "diagonal_probabilities.rho": None}),
    # only a complex vector is a ket: a real one is a density matrix of the wrong ndim
    "real": (np.full(4, 0.5), dict.fromkeys(KET_SLOTS, "density matrix must be a non-empty 2-D array of complex "
                                                        "numbers, got a float64 array of shape (4,)")),
}


BAD_KET_CASES = [(slot, ket) for ket in sorted(BAD_KETS) for slot in sorted(KET_SLOTS) if BAD_KETS[ket][1][slot]]


@pytest.mark.parametrize("slot, ket", BAD_KET_CASES, ids=[f"{slot}-{ket}" for slot, ket in BAD_KET_CASES])
def test_a_bad_ket_is_rejected_by_name_before_allocating(slot, ket):
    value, messages = BAD_KETS[ket]
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError) as info:
            KET_SLOTS[slot](value)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < ADMISSION_BYTES, peak
    assert str(info.value) == messages[slot]
    if ket == "past the cap":
        assert type(info.value) is DimensionTooLargeError


@pytest.mark.parametrize("slot", sorted(KET_SLOTS))
def test_a_ket_is_admitted_once_as_an_amplitude_vector(monkeypatch, slot):
    calls = []

    def counting(rule):
        def admit(*args):
            calls.append(args[1])
            return rule(*args)

        return admit

    monkeypatch.setattr(quantum, "admit_array", counting(admit_array))
    monkeypatch.setattr(quantum, "admit_square", counting(admit_square))
    KET_SLOTS[slot](np.full(4, 0.5, dtype=complex))
    assert calls.count("amplitude vector") == 1 and "density matrix" not in calls, calls


# ---------------------------------------------------------------------------
# Tolerances
# ---------------------------------------------------------------------------

# Every tolerance argument of the library, with data that no tolerance below 1 admits:
# each call raised nothing, or a RuntimeWarning from a division by 0, before the rule.
TOLERANCE_SLOTS = {
    "validate_prob_vector": lambda tol: gs.validate_prob_vector([5, -7], tol),
    "validate_row_markov": lambda tol: gs.validate_row_markov([[0, 0], [0.5, 0.5]], tol),
    "validate_markov_tensor": lambda tol: gs.validate_markov_tensor([0.0] * 4, tol),
    "EnsembleSpec": lambda tol: gs.EnsembleSpec("independent", matrix=[[0, 0], [0.5, 0.5]], tol=tol),
    "scalar_product_via_tensors": lambda tol: gs.scalar_product_via_tensors([0.25] * 4, [0.25] * 4, tol=tol),
}


@pytest.mark.parametrize("tol", [np.nan, np.inf, -np.inf, -1e-9, 1, 1.0, 2.5, 1e308, True, "1e-9", None, 0.5j],
                         ids=repr)
@pytest.mark.parametrize("slot", sorted(TOLERANCE_SLOTS))
def test_a_tolerance_outside_0_to_1_is_rejected(slot, tol):
    with pytest.raises(ValidationError, match=r"^'tol' must be a finite number >= 0 and < 1, got "):
        TOLERANCE_SLOTS[slot](tol)


@pytest.mark.parametrize("tol", [0, 0.0, -0.0, 1e-9, np.float64(0.5), np.float32(0.5), 0.999])
def test_a_tolerance_in_0_to_1_is_admitted_as_its_float(tol):
    assert type(admit_tol(tol)) is float and admit_tol(tol) == tol
    assert not np.signbit(admit_tol(tol))  # -0.0 admits as 0.0
    assert gs.validate_prob_vector([0.25, 0.75], tol).tolist() == [0.25, 0.75]
