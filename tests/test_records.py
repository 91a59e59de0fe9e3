"""Result records that hold arrays compare and hash by identity; records of plain values by value."""

import numpy as np

import ginisafe as gs
from ginisafe import eta, quantum

Q = [[0.5, 0.5, 0], [0, 0.5, 0.5], [0, 0.5, 0.5]]
RHO = np.eye(4, dtype=complex) / 4

ARRAY_RECORDS = {
    "EnsembleSpec.independent": lambda: gs.EnsembleSpec.independent(Q),
    "EnsembleSpec.correlated": lambda: gs.EnsembleSpec.correlated([0.1, 0.2, 0.3, 0.4]),
    "StateStats": lambda: quantum.state_stats(RHO),
    "UncertaintyDeficits": lambda: quantum.uncertainty_deficits(RHO),
    "EtaEstimate": lambda: eta.estimate_eta(2, "single", budget=20, seed=0),
}


def test_array_records_compare_by_identity_and_plain_records_by_value():
    for name, build in ARRAY_RECORDS.items():
        a, b = build(), build()
        assert a == a and a != b and not a == b, name
        assert hash(a) == object.__hash__(a) and hash(b) == object.__hash__(b), name
        keyed = {a: "a", b: "b"}
        assert (len(keyed), keyed[a], keyed[b]) == (2, "a", "b"), name
    spec = gs.EnsembleSpec.independent(Q)
    estimates = [gs.collision_probability_mc(spec, spec, 1000, gs.make_rng(0)) for _ in range(2)]
    maps = [gs.FunctionMap((1, 2, 0)) for _ in range(2)]
    for a, b in (estimates, maps):
        assert a is not b and a == b and hash(a) == hash(b)
