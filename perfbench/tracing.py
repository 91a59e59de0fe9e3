"""In-memory span tracer wrapped around the public functions of ginisafe.

Every public function of the six layer modules is replaced by a wrapper that
records one span (name, start, end, parent span, session id).  The wrapper is
rebound under every name that refers to the original in any loaded
``ginisafe`` module, because ``from .markov import product_probabilities``
copies the function into the importing namespace and a call through that copy
would otherwise go untraced.  Spans are kept in flat arrays and written out
once, after the last session.
"""

from __future__ import annotations

import array
import functools
import inspect
import sys
import time

import numpy as np

LAYERS = ("cli", "quantum", "eta", "markov", "ensembles", "probvec")

#: Builders of dense Fourier matrices; a build is the outermost such span.
TRANSFORMS = (
    "quantum.dft_unitary",
    "quantum.fourier_single",
    "quantum.local_fourier",
    "quantum.global_fourier",
)

#: Functions whose count of calls per session is reported.
COUNTED = (
    "cli.main",
    "quantum.dual_state",
    "quantum.state_stats",
    "quantum.reduced_density",
    "eta.gini_sum",
    "markov.product_probabilities",
    "markov.tensor_to_matrix",
    "probvec.validate_prob_vector",
    "probvec.gini_index",
)

#: Functions whose inclusive time per session is reported as ``<name>.ms``.
TIMED = (
    "quantum.dual_state",
    "quantum.reduced_density",
    "quantum.uncertainty_deficits",
    "quantum.validate_density_matrix",
    "eta.estimate_eta",
    "eta.gini_sum",
    "eta.deficit_sweep",
    "markov.product_probabilities",
    "markov.tensor_to_matrix",
    "markov.correlation_coefficients",
    "markov.validate_row_markov",
    "markov.validate_markov_tensor",
    "markov.local_gini_vector",
    "ensembles.sample_codes",
    "ensembles.collision_probability_mc",
    "ensembles.empirical_tensor",
    "probvec.validate_prob_vector",
    "probvec.gini_index",
    "probvec.lorenz_values",
)


def _public_functions(module):
    for name, obj in vars(module).items():
        if name.startswith("_") or inspect.isclass(obj) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) == module.__name__:
            yield name, obj


class Tracer:
    """Records spans of the traced functions while installed."""

    def __init__(self):
        self.names: list[str] = []
        self.name_col = array.array("i")
        self.parent_col = array.array("q")
        self.session_col = array.array("i")
        self.start_col = array.array("q")
        self.end_col = array.array("q")
        self.session = -1
        self._stack: list[int] = []
        self._wrappers: dict[int, tuple[object, object]] = {}
        self._rebound: list[tuple[object, str, object]] = []

    def _wrap(self, qualname: str, fn):
        name_id = len(self.names)
        self.names.append(qualname)
        clock = time.perf_counter_ns
        stack = self._stack
        name_col, parent_col, session_col = self.name_col, self.parent_col, self.session_col
        start_col, end_col = self.start_col, self.end_col

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(start_col)
            name_col.append(name_id)
            parent_col.append(stack[-1] if stack else -1)
            session_col.append(self.session)
            end_col.append(0)
            stack.append(index)
            start_col.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end_col[index] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Rebind every reference to a public layer function to its wrapper."""
        wrappers = self._wrappers
        if not wrappers:
            for layer in LAYERS:
                module = sys.modules[f"ginisafe.{layer}"]
                for name, fn in _public_functions(module):
                    wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        package = [m for n, m in sys.modules.items() if n == "ginisafe" or n.startswith("ginisafe.")]
        for module in package:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._rebound.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)][1])

    def uninstall(self) -> None:
        for module, attr, original in self._rebound:
            setattr(module, attr, original)
        self._rebound.clear()

    def columns(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name_col, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent_col, dtype=np.int64).copy(),
            "session": np.frombuffer(self.session_col, dtype=np.int32).copy(),
            "start_ns": np.frombuffer(self.start_col, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end_col, dtype=np.int64).copy(),
        }

    def write(self, path) -> None:
        """Save the spans as numpy arrays: ``names`` plus one array per column."""
        np.savez_compressed(path, names=np.array(self.names), **self.columns())

    def layer_metrics(self, work: dict[str, int]) -> dict[str, float]:
        """Medians over traced sessions of the per-session layer metrics.

        Spans recorded while ``session`` was negative are left out.  ``work``
        gives the items processed per session by the throughput metrics:
        ``samples`` drawn by the Monte Carlo verbs and ``sweep_states`` in the
        deficit sweep.
        """
        cols = self.columns()
        n_names = len(self.names)
        ids = {name: i for i, name in enumerate(self.names)}
        name, parent, session = cols["name"], cols["parent"], cols["session"]
        dur = (cols["end_ns"] - cols["start_ns"]) / 1e6
        has_parent = parent >= 0
        child_ms = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=name.size)
        self_ms = dur - child_ms
        parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)
        keep = session >= 0
        rows = int(session.max(initial=-1)) + 1

        def per_session(mask, weights=None):
            m = mask & keep
            w = None if weights is None else weights[m]
            return np.bincount(session[m], weights=w, minlength=rows)

        def by_name(weights):
            flat = session[keep] * n_names + name[keep]
            w = None if weights is None else weights[keep]
            return np.bincount(flat, weights=w, minlength=rows * n_names).reshape(rows, n_names)

        calls, total, own = by_name(None), by_name(dur), by_name(self_ms)

        def col(table, qualname):
            return table[:, ids[qualname]] if qualname in ids else np.zeros(rows)

        is_transform = np.isin(name, [ids[t] for t in TRANSFORMS if t in ids])
        parent_transform = np.isin(parent_name, [ids[t] for t in TRANSFORMS if t in ids])
        build = is_transform & ~parent_transform
        eta_id, sum_id = ids.get("eta.estimate_eta", -2), ids.get("eta.gini_sum", -2)
        evaluation = (name == sum_id) & (parent_name == eta_id)

        per = {}
        cli_names = [i for i, n in enumerate(self.names) if n.startswith("cli.")]
        per["cli.main.self_ms"] = own[:, cli_names].sum(axis=1)
        for qualname in COUNTED:
            per[f"{qualname}.calls"] = col(calls, qualname)
        for qualname in TIMED:
            per[f"{qualname}.ms"] = col(total, qualname)
        per["quantum.state_stats.self_ms"] = col(own, "quantum.state_stats")
        per["quantum.transform_builds"] = per_session(build)
        per["quantum.transform_build_ms"] = per_session(build, dur)
        per["eta.evaluations"] = per_session(evaluation)
        eval_ms = per_session(evaluation, dur)
        per["eta.optimizer_self_ms"] = per["eta.estimate_eta.ms"] - eval_ms
        for layer in LAYERS[1:]:
            members = [i for i, n in enumerate(self.names) if n.startswith(layer + ".")]
            per[f"{layer}.self_ms"] = own[:, members].sum(axis=1)

        per["eta.us_per_eval"] = _rate(1e3 * per["eta.estimate_eta.ms"], per["eta.evaluations"])
        per["eta.sweep_states_per_s"] = _rate(1e3 * work.get("sweep_states", 0), per["eta.deficit_sweep.ms"])
        per["ensembles.samples_per_s"] = _rate(1e3 * work.get("samples", 0), per["ensembles.sample_codes.ms"])
        return {key: float(np.median(values)) for key, values in per.items()}


def _rate(amount, per_item) -> np.ndarray:
    """amount / per_item elementwise, 0 where the layer did no work."""
    amount = np.broadcast_to(np.asarray(amount, dtype=float), per_item.shape)
    out = np.zeros(per_item.shape)
    np.divide(amount, per_item, out=out, where=per_item > 0)
    return out
