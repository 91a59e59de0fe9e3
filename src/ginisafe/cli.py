"""Command-line front end: JSON in, JSON or CSV out, one verb per concept.

Every output opens with the verb and the seed, and identical argv produce
byte-identical output.  Exit codes: 0 success, 1 validation error, 2 usage error.

Every payload text is bytes from the boundary on: an inline flag's text is
its UTF-8 with lone surrogates kept, which orjson rejects as it would in a
str, and an --input file is taken as read, with CR and CRLF made LF.

`report` runs the worked examples of `reference.REPORTS`, each with its
parameters and checks; `cmd_report` reads their flags and writes the envelope.

`main` can run many verbs in one process.  The objects that `_read` last
admitted are kept, read-only, so a verb that reads the same payload bytes
under the same admission option as the verb before it decodes and validates
nothing.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import gc
import itertools
import math
import os
import re
import struct
import sys
import tempfile

import numpy as np
import orjson
from orjson import loads as _orjson_decode

from . import ensembles, eta, markov, probvec, quantum, reference
from .errors import ECHO as _ECHO
from .errors import GiniSafeError, ValidationError, admit_index, admit_int, admit_tol


class _UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# Payload parsing
# ---------------------------------------------------------------------------

# orjson builds nested values recursively on the C stack and, unlike json,
# has no depth limit: 200,000 nested lists or 60,000 nested objects overflow
# an 8 MB stack and kill the process.  No payload needs more than 5 levels.
MAX_JSON_DEPTH = 512
_NOT_STRUCTURE = bytes(sorted(set(range(256)) - set(b'"[]{}')))
_ESCAPE = re.compile(rb"\\.", re.DOTALL)


def _nests_too_deep(data: bytes) -> bool:
    """True if the brackets of `data` nest deeper than MAX_JSON_DEPTH outside strings (exact for valid JSON)."""
    if len(data) <= 2 * MAX_JSON_DEPTH:  # every level takes an opening and a closing bracket
        return False
    unescaped = _ESCAPE.sub(b"", data) if b"\\" in data else data  # every quote opens or closes a string
    brackets = b"".join(unescaped.translate(None, _NOT_STRUCTURE).split(b'"')[::2])
    steps = (np.frombuffer(brackets, np.uint8) & 2).astype(np.intp) - 1  # [ { -> +1, ] } -> -1
    # a text of at most 2 * MAX_JSON_DEPTH characters this deep is invalid: the decoder names its fault
    too_deep = steps.cumsum().max(initial=0) > MAX_JSON_DEPTH
    return too_deep and len(str(data, "utf-8", "surrogatepass")) > 2 * MAX_JSON_DEPTH


def _parse_json(data: bytes):
    """Decode payload text `data` with orjson.

    The grammar is RFC 8259: the literals NaN, Infinity and -Infinity, numbers
    that overflow a double and lone surrogates are rejected, and integers
    outside [-2**63, 2**64 - 1] read as the nearest float.  Nesting deeper
    than MAX_JSON_DEPTH is rejected before decoding.  `main` runs every
    handler with the cyclic collector paused (`_collector_paused`).
    """
    try:
        if _nests_too_deep(data):
            raise ValueError(f"nested deeper than {MAX_JSON_DEPTH} levels")
        return _orjson_decode(data)
    except ValueError as exc:  # the depth check or orjson.JSONDecodeError
        raise ValidationError(f"invalid JSON payload: {exc}") from None


def _read_input(path: str) -> bytes:
    """The --input file's payload text: its bytes, with CR and CRLF made LF as in text mode.

    A non-ASCII file is decoded, and the result dropped, only so that invalid
    UTF-8 fails here with the decoder's message.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        if not data.isascii():
            data.decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise _UsageError(f"cannot read --input file {path!r}: {exc}") from None
    return data.replace(b"\r\n", b"\n").replace(b"\r", b"\n") if b"\r" in data else data


def _field(payload, name: str):
    """The payload itself, or its `name` field when it is an object."""
    if isinstance(payload, dict):
        payload = payload.get(name)
        if payload is None:
            raise ValidationError(f"object payload has no '{name}' field")
    return payload


def _as_tensor(payload):
    if isinstance(payload, dict):
        if "weights" in payload:
            payload = payload["weights"]
        elif "tensor" in payload:
            payload = payload["tensor"]
        elif "terms" in payload and "d" in payload:
            return _sparse_tensor(payload["d"], payload["terms"])
        else:
            raise ValidationError("object payload has no 'weights'/'tensor'/'terms' field")
    return payload


def _json_int(value):
    """The JSON boundary's one allowance before :func:`errors.admit_int`: 256.0 reads as 256."""
    return int(value) if isinstance(value, float) and value.is_integer() else value


def _sparse_tensor(d, terms) -> np.ndarray:
    """Dense weights from ``{"d", "terms": [{"code", "weight"}, ...]}``.

    `d` is checked against the enumeration cap before d**d is formed, and
    every code against [0, d**d) and the earlier codes before anything is
    written, so a bad payload allocates nothing.
    """
    size = markov.code_count(_json_int(d))
    if not isinstance(terms, list):
        raise ValidationError("sparse tensor 'terms' must be a list of {code, weight} objects")
    codes, weights = {}, []
    for i, term in enumerate(terms):
        if not isinstance(term, dict):
            raise ValidationError(f"terms[{i}] must be an object with 'code' and 'weight'")
        for field in ("code", "weight"):
            if field not in term:
                raise ValidationError(f"terms[{i}] has no '{field}' field")
        code = admit_index(_json_int(term["code"]), f"terms[{i}].code", size)
        if code in codes:
            raise ValidationError(f"terms[{i}].code = {code} repeats terms[{codes[code]}].code")
        codes[code] = i
        try:
            if isinstance(term["weight"], str):  # float() would parse a numeric string
                raise TypeError
            weights.append(float(term["weight"]))
        except (TypeError, ValueError):
            raise ValidationError(
                f"terms[{i}].weight must be a number, got {_ECHO.repr(term['weight'])}"
            ) from None
    dense = np.zeros(size)
    dense[list(codes)] = weights
    return dense


def _as_ensemble(payload, tol: float) -> ensembles.EnsembleSpec:
    """The ensemble of an object payload; :class:`ensembles.EnsembleSpec` validates it, at `tol`."""
    if not isinstance(payload, dict) or "kind" not in payload:
        raise ValidationError("ensemble payload must be an object with a 'kind' field")
    kind = payload["kind"]
    if kind == ensembles.INDEPENDENT:
        return ensembles.EnsembleSpec(kind, matrix=_field(payload, "matrix"), tol=tol)
    if kind == ensembles.CORRELATED:
        return ensembles.EnsembleSpec(kind, tensor=_as_tensor(payload), tol=tol)
    return ensembles.EnsembleSpec(kind, tol=tol)  # raises: the kind is unknown


def _complex_pairs(entries, n: int, what: str) -> np.ndarray:
    """`n` complex numbers from a list of `n` [re, im] pairs, converted in one pass.

    Each item must have length two.  The values are packed as C doubles,
    which takes a number and rejects anything else: a numeric string, or what
    a two-character string, a two-key object or a list of lists holds.  A
    number converts as under ``np.asarray(..., dtype=float)``.
    """
    error = ValidationError(f"{what} must be a list of {n} [re, im] pairs of finite numbers")
    try:
        if not isinstance(entries, list) or len(entries) != n or set(map(len, entries)) != {2}:
            raise error
        arr = np.frombuffer(struct.pack(f"{2 * n}d", *itertools.chain.from_iterable(entries)))
    except (TypeError, struct.error, OverflowError):  # unsized items, non-numbers, or ints beyond float
        raise error from None
    if not np.isfinite(arr).all():
        raise error
    return arr[0::2] + 1j * arr[1::2]


def _as_state(payload, repair: bool = False) -> np.ndarray:
    """Parse a density matrix, or a pure state or labelled basis ket into its amplitude vector.

    A ket stays a ket: the statistics price it from its amplitudes, never as
    a dim x dim density (:mod:`ginisafe.quantum`).  The payload names one
    form.  The size (`dim`, or the number of `images`, which a given `d` must
    equal and a given `dim` must make) is checked before any dim x dim array
    is formed.
    """
    if isinstance(payload, dict) and "state" in payload:
        payload = payload["state"]
    if not isinstance(payload, dict):
        raise ValidationError("state payload must be a JSON object")
    forms = [f"'{form}'" for form in ("entries", "amplitudes", "images") if form in payload]
    if len(forms) > 1:
        raise ValidationError(f"state payload names {', '.join(forms[:-1])} and {forms[-1]}; give one")
    if "entries" in payload:
        dim = quantum.check_state_dim(_json_int(payload.get("dim")))
        rho = _complex_pairs(payload["entries"], dim * dim, "density entries").reshape(dim, dim)
        return quantum.validate_density_matrix(rho, repair=repair)
    if "amplitudes" in payload:
        dim = quantum.check_state_dim(_json_int(payload.get("dim")))
        psi = _complex_pairs(payload["amplitudes"], dim, "amplitudes")
        with np.errstate(over="ignore"):  # a norm past the double range is inf, rejected below
            norm = np.linalg.norm(psi)
        if abs(norm - 1.0) > 1e-6:
            raise ValidationError(f"amplitudes have norm {norm:.6g}, not 1")
        return psi / norm
    if "images" in payload:
        images = payload["images"]
        if not isinstance(images, list) or not 1 <= len(images) <= quantum.MAX_COMPONENTS:
            raise ValidationError(
                f"state 'images' must be a list of 1 to {quantum.MAX_COMPONENTS} integers"
            )
        d = admit_int(_json_int(payload.get("d", len(images))), "state 'd'", 1)
        if d != len(images):
            raise ValidationError(f"state 'd' = {d} does not match the {len(images)} 'images'")
        if "dim" in payload and (dim := quantum.check_state_dim(_json_int(payload["dim"]))) != d**d:
            raise ValidationError(f"state 'dim' = {dim} does not match the {d} 'images', a ket of dim {d**d}")
        images = [admit_index(_json_int(v), f"images[{i}]", len(images)) for i, v in enumerate(images)]
        return quantum.basis_state(markov.FunctionMap(tuple(images)))
    raise ValidationError("state payload needs 'entries', 'amplitudes' or 'images'")


# One admission rule per payload kind: the one option it reads, and a
# function of a decoded payload and that option's value that returns the
# object a handler takes.  Each lambda looks its functions up when called, so
# rebinding a module attribute (as a tracer does) holds.
_ADMIT = {
    "vector": ("tol", lambda payload, tol: probvec.validate_prob_vector(_field(payload, "vector"), tol)),
    "matrix": ("tol", lambda payload, tol: markov.validate_row_markov(_field(payload, "matrix"), tol)),
    "tensor": ("tol", lambda payload, tol: markov.validate_markov_tensor(_as_tensor(payload), tol)),
    "ensemble": ("tol", lambda payload, tol: _as_ensemble(payload, tol)),
    "state": ("repair", lambda payload, repair: _as_state(payload, repair=repair)),
}

# The last successful read: its key and the read-only objects it admitted.
_memo = None


def _digest(texts: list[bytes]) -> bytes:
    """The sha256 of the payload texts, each prefixed by its length.

    hashlib is imported here: loading OpenSSL costs a few ms, which a verb
    that reads no payload does not pay.
    """
    import hashlib

    h = hashlib.sha256()
    for data in texts:
        h.update(len(data).to_bytes(8, "little"))
        h.update(data)
    return h.digest()


def _freeze(obj) -> None:
    """Make every array of an admitted object read-only: the object itself, or a dataclass's fields."""
    values = [getattr(obj, f.name) for f in dataclasses.fields(obj)] if dataclasses.is_dataclass(obj) else [obj]
    for value in values:
        if isinstance(value, np.ndarray):
            value.flags.writeable = False


def _read(args, kind: str, count: int) -> tuple:
    """The `count` objects of `kind` from repeated --<kind> flags or from --input, never both.

    Every payload is decoded before the first is admitted by `_ADMIT`.  The
    objects of the last successful read are kept, read-only, under a key: the
    kind, the count, the route (inline or --input), the sha256 of the payload
    texts (their bytes, as the module docstring says) and the option the
    kind's rule reads.  A read with the same key returns them without
    decoding or admitting anything; any other read drops them before it
    decodes, so at most one read's objects are kept.
    """
    global _memo
    raw = getattr(args, kind) or []
    if args.input and raw:
        raise _UsageError(f"--{kind} and --input were both given; pass the payloads one way")
    if args.input:
        texts = [_read_input(args.input)]
    else:  # argparse before Python 3.13 gives --<kind>=-- as [], having dropped the text "--"
        texts = [("--" if text == [] else text).encode("utf-8", "surrogatepass") for text in raw]
    option, admit = _ADMIT[kind]
    value = getattr(args, option)
    key = (kind, count, bool(args.input), _digest(texts), value)
    kept = _memo  # read once: a caller's other thread may rebind it
    if kept is not None and kept[0] == key:
        return kept[1]
    kept = _memo = None  # the kept objects go before this read's payloads are decoded
    if not args.input:
        payloads = [_parse_json(text) for text in texts]
    elif count == 1:
        payloads = [_parse_json(texts.pop())]  # the file's text goes once decoded
    else:
        payloads = _parse_json(texts.pop())
        # every valid payload is a sequence or object, never a bare number
        if (
            not isinstance(payloads, list)
            or len(payloads) != count
            or any(isinstance(v, (int, float)) for v in payloads)
        ):
            raise _UsageError(f"--input file must hold a list of {count} payloads for this command")
    if len(payloads) != count:
        raise _UsageError(f"expected {count} --{kind} payload(s) (or --input), got {len(payloads)}")
    objects = tuple(admit(payload, value) for payload in payloads)
    for obj in objects:
        _freeze(obj)
    _memo = (key, objects)
    return objects


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------

# The types `_plain` converts; `_leaves` yields any other finite leaf as it is.
_NUMPY_VALUES = (np.ndarray, complex, np.complexfloating, np.floating, np.integer, np.bool_)


def _plain(obj):
    """The plain value every writer makes of a numpy array or scalar, or a complex.

    Arrays become nested lists through ``tolist()``, which widens float32 and
    float16; complex values become [re, im] pairs.  Scalars convert through
    float, int and bool, so a longdouble becomes a float too.  A 0-d array
    raises TypeError, as an unknown type does.
    """
    if isinstance(obj, np.ndarray) and obj.ndim:
        if obj.dtype.kind == "c":
            obj = np.stack((obj.real, obj.imag), axis=-1)
        return obj.tolist()
    if isinstance(obj, (complex, np.complexfloating)):
        return [float(obj.real), float(obj.imag)]
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    raise TypeError(f"Object of type {obj.__class__.__name__} is not JSON serializable")


_ORJSON_OPTIONS = orjson.OPT_INDENT_2 | orjson.OPT_PASSTHROUGH_DATACLASS | orjson.OPT_PASSTHROUGH_DATETIME

_SLICE = 1 << 16  # bytes of output decoded for stdout at a time


def _line_slices(data: bytes):
    """`data` as zero-copy slices of at least `_SLICE` bytes, each ending at a line end."""
    view = memoryview(data)
    start = 0
    while start < len(data):
        end = data.find(b"\n", start + _SLICE) + 1 or len(data)
        yield view[start:end]
        start = end


_CSV_QUOTED = re.compile(r'[,"\r\n]')
_find_null = re.compile(rb"null").search  # faster than ``b"null" in data`` on a large output


def _csv_cell(text: str) -> str:
    """An RFC 4180 cell: quoted, with its quotes doubled, if it holds a comma, a quote, CR or LF."""
    if _CSV_QUOTED.search(text) is None:
        return text
    return '"' + text.replace('"', '""') + '"'


def _fmt_csv_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _leaves(obj, key: str = ""):
    """The ``(key, leaf)`` pairs of `obj`: ``.name`` steps into a dict, ``[i]`` into a list or tuple.

    An array, a numpy scalar or a complex is first made plain by `_plain`.  A
    NaN or an infinity is rejected by its key when the walk reaches it.
    """
    if isinstance(obj, _NUMPY_VALUES):
        obj = _plain(obj)
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _leaves(v, f"{key}.{k}" if key else str(k))
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            yield from _leaves(v, f"{key}[{i}]")
    elif isinstance(obj, float) and not math.isfinite(obj):
        raise ValidationError(f"output field {key} is not a finite number")
    else:
        yield key, obj


def _csv_rows(obj):
    """The ``key,value`` row of each leaf of `obj`."""
    return (f"{_csv_cell(key)},{_csv_cell(_fmt_csv_value(v))}" for key, v in _leaves(obj))


def _write_out(path: str, data: bytes) -> None:
    """Write `data` and a final newline to the --out `path`, so that a failed write leaves the old file.

    A new file is made as ``open`` makes it and removed if the write fails.
    An existing regular file is replaced by a whole temporary file where
    :func:`_replacement` makes one.  Anything else, such as /dev/null or a
    FIFO, is written in place as ``open(path, "wb")`` writes it.  A symlink
    is written through.
    """
    target = os.path.realpath(path)
    new = not os.path.exists(target)
    tmp = None if new or not os.path.isfile(target) else _replacement(target)
    fh = open(tmp or target, "xb" if new else "wb")
    try:
        with fh:
            fh.writelines((data, b"\n"))
        if tmp:
            os.replace(tmp, target)
    except BaseException:
        if tmp or new:
            os.unlink(tmp or target)
        raise


def _replacement(target: str) -> str | None:
    """A temporary file beside the regular file `target` that can replace it unseen, or None.

    A `target` that cannot be written is refused, as ``open(target, "wb")``
    refuses it.  The temporary file takes its mode, owner and group.  There
    is none where `target` has other hard links, its directory takes no new
    file, or its owner or group cannot be kept.
    """
    open(target, "ab").close()  # the write permission check, with nothing truncated or made
    old = os.stat(target)
    if old.st_nlink != 1:
        return None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target))
    except PermissionError:
        return None
    try:
        os.fchown(fd, old.st_uid, old.st_gid)
        os.fchmod(fd, old.st_mode & 0o7777)
    except PermissionError:
        os.unlink(tmp)
        tmp = None
    finally:
        os.close(fd)
    return tmp


def _emit(out: dict, args) -> None:
    """Write the output and a final newline to the --out file or stdout.

    Both formats reject a non-finite float by its key, through `_leaves`,
    before anything is written.  JSON output is the bytes of ``orjson.dumps``,
    which writes NaN and the infinities as ``null``: only an output whose
    bytes hold ``null``, found by one precompiled search, is walked.  `main`
    calls it with the cyclic collector paused; it makes no reference cycles.
    """
    if args.format == "json":
        data = orjson.dumps(out, default=_plain, option=_ORJSON_OPTIONS)
        if _find_null(data):
            for _ in _leaves(out):
                pass
    else:
        data = "\n".join(["key,value", *_csv_rows(out)]).encode()
    if args.out:
        try:
            _write_out(args.out, data)
        except OSError as exc:
            if exc.filename is not None:  # the error names the --out path, never the temporary file
                exc = OSError(exc.errno, exc.strerror, args.out)
            raise _UsageError(f"cannot write --out file {args.out!r}: {exc}") from None
    else:
        # a line end is a UTF-8 boundary, so stdout never holds a second whole copy
        for piece in _line_slices(data):
            sys.stdout.write(str(piece, "utf-8"))
        sys.stdout.write("\n")


def _fields(record, omit: str = "") -> dict:
    """A library result's fields, but `omit`, in the order its dataclass declares them."""
    return {f.name: getattr(record, f.name) for f in dataclasses.fields(record) if f.name != omit}


# ---------------------------------------------------------------------------
# Handlers
# ---------------------------------------------------------------------------
# Each handler takes `args` and the objects `_read` admitted for its verb,
# and returns its own fields; ``sub`` in `_build_parser` puts the verb name
# and the seed first.

def _terms(values: np.ndarray, d: int, name: str, floor: float) -> list:
    """The codes whose |value| reaches `floor`, with their images.

    A term's images are its row of `_image_rows`, shared by every call and
    never changed, as ``markov.function_table`` is read-only.
    """
    with np.errstate(invalid="ignore"):  # a NaN is dropped, as abs(nan) >= floor is false
        codes = np.flatnonzero(np.abs(values) >= floor)
    rows = _image_rows(d)
    return [{"code": code, "images": rows[code], name: v} for code, v in zip(codes.tolist(), values[codes].tolist())]


@functools.lru_cache(maxsize=None)
def _image_rows(d: int) -> tuple:
    """Row ``c`` of ``markov.function_table(d)`` as a tuple of ints, for every code c: made once per d."""
    return tuple(map(tuple, markov.function_table(d).tolist()))


def cmd_validate(args, x) -> dict:
    return {"d": x.size, "vector": x}


def cmd_lorenz(args, x) -> dict:
    return {
        "d": x.size,
        "lorenz": probvec.lorenz_values(x),
        "ordering": probvec.ordering_permutation(x),
    }


def cmd_gini(args, x) -> dict:
    lo, hi = probvec.average_bounds(x)
    return {
        "d": x.size,
        "gini": probvec.gini_index(x),
        "gini_mean_abs_diff": probvec.gini_mean_abs_diff(x),
        "average_bounds": [lo, hi],
    }


def cmd_majorize(args, x, y) -> dict:
    return {"relation": probvec.majorizes(x, y).value}


def cmd_expand(args, q) -> dict:
    weights = markov.product_probabilities(q)
    d = q.shape[0]
    return {
        "d": d,
        "weights": weights,
        "terms": _terms(weights, d, "weight", args.floor),
    }


def cmd_scalar_product(args) -> dict:
    """Two matrices, or two tensors when --tensor is given (or --tensors with --input)."""
    if args.matrix and args.tensor:
        raise _UsageError("pass two --matrix or two --tensor payloads, not both kinds")
    if args.tensor or (not args.matrix and args.input and args.tensors):
        tq, tp = _read(args, "tensor", 2)
        value = markov.scalar_product_via_tensors(
            tq, tp, verify_product_form=args.verify_product_form, tol=args.tol
        )
        return {"method": "tensors", "value": value}
    if args.tensors or args.verify_product_form:
        raise _UsageError("--tensors and --verify-product-form apply to tensors, not to --matrix payloads")
    q, p = _read(args, "matrix", 2)
    return {"method": "direct", "value": markov.scalar_product(q, p)}


def cmd_correlations(args, t) -> dict:
    coeffs = markov.correlation_coefficients(t)
    d = markov.tensor_dimension(t.size)
    return {
        "d": d,
        "coefficients": coeffs,
        "terms": _terms(coeffs, d, "coefficient", args.floor),
    }


def cmd_simulate(args, spec) -> dict:
    rng = ensembles.make_rng(args.seed)
    weights = ensembles.empirical_tensor(spec, args.n, rng)
    return {"n": args.n, "d": spec.d, "weights": weights}


def cmd_collision(args, a, b) -> dict:
    rng = ensembles.make_rng(args.seed)
    return _fields(ensembles.collision_probability_mc(a, b, args.n, rng))


def cmd_quantum_stats(args, rho) -> dict:
    stats = quantum.state_stats(rho)
    return {"d": stats.d, "dim": rho.shape[0], **_fields(stats, omit="d")}


def cmd_dual(args, rho) -> dict:
    dual = quantum.dual_state(rho, args.mode)
    out = {"mode": args.mode, "state": {"dim": dual.shape[0], "entries": dual.ravel()}}  # [re, im] per entry
    if args.mode == quantum.SINGLE:
        out["probabilities"] = probs = quantum.diagonal_probabilities(dual)
        out["gini"] = probvec.gini_index(probs)
    else:
        out.update(_fields(quantum.state_stats(dual), omit="d"))
    return out


def cmd_deficits(args, rho) -> dict:
    deficits = quantum.uncertainty_deficits(rho)
    return {"d": deficits.local_components.size, **_fields(deficits)}


def cmd_eta(args) -> dict:
    est = eta.estimate_eta(args.d, args.mode, args.budget, seed=args.seed)
    best_state = {"dim": est.best_state.size, "amplitudes": est.best_state}
    return {**_fields(est), "best_state": best_state, "budget": args.budget}


def cmd_report(args) -> dict:
    """Run one worked example of `reference.REPORTS` on the parameters it reads."""
    build, defaults = reference.REPORTS[args.which]
    given = {name: value for name in ("a", "b", "a2", "c2", "d2", "e2") if (value := getattr(args, name)) is not None}
    if unread := [f"--{name}" for name in given if name not in defaults]:
        raise _UsageError(f"report {args.which} does not read {', '.join(unread)}")
    fields, checks = build(**{**defaults, **given})
    return {
        "which": args.which,
        **fields,
        "checks": checks,
        "all_pass": all(c["pass"] for c in checks),
    }


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def _collector_paused():
    """Pause the cyclic collector, then restore the caller's state.

    `main` computes and writes a verb's result inside it.  Neither the
    handler nor `_emit` makes reference cycles, so reference counting frees
    all they allocate: a payload tree (65,536 pair lists for a d = 4
    density), the lists `_plain` makes of an output array and the output
    itself are freed before any collection could walk them.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if collecting:
            gc.enable()


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="ginisafe",
        description="Gini-index analytics for random and quantum safes",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    def sub(name, handler, reads=(), count=1, **kwargs):
        """Declare a verb: its output opens with ``"command": name`` and ``"seed"``.

        Every verb takes --seed, --format and --out.  A verb that reads
        payloads names their kind in `reads` (``vector``, ``matrix``,
        ``tensor``, ``ensemble`` or ``state``) and how many it takes in
        `count`.  It then takes the repeated --<kind> flag and --input, plus
        --repair for a state and --tol for every other kind, and its handler
        is called with `args` and the `count` objects `_read` admits.  A verb
        that reads one of several kinds names them in a tuple, takes each
        flag, and its handler reads the chosen kind itself through `_read`.
        """
        kinds = (reads,) if isinstance(reads, str) else reads
        p = subs.add_parser(name, **kwargs)
        p.add_argument("--seed", type=int, default=0, help="seed in [0, 2**64 - 1], echoed in the output")
        if kinds and "state" not in kinds:
            p.add_argument("--tol", type=float, default=probvec.DEFAULT_TOL,
                           help="validation tolerance")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        if kinds:
            p.add_argument("--input", default=None, help="path to a JSON payload file")
        for kind in kinds:
            times = f", given {count} times" if count > 1 else ""
            p.add_argument(f"--{kind}", action="append", help=f"inline JSON {kind}{times}")
        if "state" in kinds:
            p.add_argument("--repair", action="store_true",
                           help="clip tiny negative eigenvalues and renormalize")

        def run(args):
            seed = admit_int(args.seed, "seed", 0, 2**64 - 1)  # the ints orjson writes and reads back
            objects = _read(args, reads, count) if isinstance(reads, str) else ()
            return {"command": name, "seed": seed, **handler(args, *objects)}

        p.set_defaults(handler=run)
        return p

    sub("validate", cmd_validate, "vector", help="validate a probability vector")
    sub("lorenz", cmd_lorenz, "vector", help="Lorenz values and ordering permutation")
    sub("gini", cmd_gini, "vector", help="Gini index (both formulas) and average bounds")
    sub("majorize", cmd_majorize, "vector", 2,
        help="compare two vectors x then y in the majorization preorder")

    p = sub("expand", cmd_expand, "matrix",
            help="independent expansion weights of a row Markov matrix")
    p.add_argument("--floor", type=float, default=0.0, help="omit terms with weight below this")

    p = sub("scalar-product", cmd_scalar_product, ("matrix", "tensor"), 2,
            help="scalar product of two matrices, or of two product tensors")
    p.add_argument("--tensors", action="store_true",
                   help="treat --input payloads as tensors instead of matrices")
    p.add_argument("--verify-product-form", action="store_true",
                   help="reject tensors whose correlations exceed --tol")

    p = sub("correlations", cmd_correlations, "tensor",
            help="correlation coefficients of a Markov tensor")
    p.add_argument("--floor", type=float, default=0.0,
                   help="omit terms with |coefficient| below this")

    p = sub("simulate", cmd_simulate, "ensemble",
            help="empirical joint tensor of a sampled ensemble")
    p.add_argument("--n", type=int, default=ensembles.DEFAULT_SAMPLES)

    p = sub("collision", cmd_collision, "ensemble", 2,
            help="Monte Carlo collision probability of two independent ensembles")
    p.add_argument("--n", type=int, default=ensembles.DEFAULT_SAMPLES)

    sub("quantum-stats", cmd_quantum_stats, "state",
        help="Markov matrix/tensor statistics of a multipartite state")

    p = sub("dual", cmd_dual, "state", help="Fourier-transformed state and its statistics")
    p.add_argument("--mode", choices=(quantum.SINGLE, quantum.LOCAL, quantum.GLOBAL),
                   default=quantum.GLOBAL)

    sub("deficits", cmd_deficits, "state", help="Gini uncertainty deficits of a state")

    p = sub("eta", cmd_eta, help="search for an uncertainty-coefficient upper bound")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--mode", choices=eta.MODES, default=eta.MODE_SINGLE)
    p.add_argument("--budget", type=int, default=1000, help="objective evaluation budget")

    p = sub("report", cmd_report, help="reproduce the bundled worked examples")
    p.add_argument("which", choices=tuple(reference.REPORTS))
    p.add_argument("--a", type=float, help="table1: parameter a")
    p.add_argument("--b", type=float, help="table1: parameter b")
    p.add_argument("--a2", type=float, help="table2, section84: |a|^2 of the pair state")
    p.add_argument("--c2", type=float, help="table2, section84: |c|^2 of the triple state")
    p.add_argument("--d2", type=float, help="table2, section84: |d|^2 of the triple state")
    p.add_argument("--e2", type=float, help="table2, section84: |e|^2 of the triple state")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        try:
            admit_tol(getattr(args, "tol", 0.0), "--tol")
        except ValidationError as exc:
            raise _UsageError(exc) from None
        if not math.isfinite(getattr(args, "floor", 0.0)):  # a NaN floor drops every term
            raise _UsageError(f"--floor must be a finite number, got {args.floor!r}")
        with _collector_paused():
            out = args.handler(args)
            _emit(out, args)
            del out  # freed before the collector resumes
        sys.stdout.flush()
    except BrokenPipeError:  # the reader of stdout went away
        # the interpreter flushes stdout again at exit; send what is left to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        print(f"run 'ginisafe {args.command} --help' for the grammar", file=sys.stderr)
        return 2
    except GiniSafeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # the caps admitted an input this machine cannot hold
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory in '{args.command}'{detail}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
