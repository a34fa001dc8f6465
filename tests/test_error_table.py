"""One validation rule: a state quantity validates, an index map never does.

Each of the functions in ``CALLS`` returns a quantity of a two-qubit state,
so each validates its input, or is one of the two validators
(``validate``, ``require_density_matrix``);
``partial_trace`` and ``partial_transpose`` only move indices, and take any
4x4 matrix.  No public callable has a switch that skips the check.

``tests/golden/error_table.json`` holds, for
every function and every input in ``INPUTS``, either the type and message
of the error it raises or its result, with every float written by
``repr`` so that a change in any bit shows.

An intended change is re-recorded with

    PYTHONPATH=src python tests/test_error_table.py --record

and the diff of ``error_table.json`` then shows what moved.

A hypothesis sweep feeds every export of ``qcorr`` that takes a state
inputs no state quantity can take: wrong shapes, NaN and infinite entries,
and stacks with one bad entry.  Each must end in a ``QcorrError``, never in
a NumPy error or a warning.  A wrong shape may also give a value where one
is defined, such as the entropy of a square matrix of another size or the
empty list of an empty stack, and the two index maps may return values for
non-finite entries.  ``save_state`` writes over an existing state file,
which a rejected save must leave as it was.  Non-numeric dtypes are out
of scope: NumPy's ``ValueError`` on them maps to CLI exit 64.  Every error
class must also survive ``pickle``, so that it can cross a process boundary.
"""

import dataclasses
import enum
import importlib
import inspect
import json
import pickle
import pkgutil
import sys
import tempfile
import warnings
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis.extra.numpy import arrays

import oracles
import qcorr
from qcorr import correlations as corr
from qcorr import entanglement as ent
from qcorr import exceptions, nmr, states
from qcorr import operators as op
from qcorr import witness as wit
from qcorr.exceptions import InvalidStateError, NotPositiveError, QcorrError

TABLE = Path(__file__).parent / "golden" / "error_table.json"
GOLDEN_STATES = Path(__file__).parent / "golden" / "states"

DIRECTIONS = wit.DirectionPair(
    z=np.array([0.6, 0.0, 0.8]), w=np.array([0.0, -0.28, 0.96])
)

CALLS = {
    "decompose": op.decompose,
    "von_neumann_entropy": op.von_neumann_entropy,
    "mutual_information": corr.mutual_information,
    "classical_correlation": corr.classical_correlation,
    "discord": corr.discord,
    "negativity": ent.negativity,
    "chsh_maximum": ent.chsh_maximum,
    "entanglement_report": ent.entanglement_report,
    "observable_expectations": lambda r: wit.observable_expectations(r, DIRECTIONS),
    "witness_value": wit.witness_value,
    "classify": wit.classify,
    "transform_states": nmr.transform_states,
    "run_protocol": lambda r: nmr.run_protocol(r, shots=64, seed=5),
    "witness_via_protocol": lambda r: nmr.witness_via_protocol(r, seed=3),
    "validate": states.validate,
    "require_density_matrix": op.require_density_matrix,
}


def _edited(edit):
    rho = states.make_werner(0.3)
    edit(rho)
    return rho


def _set(i, j, value):
    def edit(m):
        m[i, j] = value

    return edit


def _add(*entries):
    def edit(m):
        for i, j, value in entries:
            m[i, j] += value

    return edit


INPUTS = {
    "valid_werner": states.make_werner(0.3),
    "valid_general": states.load_state(GOLDEN_STATES / "general.json"),
    "non_hermitian": _edited(_add((0, 1, 1e-6))),
    "trace_1_1": _edited(_add((0, 0, 0.1))),
    # Werner 0.3 has rho_00 = 0.175; this leaves it at -0.025
    "negative_eigenvalue": _edited(_add((0, 0, -0.2), (3, 3, 0.2))),
    "nan": _edited(_set(2, 2, np.nan)),
    "plus_inf": _edited(_set(1, 2, np.inf)),
    "minus_inf": _edited(_set(3, 3, -np.inf)),
    "wrong_shape": np.eye(2, dtype=complex) / 2.0,
}


def _plain(value):
    """``value`` as JSON data; floats as their repr, so every bit counts."""
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, (bool, str, type(None))):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (complex, np.complexfloating)):
        return [repr(float(value.real)), repr(float(value.imag))]
    if isinstance(value, np.ndarray):
        return _plain(value.tolist())
    if dataclasses.is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if hasattr(value, "_asdict"):
        return {k: _plain(v) for k, v in value._asdict().items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    raise TypeError(f"no plain form for {type(value).__name__}")


def outcome(call, name):
    """The error ``call`` raises on input ``name``, or its result."""
    try:
        result = CALLS[call](INPUTS[name].copy())
    except Exception as exc:  # the table records whatever is raised
        return {"raised": type(exc).__name__, "message": str(exc)}
    return {"value": _plain(result)}


def _table():
    return json.loads(TABLE.read_text(encoding="utf-8"))


@pytest.mark.parametrize("call", sorted(CALLS))
def test_state_quantity_outcomes_unchanged(call):
    want = _table()[call]
    assert sorted(want) == sorted(INPUTS)
    for name in INPUTS:
        assert outcome(call, name) == want[name], name


# invalid inputs that give a value instead of an error: the entropy takes
# any dimension, and validate reports a failed check as a flag
GIVES_A_VALUE = {
    ("von_neumann_entropy", "wrong_shape"),
    ("validate", "non_hermitian"),
    ("validate", "trace_1_1"),
    ("validate", "negative_eigenvalue"),
}


def test_every_invalid_input_raises():
    table = _table()
    for call in CALLS:
        for name in INPUTS:
            gives_value = name.startswith("valid") or (call, name) in GIVES_A_VALUE
            assert ("value" if gives_value else "raised") in table[call][name], (
                call,
                name,
            )


def test_index_maps_permute_any_matrix():
    m = np.random.default_rng(3075).normal(size=(4, 4, 2)) @ np.array([1.0, 1.0j])
    e = m.reshape(2, 2, 2, 2)  # e[i, j, k, l] = m[2 i + j, 2 k + l]
    traced = {"a": np.zeros((2, 2), complex), "b": np.zeros((2, 2), complex)}
    transposed = {"a": np.zeros((4, 4), complex), "b": np.zeros((4, 4), complex)}
    for i, j, k, l in np.ndindex(2, 2, 2, 2):
        if j == l:
            traced["a"][i, k] += e[i, j, k, l]
        if i == k:
            traced["b"][j, l] += e[i, j, k, l]
        transposed["a"][2 * i + j, 2 * k + l] = e[k, j, i, l]
        transposed["b"][2 * i + j, 2 * k + l] = e[i, l, k, j]
    for side in ("a", "b"):
        assert np.array_equal(op.partial_trace(m, side), traced[side])
        assert np.array_equal(ent.partial_transpose(m, side), transposed[side])


@pytest.mark.parametrize("index_map", [op.partial_trace, ent.partial_transpose])
@pytest.mark.parametrize("shape", [(16,), (2, 8), (2, 2)])
def test_index_maps_take_only_4x4_matrices(index_map, shape):
    message = rf"expected a 4x4 matrix, got shape \({shape[0]},"
    with pytest.raises(InvalidStateError, match=message):
        index_map(np.ones(shape) / 4.0)


def _public_callables():
    modules = [qcorr] + [
        importlib.import_module(f"qcorr.{info.name}")
        for info in pkgutil.iter_modules(qcorr.__path__)
        if info.name != "__main__"
    ]
    for module in modules:
        for name, obj in vars(module).items():
            if name.startswith("_") or not callable(obj):
                continue
            if not getattr(obj, "__module__", "").startswith("qcorr"):
                continue
            yield f"{module.__name__}.{name}", obj
            if inspect.isclass(obj):
                for attr in vars(obj):
                    member = getattr(obj, attr)
                    if not attr.startswith("_") and callable(member):
                        yield f"{module.__name__}.{name}.{attr}", member


def _has_check(obj):
    try:
        return "check" in inspect.signature(obj).parameters
    except (TypeError, ValueError):  # no signature to read
        return False


def test_no_public_callable_has_a_check_parameter():
    found = dict(_public_callables())
    assert "qcorr.operators.decompose" in found
    assert "qcorr.operators.MeasurementBasis.from_bloch" in found
    assert [name for name, obj in found.items() if _has_check(obj)] == []


# the names ``import qcorr`` gives, one a line, so that any change to the
# public surface shows in a diff of this list
PUBLIC_NAMES = [
    "ClassicalCorrelationResult",
    "DirectionPair",
    "DiscordReport",
    "EntanglementReport",
    "InvalidStateError",
    "MeasurementBasis",
    "NotPositiveError",
    "OptimizerFailureError",
    "OutOfClassError",
    "PauliDecomposition",
    "ProtocolRun",
    "QcorrError",
    "StateValidity",
    "Verdict",
    "WitnessReport",
    "bell_diagonal_eigenvalues",
    "chsh_maximum",
    "classical_correlation",
    "classify",
    "cnot_ab",
    "compose",
    "decompose",
    "discord",
    "entanglement_report",
    "load_state",
    "make_bell_diagonal",
    "make_classical",
    "make_general",
    "make_product",
    "make_werner",
    "matched_form",
    "mutual_information",
    "negativity",
    "observable_expectations",
    "observables",
    "parse_state",
    "partial_trace",
    "partial_transpose",
    "pauli",
    "rotation_pair",
    "run_protocol",
    "save_state",
    "tensor",
    "transform_states",
    "validate",
    "von_neumann_entropy",
    "witness_value",
    "witness_via_protocol",
]


def test_public_names_are_pinned():
    found = [
        name
        for name, obj in vars(qcorr).items()
        if not name.startswith("_") and not inspect.ismodule(obj)
    ]
    assert sorted(found) == PUBLIC_NAMES


def _save_over_a_state_file(m):
    """``save_state(m, path)`` over a state file at ``path``, in a fresh
    directory; a save that raises must leave that file as it was."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "state.json"
        states.save_state(states.make_werner(0.3), path)
        kept = path.read_bytes()
        try:
            return states.save_state(m, path)
        except QcorrError:
            assert path.read_bytes() == kept
            raise


# how the sweep calls the exports that take more than the state
STATE_CALLS = {
    "observable_expectations": lambda m: qcorr.observable_expectations(m, DIRECTIONS),
    "save_state": _save_over_a_state_file,
}
INDEX_MAPS = {"partial_trace", "partial_transpose"}


def _state_exports():
    names = []
    for name, obj in vars(qcorr).items():
        if name.startswith("_") or not inspect.isfunction(obj):
            continue
        first = next(iter(inspect.signature(obj).parameters), None)
        if first in ("rho", "matrix"):
            names.append(name)
    return sorted(names)


STATE_EXPORTS = _state_exports()
BAD_SHAPES = [(16,), (2, 8), (3, 3), (0, 0), (2, 3, 3), (0, 4, 4)]
NON_FINITE = {"nan": np.nan, "plus_inf": np.inf, "minus_inf": -np.inf}
# a fixed draw, unshrunk: every run feeds the same inputs, and a failing
# example is reported as drawn
SWEEP = settings(
    max_examples=10, deadline=None, derandomize=True, phases=[Phase.generate]
)


def _cases(inputs):
    """(export, input) pairs for every state-taking export and every
    input in the dict ``inputs``, with ids ``export-key``."""
    return [
        pytest.param(name, value, id=f"{name}-{key}")
        for name in STATE_EXPORTS
        for key, value in inputs.items()
    ]


def _call(name, m):
    """What export ``name`` gives on ``m``: its result, or the
    ``QcorrError`` it raises; any other error or a warning propagates."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return STATE_CALLS.get(name, getattr(qcorr, name))(m)
        except QcorrError as exc:
            return exc


def test_sweep_covers_every_export_that_takes_a_state():
    assert set(STATE_CALLS) <= set(STATE_EXPORTS)
    assert {"validate", "discord", "partial_trace", "witness_value"} <= set(STATE_EXPORTS)


@pytest.mark.parametrize("name, shape", _cases({str(s): s for s in BAD_SHAPES}))
@SWEEP
@given(data=st.data())
def test_wrong_shape_raises_only_qcorr_errors(name, shape, data):
    m = data.draw(arrays(np.float64, shape, elements=st.floats(-1.0, 1.0)))
    _call(name, m.astype(complex))


@pytest.mark.parametrize("name, value", _cases(NON_FINITE))
@SWEEP
@given(
    seed=st.integers(0, 2**32 - 1),
    i=st.integers(0, 3),
    j=st.integers(0, 3),
)
def test_non_finite_entry_raises_invalid_state(name, value, seed, i, j):
    m = oracles.random_density_matrix(np.random.default_rng(seed))
    m[i, j] = value
    got = _call(name, m)
    if name not in INDEX_MAPS:
        assert isinstance(got, InvalidStateError), got


@pytest.mark.parametrize("name", ["classical_correlation", "discord"])
@SWEEP
@given(
    seed=st.integers(0, 2**32 - 1),
    bad=st.tuples(st.integers(0, 1), st.integers(0, 3), st.integers(0, 3)),
    value=st.sampled_from(sorted(NON_FINITE.values(), key=repr)),
)
def test_stack_with_one_bad_entry_raises_invalid_state(name, seed, bad, value):
    rng = np.random.default_rng(seed)
    stack = np.array([oracles.random_density_matrix(rng) for _ in range(2)])
    stack[bad] = value
    assert isinstance(_call(name, stack), InvalidStateError)


def _error_classes():
    return [
        obj
        for obj in vars(exceptions).values()
        if inspect.isclass(obj) and obj.__module__ == exceptions.__name__
    ]


ERROR_ARGS = {NotPositiveError: (-0.5,)}


@pytest.mark.parametrize("cls", _error_classes(), ids=lambda cls: cls.__name__)
def test_error_survives_pickle(cls):
    error = cls(*ERROR_ARGS.get(cls, ("trace differs from 1 by 1.000e-01",)))
    back = pickle.loads(pickle.dumps(error))
    assert type(back) is cls
    assert str(back) == str(error)
    assert vars(back) == vars(error)


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    table = {call: {name: outcome(call, name) for name in INPUTS} for call in CALLS}
    TABLE.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
