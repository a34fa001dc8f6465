"""One validation rule: a state quantity validates, an index map never does.

Each of the functions in ``CALLS`` returns a quantity of a two-qubit state,
so each validates its input, or is one of the three validators
(``validate``, ``check_state``, ``require_density_matrix``);
``partial_trace`` and ``partial_transpose`` only move indices, and take any
4x4 matrix.  No public callable has a switch that skips the check.

``tests/golden/error_table.json`` holds, for
every function and every input in ``INPUTS``, either the type and message
of the error it raises or its result, with every float written by
``repr`` so that a change in any bit shows.

An intended change is re-recorded with

    PYTHONPATH=src python tests/test_error_table.py --record

and the diff of ``error_table.json`` then shows what moved; a row of
``REROUNDED`` keeps its recorded value while the new one is within bound.
"""

import dataclasses
import enum
import importlib
import inspect
import json
import pkgutil
import sys
from pathlib import Path

import numpy as np
import pytest

import qcorr
from qcorr import correlations as corr
from qcorr import entanglement as ent
from qcorr import nmr, states
from qcorr import operators as op
from qcorr import witness as wit
from qcorr.exceptions import InvalidStateError

TABLE = Path(__file__).parent / "golden" / "error_table.json"
GOLDEN_STATES = Path(__file__).parent / "golden" / "states"

BASIS = op.MeasurementBasis(theta=0.7, phi=1.1)
DIRECTIONS = wit.DirectionPair(
    z=np.array([0.6, 0.0, 0.8]), w=np.array([0.0, -0.28, 0.96])
)
OBSERVABLE = op.tensor(op.pauli(1), op.pauli(3))

CALLS = {
    "decompose": op.decompose,
    "von_neumann_entropy": op.von_neumann_entropy,
    "expectation": lambda r: op.expectation(r, OBSERVABLE),
    "mutual_information": corr.mutual_information,
    "outcome_probability": lambda r: corr.outcome_probability(r, BASIS, 1),
    "conditioned_state": lambda r: corr.conditioned_state(r, BASIS, 0),
    "measured_mutual_information": lambda r: corr.measured_mutual_information(
        r, BASIS
    ),
    "classical_correlation": corr.classical_correlation,
    "discord": corr.discord,
    "negativity": ent.negativity,
    "chsh_maximum": ent.chsh_maximum,
    "entanglement_report": ent.entanglement_report,
    "observable_expectations": lambda r: wit.observable_expectations(r, DIRECTIONS),
    "witness_value": wit.witness_value,
    "classify": wit.classify,
    "transform_states": nmr.transform_states,
    "sample_magnetization": lambda r: nmr.sample_magnetization(r, 64, seed=5),
    "run_protocol": lambda r: nmr.run_protocol(r, shots=64, seed=5),
    "witness_via_protocol": lambda r: nmr.witness_via_protocol(r, seed=3),
    "validate": states.validate,
    "check_state": states.check_state,
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


# takes each conditional spectrum from the unnormalized block divided by
# p, where the table was recorded dividing the block first: its values may
# move by rounding, its errors may not
REROUNDED = {"measured_mutual_information": 1e-15}


def _rerounded(call, got, want):
    """Whether ``got`` and ``want`` are values of a ``REROUNDED`` call that
    differ by no more than its bound."""
    if call not in REROUNDED or "value" not in got or "value" not in want:
        return False
    return abs(float(got["value"]) - float(want["value"])) <= REROUNDED[call]


@pytest.mark.parametrize("call", sorted(CALLS))
def test_state_quantity_outcomes_unchanged(call):
    want = _table()[call]
    assert sorted(want) == sorted(INPUTS)
    for name in INPUTS:
        got = outcome(call, name)
        if not _rerounded(call, got, want[name]):
            assert got == want[name], name


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


def _recorded(call, name, old):
    """The row to record: the old one while a re-rounded value stays within
    its bound, so that a re-record diff shows only real moves."""
    got = outcome(call, name)
    want = old.get(call, {}).get(name)
    return want if want is not None and _rerounded(call, got, want) else got


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    old = _table() if TABLE.exists() else {}
    table = {
        call: {name: _recorded(call, name, old) for name in INPUTS} for call in CALLS
    }
    TABLE.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
