"""Every certify answer is the same whether or not its state was just checked.

The certify path (``validate``, ``witness_value``, ``entanglement_report``,
``mutual_information``, ``witness_via_protocol``) and the calls beside it
must give bit-identical results on a state whatever was checked before it:
a different state, the same state, the same array edited in place, the
same state given as a real array, or other states on other threads.
"""

import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import oracles
import qcorr
from qcorr import operators as op
from qcorr import states
from qcorr.exceptions import InvalidStateError, QcorrError

GOLDEN_STATES = Path(__file__).parent / "golden" / "states"


def _states():
    rng = np.random.default_rng(1811)
    ket = np.array([0.8, 0.0, 0.0, 0.6j])
    found = {
        "ginibre": oracles.random_density_matrix(rng),
        "werner": states.make_werner(0.6),
        "bell_diagonal": oracles.random_bell_diagonal(rng),
        "in_class": oracles.random_in_class_state(rng),
        "product": states.make_product([0.3, -0.2, 0.5], [0.1, 0.4, -0.6]),
        "rank1": np.outer(ket, ket.conj()),
        "rank2": oracles.random_rank2_state(rng),
    }
    for kind in (1, 2, 3, 4):
        found[f"chi{kind}"] = oracles.random_chi_state(rng, kind)
    # within the 1e-12 tolerances, but not exactly Hermitian
    found["near_hermitian"] = found["in_class"] + 1e-13 * rng.normal(size=(4, 4))
    for path in sorted(GOLDEN_STATES.glob("*.json")):
        found[f"golden_{path.stem}"] = states.load_state(path)
    return found


STATES = _states()

CERTIFY = {
    "validate": qcorr.validate,
    "witness_deterministic": qcorr.witness_value,
    "witness_randomized": lambda r: qcorr.witness_value(
        r, mode="randomized", n_trials=4, seed=7
    ),
    "entanglement_report": qcorr.entanglement_report,
    "mutual_information": qcorr.mutual_information,
    "protocol_exact": lambda r: qcorr.witness_via_protocol(r, seed=3),
    "protocol_shots_1": lambda r: qcorr.witness_via_protocol(r, shots=1, seed=5),
    "protocol_shots_1024": lambda r: qcorr.witness_via_protocol(r, shots=1024, seed=11),
    "decompose": op.decompose,
    "classify": qcorr.classify,
    "discord": qcorr.discord,
}


def _outcome(call, rho):
    """What ``call`` gives on ``rho``: its result, or the type and message
    of the error it raises."""
    try:
        return CERTIFY[call](rho)
    except (QcorrError, ValueError) as exc:
        return ("raised", type(exc).__name__, str(exc))


def _cold(call, rho):
    """``call`` on a copy of ``rho`` right after a check of another state."""
    other = "ginibre" if np.array_equal(rho, STATES["werner"]) else "werner"
    states.validate(STATES[other])
    return _outcome(call, rho.copy())


def _fingerprint(result):
    """A string or bytes that differ whenever a float of ``result`` differs
    in any bit, -0.0 against 0.0 included."""
    if isinstance(result, op.PauliDecomposition):
        return tuple(a.tobytes() for a in (result.x, result.y, result.t))
    if isinstance(result, np.ndarray):
        return result.tobytes()
    if hasattr(result, "to_dict"):
        return repr(result.to_dict())
    return repr(result)


def _assert_identical(got, want):
    assert _fingerprint(got) == _fingerprint(want)
    if not isinstance(want, op.PauliDecomposition):
        assert got == want


@pytest.mark.parametrize("call", sorted(CERTIFY))
@pytest.mark.parametrize("name", sorted(STATES))
def test_answer_same_after_other_or_same_state(name, call):
    rho = STATES[name]
    cold = _cold(call, rho)
    states.validate(rho.copy())
    _assert_identical(_outcome(call, rho), cold)
    _assert_identical(_outcome(call, rho), cold)


@pytest.mark.parametrize("name", sorted(STATES))
def test_stored_check_gives_what_a_fresh_computation_gives(name):
    rho = STATES[name]
    other = "ginibre" if name == "werner" else "werner"
    states.validate(STATES[other])
    fresh = []
    for call in (op.decompose, op.von_neumann_entropy, qcorr.mutual_information):
        op._last_checks = None
        fresh.append(call(rho))
    states.validate(rho)
    stored = (
        op.decompose(rho),
        op.von_neumann_entropy(rho),
        qcorr.mutual_information(rho),
    )
    for got, want in zip(stored, fresh):
        assert _fingerprint(got) == _fingerprint(want)


def test_stored_check_is_read_only_for_a_4x4_matrix():
    rho = STATES["werner"]
    states.validate(rho)
    with pytest.raises(InvalidStateError, match="expected a square matrix"):
        op.von_neumann_entropy(rho.reshape(16))


def _break_hermiticity(m):
    m[0, 1] += 1e-6


def _trace_1_1(m):
    m[0, 0] += 0.1


def _negative_eigenvalue(m):
    # Werner 0.3 has rho_00 = 0.175; this leaves it at -0.025
    m[0, 0] -= 0.2
    m[3, 3] += 0.2


def _insert_nan(m):
    m[2, 2] = np.nan


def _offdiagonal_correlation(m):
    m += 0.05 * np.kron(op.pauli(1), op.pauli(2)) / 4.0


EDITS = {
    "break_hermiticity": _break_hermiticity,
    "trace_1_1": _trace_1_1,
    "negative_eigenvalue": _negative_eigenvalue,
    "insert_nan": _insert_nan,
    "offdiagonal_correlation": _offdiagonal_correlation,
}


@pytest.mark.parametrize("edit", sorted(EDITS))
def test_in_place_edit_is_seen(edit):
    base = states.make_werner(0.3)
    edited = base.copy()
    EDITS[edit](edited)
    rho = base.copy()
    for call in CERTIFY:
        want = _cold(call, edited)
        rho[...] = base
        states.validate(rho)
        _outcome(call, rho)
        EDITS[edit](rho)
        _assert_identical(_outcome(call, rho), want)
        _assert_identical(_outcome(call, rho), want)


# the validity flags each edit turns off; a NaN entry raises instead
EDIT_FAILS = {
    "break_hermiticity": ["hermitian", "in_diagonal_class"],
    "trace_1_1": ["trace_one", "in_diagonal_class"],
    "negative_eigenvalue": ["psd", "in_diagonal_class"],
    "insert_nan": None,
    "offdiagonal_correlation": ["in_diagonal_class"],
}


@pytest.mark.parametrize("edit", sorted(EDITS))
def test_each_edit_fails_its_own_check(edit):
    edited = states.make_werner(0.3)
    EDITS[edit](edited)
    got = _cold("validate", edited)
    if EDIT_FAILS[edit] is None:
        assert got[:2] == ("raised", "InvalidStateError")
    else:
        flags = got.to_dict()
        assert [k for k in EDIT_FAILS[edit] if not flags[k]] == EDIT_FAILS[edit]
        assert sum(not v for v in flags.values() if isinstance(v, bool)) == len(
            EDIT_FAILS[edit]
        )


def test_decompose_returns_fresh_writable_arrays():
    rho = STATES["in_class"]
    first = op.decompose(rho)
    want = tuple(a.tobytes() for a in (first.x, first.y, first.t))
    for a in (first.x, first.y, first.t):
        assert a.flags.writeable
        a[...] = 7.0
    again = op.decompose(rho)
    assert tuple(a.tobytes() for a in (again.x, again.y, again.t)) == want
    assert not np.shares_memory(first.t, again.t)


@pytest.mark.parametrize(
    "name", ["werner", "bell_diagonal", "chi1", "chi2", "chi3", "golden_werner"]
)
def test_real_and_complex_inputs_agree(name):
    rho = STATES[name]
    assert not rho.imag.any()
    real = rho.real.copy()
    for call in CERTIFY:
        want = _cold(call, rho)
        _assert_identical(_outcome(call, real), want)
        _assert_identical(_outcome(call, rho), want)
        _assert_identical(_outcome(call, real), want)


def test_threads_alternating_two_states_get_sequential_answers():
    pair = (STATES["in_class"], STATES["bell_diagonal"])
    want = [{call: _cold(call, rho) for call in CERTIFY} for rho in pair]
    rounds = 12
    got = [[] for _ in range(4)]

    def worker(k):
        for r in range(rounds):
            which = (k + r) % 2
            answers = {call: _outcome(call, pair[which]) for call in CERTIFY}
            got[k].append((which, answers))

    threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for records in got:
        assert len(records) == rounds
        for which, answers in records:
            for call, answer in answers.items():
                _assert_identical(answer, want[which][call])


def _count_eigensolves(monkeypatch):
    """Shapes of the matrices passed to ``np.linalg.eigvalsh`` from now on."""
    shapes = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return shapes


def test_certify_op_solves_three_eigenproblems(monkeypatch):
    """One certify op solves rho, its partial transpose and t^T t once each."""
    shapes = _count_eigensolves(monkeypatch)
    rho = STATES["in_class"]
    qcorr.validate(rho)
    qcorr.witness_value(rho)
    qcorr.entanglement_report(rho)
    qcorr.mutual_information(rho)
    qcorr.witness_via_protocol(rho, shots=1024, seed=3)
    assert shapes == [(4, 4), (3, 3), (4, 4)]


def test_discord_of_one_state_solves_it_once(monkeypatch):
    shapes = _count_eigensolves(monkeypatch)
    qcorr.discord(STATES["ginibre"])
    assert shapes == [(4, 4)]


def test_classical_correlation_of_a_stack_solves_each_state_once(monkeypatch):
    stack = np.array([STATES[name] for name in ("ginibre", "werner", "rank2", "chi3")])
    shapes = _count_eigensolves(monkeypatch)
    qcorr.classical_correlation(stack)
    assert shapes == [(4, 4)] * len(stack)
