"""Golden record of the basis search on states that are not Bell-diagonal.

``tests/golden/discord_search.json`` holds, for each seeded state below,
for one stack of six of them and for one stack of all of them, the
``discord`` report with every float
written by ``repr``: I, J*, D, the readout angles and the evaluation
count.  The search's iterates set every one of these, so an edit that
changes any floating-point operation of the search, or its order, shows
here as a changed bit.

An intended change is re-recorded with

    PYTHONPATH=src python tests/test_discord_search.py --record

and the diff of ``discord_search.json`` then shows what moved.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
from qcorr import correlations as dc
from qcorr import operators as op
from qcorr import states

RECORD = Path(__file__).parent / "golden" / "discord_search.json"
GOLDEN_STATES = Path(__file__).parent / "golden" / "states"

NEAR_PURE_EPS = (1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9)


def _pure(rng):
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


def _rank(rng, k):
    g = rng.normal(size=(4, k)) + 1j * rng.normal(size=(4, k))
    m = g @ g.conj().T
    return m / np.trace(m).real


def _unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _rotated_bell_diagonal(rng):
    u = oracles.random_local_unitary(rng)
    return u @ oracles.random_bell_diagonal(rng) @ u.conj().T


def _states():
    """(label, state) pairs, all drawn from one seed in a fixed order."""
    rng = np.random.default_rng(1012_3075)
    out = [(f"ginibre_{k}", oracles.random_density_matrix(rng)) for k in range(8)]
    out += [(f"rank2_{k}", _rank(rng, 2)) for k in range(5)]
    out += [(f"rank3_{k}", _rank(rng, 3)) for k in range(5)]
    out += [
        (f"near_pure_{eps:g}", (1.0 - eps) * _pure(rng) + eps * _rank(rng, 4))
        for eps in NEAR_PURE_EPS
    ]
    out += [(f"rotated_bell_{k}", _rotated_bell_diagonal(rng)) for k in range(6)]
    out += [
        (f"product_{k}", states.make_product(0.9 * _unit(rng), 0.7 * _unit(rng)))
        for k in range(4)
    ]
    out += [(f"chi4_{k}", oracles.random_chi_state(rng, 4)) for k in range(4)]
    out.append(("chi_golden", states.load_state(GOLDEN_STATES / "chi.json")))
    return out


STATES = _states()
# one stack mixing the kinds above, searched in a single batched pass
STACK = [0, 8, 13, 20, 27, 33]


def _report(report):
    record = report.to_dict()
    return {k: repr(v) if isinstance(v, float) else v for k, v in record.items()}


def _stack_reports(indices):
    return [_report(r) for r in dc.discord(np.array([STATES[i][1] for i in indices]))]


def _records():
    return {
        "states": {label: _report(dc.discord(rho)) for label, rho in STATES},
        "stack": _stack_reports(STACK),
        "stack_all": _stack_reports(range(len(STATES))),
    }


def _recorded():
    return json.loads(RECORD.read_text(encoding="utf-8"))


def test_recorded_states_are_not_bell_diagonal():
    # every recorded state takes the basis search
    for label, rho in STATES:
        d = op.decompose(rho)
        off = d.t - np.diag(np.diag(d.t))
        assert d.x.any() or d.y.any() or off.any(), label


@pytest.mark.parametrize("index", range(len(STATES)))
def test_search_record_unchanged(index):
    label, rho = STATES[index]
    assert _report(dc.discord(rho)) == _recorded()["states"][label]


def test_stack_search_record_unchanged():
    assert _stack_reports(STACK) == _recorded()["stack"]


def test_stack_of_all_states_matches_their_single_records():
    # every state searched in one pass gives the bits it gives alone
    recorded = _recorded()
    assert _stack_reports(range(len(STATES))) == recorded["stack_all"]
    assert recorded["stack_all"] == list(recorded["states"].values())


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    RECORD.write_text(json.dumps(_records(), indent=1) + "\n", encoding="utf-8")
