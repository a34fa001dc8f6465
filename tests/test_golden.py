"""Golden outputs: CLI bytes and sampled protocol records, pinned exactly.

``tests/golden/expected.json`` holds the stdout and exit code of each CLI
case below, run on the state files in ``tests/golden/states``, and the
``witness_via_protocol(...).to_dict()`` records of the sampled cases.  The
sampled records pin the random-draw order of the protocol: a change that
reorders or adds draws changes them.

An intended output change is re-recorded with

    PYTHONPATH=src python tests/test_golden.py --record

and the diff of ``expected.json`` then shows what moved.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from qcorr import cli, nmr, states

GOLDEN = Path(__file__).parent / "golden"
EXPECTED = GOLDEN / "expected.json"

# argv with "@name" standing for the state file tests/golden/states/name.json
CLI_CASES = [
    ["classify", "@werner"],
    ["classify", "@chi"],
    ["classify", "@bell"],
    ["classify", "@general"],
    ["classify", "@out_of_class"],
    ["classify", "@general", "--mode", "randomized", "--trials", "3", "--seed", "11"],
    ["classify", "@chi", "--tol", "0.05"],
    ["sweep-werner"],
    ["sweep-werner", "--format", "json"],
    ["sweep-werner", "--with-discord"],
    ["sweep-werner", "--with-discord", "--format", "json", "--alphas", "0.05:0.95:19"],
    ["nmr-verify", "@werner"],
    ["nmr-verify", "@chi"],
    ["nmr-verify", "@bell"],
    ["nmr-verify", "@general"],
    ["nmr-verify", "@out_of_class"],
    ["nmr-verify", "@general", "--shots", "1000", "--seed", "5"],
    ["nmr-verify", "@bell", "--shots", "1000", "--seed", "5"],
    ["nmr-verify", "@chi", "--shots", "1", "--seed", "2"],
]

# (state file, shots, seed) of the sampled witness records
PROTOCOL_CASES = [
    (name, shots, seed)
    for name, seed in (("bell", 3), ("chi", 17), ("general", 29))
    for shots in (1, 1024)
]


def _argv(case):
    return [
        str(GOLDEN / "states" / f"{arg[1:]}.json") if arg.startswith("@") else arg
        for arg in case
    ]


def run_cli(case):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(_argv(case))
    return {"argv": case, "exit": code, "stdout": out.getvalue()}


def protocol_record(name, shots, seed):
    rho = states.load_state(GOLDEN / "states" / f"{name}.json")
    report = nmr.witness_via_protocol(rho, shots=shots, seed=seed)
    return {"state": name, "shots": shots, "seed": seed, "record": report.to_dict()}


def _expected():
    return json.loads(EXPECTED.read_text(encoding="utf-8"))


@pytest.mark.parametrize("index", range(len(CLI_CASES)))
def test_cli_bytes(index):
    expected = _expected()["cli"][index]
    assert expected["argv"] == CLI_CASES[index]
    assert run_cli(CLI_CASES[index]) == expected


@pytest.mark.parametrize("index", range(len(PROTOCOL_CASES)))
def test_sampled_protocol_records(index):
    expected = _expected()["witness_via_protocol"][index]
    assert protocol_record(*PROTOCOL_CASES[index]) == expected


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    EXPECTED.write_text(
        json.dumps(
            {
                "cli": [run_cli(case) for case in CLI_CASES],
                "witness_via_protocol": [
                    protocol_record(*case) for case in PROTOCOL_CASES
                ],
            },
            indent=1,
        )
        + "\n",
        encoding="utf-8",
    )
