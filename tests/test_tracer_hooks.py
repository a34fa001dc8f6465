"""The benchmark's tracer finds every qcorr function it hooks.

``perfbench/tracer.py`` wraps qcorr functions by module and name; a name
that a refactor removes or renames silently turns its per-layer metrics
into nulls.  This test reads the tracer's ``HOOKS`` table (without
installing anything) and checks each name against the package; a name
deleted on purpose is listed in ``REMOVED`` and must read absent.  It also
checks that the basis search reaches the kernel through the two hooked
entry points, and that ``import qcorr`` stays light.
"""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
import qcorr
from qcorr import _kernel, correlations, states

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _hooks():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.HOOKS


# hooked functions that qcorr no longer has: the tracer skips each and
# reports its metrics as absent
REMOVED = [("states", "check_state")]


@pytest.mark.parametrize(
    "module, name",
    [
        (module, name)
        for module, names in _hooks().items()
        for name in names
        if (module, name) not in REMOVED
    ],
)
def test_hooked_function_exists(module, name):
    assert callable(getattr(importlib.import_module(f"qcorr.{module}"), name, None))


@pytest.mark.parametrize("module, name", REMOVED)
def test_removed_hook_reads_absent(module, name):
    assert getattr(importlib.import_module(f"qcorr.{module}"), name, None) is None


def test_single_state_discord_reports_int_evals():
    # the tracer's discord note reads int(result.evals)
    report = correlations.discord(states.make_werner(0.5))
    assert type(report.evals) is int


def _kernel_calls(monkeypatch, rho):
    """Calls of each hooked kernel entry point made by ``discord(rho)``."""
    calls = {"measured_info": 0, "measured_info_grid": 0}
    for name in calls:
        original = getattr(_kernel, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(_kernel, name, counted)
    correlations.discord(rho)
    return calls


def test_generic_discord_reaches_the_kernel_through_its_hooks(monkeypatch):
    rho = oracles.random_density_matrix(np.random.default_rng(7))
    calls = _kernel_calls(monkeypatch, rho)
    assert calls["measured_info_grid"] == 1
    assert calls["measured_info"] >= 2


def test_generic_discord_counts_evaluations_per_kernel_call(monkeypatch):
    # the grid (168 directions) and the start probes (3 starts x 15 stencil
    # points), then 90 evaluations (3 starts x 2 candidates x 15) per round,
    # one measured_info call each
    rho = oracles.random_density_matrix(np.random.default_rng(7))
    calls = _kernel_calls(monkeypatch, rho)
    rounds = calls["measured_info"] - 1
    assert correlations.discord(rho).evals == 168 + 45 + 90 * rounds


def test_bell_diagonal_discord_makes_one_kernel_call(monkeypatch):
    calls = _kernel_calls(monkeypatch, states.make_bell_diagonal([0.2, -0.6, 0.3]))
    assert calls == {"measured_info": 1, "measured_info_grid": 0}


def test_import_loads_neither_scipy_nor_numpy_random():
    code = (
        "import sys, qcorr; "
        "print(sorted(m for m in sys.modules "
        "if m.split('.')[0] == 'scipy' or m.startswith('numpy.random')))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(qcorr.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
