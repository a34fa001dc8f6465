"""The benchmark's tracer finds every qcorr function it hooks.

``perfbench/tracer.py`` wraps qcorr functions by module and name; a name
that a refactor removes or renames silently turns its per-layer metrics
into nulls.  This test reads the tracer's ``HOOKS`` table (without
installing anything) and checks each name against the package.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from qcorr import correlations, states

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _hooks():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.HOOKS


@pytest.mark.parametrize(
    "module, name",
    [(module, name) for module, names in _hooks().items() for name in names],
)
def test_hooked_function_exists(module, name):
    assert callable(getattr(importlib.import_module(f"qcorr.{module}"), name, None))


def test_single_state_discord_reports_int_evals():
    # the tracer's discord note reads int(result.evals)
    report = correlations.discord(states.make_werner(0.5))
    assert type(report.evals) is int
