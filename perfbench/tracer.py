"""Outside-in tracing of qcorr's layers.

The tracer replaces selected public functions at their module attribute
(``qcorr.operators.decompose``, ``qcorr._kernel.measured_info`` and so on)
with wrappers that record one span per call: name, start, end, parent
span, op id and an optional note.  Because the library calls across its
modules through module attributes, internal calls are captured too.  The
same object is also replaced in the ``qcorr`` package namespace, so
``qcorr.discord`` goes through the wrapper as well.

A hooked function that a later version of the package no longer has is
skipped; the metrics that need it are reported as absent (``None``).

Spans stay in memory until :func:`layer_metrics` summarizes them and the
caller writes them out at the end of the run.
"""

import functools
import importlib
import json
import os
import time

# module (under qcorr) -> functions to wrap
HOOKS = {
    "states": ("validate", "load_state", "check_state"),
    "operators": ("decompose", "require_density_matrix", "von_neumann_entropy"),
    "witness": ("witness_value",),
    "entanglement": ("entanglement_report",),
    "nmr": ("witness_via_protocol", "transform_states", "run_protocol"),
    "correlations": ("discord", "mutual_information", "classical_correlation"),
    "_kernel": ("measured_info", "measured_info_grid"),
    "cli": ("main",),
}

# layer name used in metric names, per module
LAYERS = {module: module.lstrip("_") for module in HOOKS}


def _discord_note(args, kwargs, result):
    return int(result.evals)


def _cli_note(args, kwargs, result):
    argv = args[0] if args else kwargs.get("argv")
    return argv[0] if argv else None


# notes recorded on a span from the call's arguments and result
NOTES = {"correlations.discord": _discord_note, "cli.main": _cli_note}


class Tracer:
    """Span recorder for one process.  Spans are lists
    ``[name, start_ns, end_ns, parent_index, op, note]``."""

    def __init__(self):
        self.spans = []
        self.op = -1
        self.hooked = set()
        self.absent = set()
        self._stack = []
        self._restore = []

    def install(self):
        import qcorr

        for module_name, names in HOOKS.items():
            layer = LAYERS[module_name]
            try:
                module = importlib.import_module(f"qcorr.{module_name}")
            except ImportError:
                self.absent.update(f"{layer}.{name}" for name in names)
                continue
            for name in names:
                span_name = f"{layer}.{name}"
                original = getattr(module, name, None)
                if not callable(original):
                    self.absent.add(span_name)
                    continue
                wrapper = self._wrap(span_name, original)
                for namespace in (module, qcorr):
                    if getattr(namespace, name, None) is original:
                        setattr(namespace, name, wrapper)
                        self._restore.append((namespace, name, original))
                self.hooked.add(span_name)

    def uninstall(self):
        for namespace, name, original in reversed(self._restore):
            setattr(namespace, name, original)
        self._restore.clear()

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"hooked": sorted(self.hooked), "absent": sorted(self.absent),
                 "spans": self.spans},
                fh,
            )

    def merge_file(self, path, op):
        """Append the spans another process dumped to ``path`` (then
        removed), as op ``op``."""
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        os.remove(path)
        offset = len(self.spans)
        for name, start, end, parent, _, note in data["spans"]:
            self.spans.append(
                [name, start, end, parent + offset if parent >= 0 else -1, op, note]
            )
        self.hooked.update(data["hooked"])
        self.absent.update(data["absent"])

    def _wrap(self, span_name, original):
        spans = self.spans
        stack = self._stack
        note = NOTES.get(span_name)
        clock = time.perf_counter_ns

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = [span_name, clock(), 0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if note is not None:
                span[5] = note(args, kwargs, result)
            return result

        return wrapper


def _summarize(spans):
    """Per span name: calls, inclusive ns, self ns, notes."""
    inclusive = [s[2] - s[1] for s in spans]
    child_ns = [0] * len(spans)
    for s, dur in zip(spans, inclusive):
        if s[3] >= 0:
            child_ns[s[3]] += dur
    table = {}
    for s, dur, kids in zip(spans, inclusive, child_ns):
        row = table.setdefault(s[0], {"calls": 0, "ns": 0, "self_ns": 0, "notes": []})
        row["calls"] += 1
        row["ns"] += dur
        row["self_ns"] += dur - kids
        if s[5] is not None:
            row["notes"].append(s[5])
    return table


def layer_metrics(spans, ops, hooked, count_ops):
    """Per-op layer metrics from the spans of traced ops ``0 .. ops - 1``.

    Values are per op unless the name says otherwise.  Times are averaged
    over all ``ops``; counts only over the first ``count_ops`` ops, which
    are the same inputs for a given seed, so they repeat exactly.  A
    metric whose hook is not installed is ``None``.
    """
    table = _summarize(spans)
    counted = _summarize([s[:3] + [-1] + s[4:] for s in spans if s[4] < count_ops])
    empty = {"calls": 0, "ns": 0, "self_ns": 0, "notes": []}

    def row(name, source=table):
        return source.get(name, empty) if name in hooked else None

    def per_op(name, field, scale):
        r = row(name)
        return None if r is None else r[field] * scale / ops

    def us(name):
        return per_op(name, "ns", 1e-3)

    def ms(name):
        return per_op(name, "ns", 1e-6)

    def calls(name):
        r = row(name, counted)
        return None if r is None else r["calls"] / count_ops

    def self_ms(name):
        return per_op(name, "self_ns", 1e-6)

    def total_ms(*names):
        parts = [ms(name) for name in names]
        return None if None in parts else sum(parts)

    scalar = row("kernel.measured_info")
    discord = row("correlations.discord", counted)
    cc = row("correlations.classical_correlation", counted)
    metrics = {
        "states.validate_us": us("states.validate"),
        "states.validate_calls": calls("states.validate"),
        "states.load_state_us": us("states.load_state"),
        "operators.decompose_us": us("operators.decompose"),
        "operators.decompose_calls": calls("operators.decompose"),
        "operators.require_density_matrix_calls": calls(
            "operators.require_density_matrix"
        ),
        "operators.von_neumann_entropy_us": us("operators.von_neumann_entropy"),
        "witness.witness_value_us": us("witness.witness_value"),
        "entanglement.entanglement_report_us": us("entanglement.entanglement_report"),
        "nmr.witness_via_protocol_us": us("nmr.witness_via_protocol"),
        "nmr.transform_states_us": us("nmr.transform_states"),
        "nmr.run_protocol_us": us("nmr.run_protocol"),
        "correlations.mutual_information_us": us("correlations.mutual_information"),
        "correlations.classical_correlation_ms": ms(
            "correlations.classical_correlation"
        ),
        "correlations.evals_per_op": None
        if discord is None
        else sum(discord["notes"]) / count_ops,
        "correlations.coarse_grid_us": us("kernel.measured_info_grid"),
        "correlations.refine_self_ms": self_ms("correlations.classical_correlation"),
        "correlations.optimizer_failures": None
        if cc is None
        else cc["notes"].count("OptimizerFailureError") / count_ops,
        "kernel.scalar_calls_per_op": calls("kernel.measured_info"),
        "kernel.scalar_us": None
        if scalar is None
        else scalar["ns"] * 1e-3 / max(scalar["calls"], 1),
        "kernel.busy_ms_per_op": total_ms(
            "kernel.measured_info", "kernel.measured_info_grid"
        ),
    }
    main = row("cli.main")
    for command in ("classify", "nmr-verify", "sweep-werner"):
        value = None
        if main is not None:
            durations = [
                s[2] - s[1] for s in spans if s[0] == "cli.main" and s[5] == command
            ]
            value = sum(durations) * 1e-6 / len(durations) if durations else 0.0
        metrics[f"cli.main_ms.{command}"] = value
    for module_name, layer in LAYERS.items():
        names = [f"{layer}.{name}" for name in HOOKS[module_name]]
        hooked_here = [name for name in names if name in hooked]
        metrics[f"{layer}.self_ms"] = (
            sum(table.get(name, empty)["self_ns"] for name in hooked_here) * 1e-6 / ops
            if hooked_here
            else None
        )
    metrics["trace.spans_per_op"] = sum(r["calls"] for r in counted.values()) / count_ops
    return metrics
