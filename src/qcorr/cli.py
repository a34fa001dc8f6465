"""Command-line interface.

Subcommands:

* ``classify``     witness verdict for a state file; the exit code encodes
                   the verdict (0 classical, 1 nonclassical, 2 inconclusive)
* ``sweep-werner`` singlet-mixture sweep over the mixing parameter,
                   emitted as CSV or JSON
* ``nmr-verify``   run the readout protocol on a state file and compare
                   against the exact correlations

Exit codes above 2 signal errors: 64 for unparsable input or usage
problems, 65 for an invalid state, 66 for a state outside the
diagonal-correlation class.  Numbers are printed with 12 significant
digits and all diagnostics go to stderr.
"""

import argparse
import csv
import io
import json
import sys

import numpy as np

from . import correlations as corr
from . import entanglement as ent
from . import nmr
from . import operators as op
from . import states
from . import witness as wit
from .exceptions import InvalidStateError, OutOfClassError

EXIT_CLASSICAL = 0
EXIT_NONCLASSICAL = 1
EXIT_INCONCLUSIVE = 2
EXIT_PARSE = 64
EXIT_INVALID_STATE = 65
EXIT_OUT_OF_CLASS = 66

_VERDICT_EXIT = {
    wit.Verdict.CLASSICAL: EXIT_CLASSICAL,
    wit.Verdict.NONCLASSICAL: EXIT_NONCLASSICAL,
    wit.Verdict.INCONCLUSIVE: EXIT_INCONCLUSIVE,
}


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage failures exit with the parse-error code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message}\n")


def _fmt(value):
    """Format a float with 12 significant digits."""
    return f"{value:.12g}"


def _round12(value):
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, float):
        return value
    return float(_fmt(value))


def _round_record(record):
    return {key: _round12(val) for key, val in record.items()}


def cmd_classify(args):
    rho = states.load_state(args.state_file)
    report = wit.witness_value(
        rho,
        mode=args.mode,
        n_trials=args.trials,
        seed=args.seed,
        tol=args.tol,
    )
    record = _round_record(report.to_dict())
    json.dump(record, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return _VERDICT_EXIT[report.verdict]


def _parse_alphas(text):
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"expected start:stop:count, got {text!r}")
    start, stop = float(parts[0]), float(parts[1])
    count = int(parts[2])
    if count < 2:
        raise ValueError("count must be at least 2")
    if not (0.0 <= start <= stop <= 1.0):
        raise ValueError("range must satisfy 0 <= start <= stop <= 1")
    return np.linspace(start, stop, count)


def cmd_sweep_werner(args):
    alphas = _parse_alphas(args.alphas)
    werner = np.array([states.make_werner(float(alpha)) for alpha in alphas])
    # one batched basis search for the whole grid
    searches = (
        corr.classical_correlation(werner)
        if args.with_discord
        else [None] * len(werner)
    )
    rows = []
    for alpha, rho, search in zip(alphas, werner, searches):
        report = wit.witness_value(rho)
        ent_report = ent.entanglement_report(rho)
        mutual = corr.mutual_information(rho)
        row = {
            "alpha": float(alpha),
            "W": report.value,
            "discord": None
            if search is None
            else corr.DiscordReport.split(mutual, search).discord,
            "mutual_info": mutual,
            "negativity": ent_report.negativity,
            "chsh_max": ent_report.chsh_max,
        }
        rows.append(_round_record(row))

    notes = [ent.CHSH_THRESHOLD_NOTE]
    if args.format == "json":
        payload = {"schema_version": "1", "rows": rows, "notes": notes}
        text = json.dumps(payload, indent=2) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(
            ["alpha", "W", "discord", "mutual_info", "negativity", "chsh_max"]
        )
        for row in rows:
            writer.writerow(
                [
                    _fmt(row["alpha"]),
                    _fmt(row["W"]),
                    "" if row["discord"] is None else _fmt(row["discord"]),
                    _fmt(row["mutual_info"]),
                    _fmt(row["negativity"]),
                    _fmt(row["chsh_max"]),
                ]
            )
        text = buf.getvalue()

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    for note in notes:
        print(f"note: {note}", file=sys.stderr)
    return 0


def cmd_nmr_verify(args):
    rho = states.load_state(args.state_file)
    wit._require_in_class(op.decompose(rho))
    run = nmr.run_protocol(rho, shots=args.shots, seed=args.seed)
    record = run.to_dict()
    record = {
        key: [_round12(v) for v in val] if isinstance(val, list) else _round12(val)
        for key, val in record.items()
    }
    json.dump(record, sys.stdout, indent=2)
    sys.stdout.write("\n")
    if run.shots is None:
        ok = all(r <= nmr.EXACT_RESIDUAL_TOL for r in run.residuals)
    else:
        # the plug-in stderr underestimates near |m| = 1, hence the floor
        floor = 1.0 / run.shots
        ok = all(
            r <= nmr.SAMPLED_RESIDUAL_SIGMAS * max(err, floor)
            for r, err in zip(run.residuals, run.stderrs)
        )
    if not ok:
        print("error: residuals exceed the mode threshold", file=sys.stderr)
        return 1
    return 0


def build_parser():
    parser = _Parser(prog="qcorr", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser(
        "classify", help="witness verdict for a state file"
    )
    p_classify.add_argument("state_file", help="JSON state file")
    p_classify.add_argument(
        "--tol", type=float, default=wit.ZERO_TOL, help="witness zero threshold"
    )
    p_classify.add_argument(
        "--mode",
        choices=["deterministic", "randomized"],
        default="deterministic",
        help="witness evaluation mode",
    )
    p_classify.add_argument(
        "--trials", type=int, default=5, help="direction pairs in randomized mode"
    )
    p_classify.add_argument("--seed", type=int, default=None)
    p_classify.set_defaults(func=cmd_classify)

    p_sweep = sub.add_parser(
        "sweep-werner", help="sweep the singlet mixture over its mixing parameter"
    )
    p_sweep.add_argument(
        "--alphas",
        default="0:1:101",
        help="grid as start:stop:count (default 0:1:101)",
    )
    p_sweep.add_argument(
        "--format", choices=["csv", "json"], default="csv", help="output format"
    )
    p_sweep.add_argument("--out", default=None, help="write to file instead of stdout")
    p_sweep.add_argument(
        "--with-discord",
        action="store_true",
        help="also compute the discord column (slower)",
    )
    p_sweep.set_defaults(func=cmd_sweep_werner)

    p_nmr = sub.add_parser(
        "nmr-verify", help="run the readout protocol against a state file"
    )
    p_nmr.add_argument("state_file", help="JSON state file")
    p_nmr.add_argument(
        "--shots", type=int, default=None, help="sample instead of exact readout"
    )
    p_nmr.add_argument("--seed", type=int, default=None)
    p_nmr.set_defaults(func=cmd_nmr_verify)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        # argparse signals through SystemExit; normalize to a return value so
        # callers and the console script see one contract
        return exc.code if isinstance(exc.code, int) else EXIT_PARSE
    except OutOfClassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_OUT_OF_CLASS
    except InvalidStateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_STATE
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
