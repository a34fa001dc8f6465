"""Fresh-interpreter probes started by ``run.py``; not meant to be run by hand.

    child.py setup <workload> <seed> <workdir>
        import qcorr, then run the workload's first op; print the seconds
        both took together (the workload's set-up time) as JSON
    child.py import <module>
        print the seconds ``import <module>`` takes in a fresh interpreter
    child.py cli-trace <spans-file> <qcorr argv...>
        run ``qcorr.cli.main(argv)`` with the layer hooks installed, dump
        the spans to <spans-file> and exit with main's return code
"""

import json
import sys
import time

import common  # pins the thread pools before anything imports NumPy


def _setup(workload, seed, workdir):
    start = time.perf_counter()
    qcorr = common.use_checkout_sources()
    imported = time.perf_counter() - start

    import workloads

    wl = workloads.make(workload, qcorr, int(seed), workdir, size=1)
    start = time.perf_counter()
    wl.run(0)
    print(json.dumps({"setup_s": imported + time.perf_counter() - start}))
    return 0


def _import(module):
    start = time.perf_counter()
    __import__(module)
    print(json.dumps({"import_s": time.perf_counter() - start}))
    return 0


def _cli_trace(spans_file, *argv):
    from tracer import Tracer

    common.use_checkout_sources()
    tracer = Tracer()
    tracer.install()
    tracer.op = 0
    from qcorr import cli

    try:
        return cli.main(list(argv))
    finally:
        sys.stdout.flush()
        tracer.dump(spans_file)


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    sys.exit({"setup": _setup, "import": _import, "cli-trace": _cli_trace}[mode](*rest))
