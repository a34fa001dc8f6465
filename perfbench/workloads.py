"""The three closed-loop workloads: seeded inputs, one op, and its check.

Each workload draws a pool of inputs from its seed, item by item, so item
``k`` does not depend on the pool size; op ``i`` uses item ``i`` modulo the
pool size.  ``run(i)`` is the only code inside the timed region.
``check(i, output)`` runs after it, untimed, against :mod:`oracle`, and
returns a description of the first mismatch or ``None``.

Why each workload exists and which layers it loads is in ``README.md``
next to this file.
"""

import json
import os
import resource
import subprocess
import sys
import threading

import numpy as np

import common
import oracle

# the protocol's verdict strings, as printed by `qcorr classify`
CLASSICAL = "ClassicalCertified"
NONCLASSICAL = "NonclassicalCertified"
INCONCLUSIVE = "Inconclusive"
EXPECTED_VERDICT = {
    "chi": CLASSICAL,
    "bell": NONCLASSICAL,
    "general": INCONCLUSIVE,
}

CLI_TIMEOUT_S = 60
# chance that a sound sampler's estimate falls outside the Hoeffding bound
# that ``CertifyInclass._check_sampled`` allows
HOEFFDING_FAILURE = 1e-12


def _close(actual, expected, tol):
    return abs(float(actual) - float(expected)) <= tol * max(1.0, abs(float(expected)))


def _mismatch(label, actual, expected, tol):
    if _close(actual, expected, tol):
        return None
    return f"{label} = {float(actual)!r}, expected {float(expected)!r} (tol {tol:g})"


# ------------------------------------------------------------ state samplers


def ginibre(rng):
    """Generic full-rank state G G^dagger / Tr, G complex Gaussian."""
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m = g @ g.conj().T
    m = (m + m.conj().T) / 2.0
    return m / np.trace(m).real


def _unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def random_bell(rng):
    """Like-axis correlations of a Bell-diagonal state, uniform on the
    tetrahedron (Dirichlet spectrum)."""
    # c_k = sum_j lambda_j s_jk inverts lambda_j = (1 + s_j . c) / 4
    return oracle.BELL_SIGNS.T @ rng.dirichlet(np.ones(4))


def degenerate_bell(rng, kind):
    """Bell-diagonal correlations with a degenerate discord landscape:
    ``werner`` has |c1| = |c2| = |c3|, ``circle`` two equal largest |c|."""
    if kind == "werner":
        return np.full(3, -rng.uniform(0.05, 1.0))
    while True:
        a = rng.uniform(0.05, 1.0)
        c = np.array([a, a, rng.uniform(-a, a) * 0.9])
        c *= rng.choice([-1.0, 1.0], size=3)
        c = rng.permutation(c)
        if np.min(oracle.bell_eigenvalues(c)) >= 0.0:
            return c


def chi_state(rng):
    """Classically correlated (zero-witness) coordinates: one like-axis
    correlation only (chi1..chi3) or local Bloch vectors only (chi4)."""
    x, y, c = np.zeros(3), np.zeros(3), np.zeros(3)
    form = int(rng.integers(4))
    if form < 3:
        c[form] = rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 1.0)
    else:
        nx = rng.uniform(0.1, 0.6)
        x = nx * _unit(rng)
        y = rng.uniform(0.1, 0.95 - nx) * _unit(rng)
    return x, y, c


def general_in_class(rng):
    """Diagonal-correlation state with nonzero Bloch vectors and at least
    two nonzero correlations, bounded away from the positivity edge."""
    while True:
        x = rng.uniform(0.05, 0.4) * _unit(rng)
        y = rng.uniform(0.05, 0.4) * _unit(rng)
        c = rng.uniform(0.05, 0.6, 3) * rng.choice([-1.0, 1.0], size=3)
        rho = oracle.from_coordinates(x, y, np.diag(c))
        if np.linalg.eigvalsh(rho)[0] >= 1e-3:
            return x, y, c


class _Item:
    """One pool entry: a state plus what the checks need to know about it."""

    def __init__(self, kind, x=None, y=None, c=None, rho=None, **extra):
        self.kind = kind
        self.x, self.y, self.c = x, y, c
        if rho is None and c is not None:
            rho = oracle.from_coordinates(x, y, np.diag(c))
        self.rho = rho
        self.__dict__.update(extra)


class _Workload:
    # whether ops return sampled verdicts whose false certificates are counted
    sampled_verdicts = False

    def __init__(self, qcorr, seed, size, workdir):
        self.qcorr = qcorr
        rng = np.random.default_rng([seed, self.stream])
        self.pool = [self._draw(k, rng) for k in range(size)]
        self.workdir = workdir
        # ops, and pool inputs, whose output passed its checks but carried a
        # false certificate; an input's verdict is the same on every repetition
        self.false_certificate_ops = 0
        self.false_certificate_inputs = set()

    def item(self, i):
        return self.pool[i % len(self.pool)]

    def peak_rss_mb(self):
        """Peak resident memory of the process that runs the ops."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def start_trace(self, tracer):
        tracer.install()

    def stop_trace(self, tracer):
        tracer.uninstall()


# ------------------------------------------------------------ discord-random


class DiscordRandom(_Workload):
    """op = ``qcorr.discord(rho)`` on one state."""

    name = "discord-random"
    stream = 1
    # 100 inputs: the fewest that leave 10 beyond p90, so each recurs as
    # often as possible in a run
    pool_size = 100
    # repetitions per input that the latency estimate uses
    repeats = 10
    # traced ops over which per-op counts are taken (five Bell-diagonal cycles)
    count_ops = 100
    # ops checked against the dense matrix-route grid (first ops of a run)
    dense_sample = 10

    def _draw(self, k, rng):
        if k % 5 != 4:
            return _Item("generic", rho=ginibre(rng))
        shape = ("werner", "circle", "random", "random")[(k // 5) % 4]
        c = random_bell(rng) if shape == "random" else degenerate_bell(rng, shape)
        return _Item("bell", np.zeros(3), np.zeros(3), c)

    def run(self, i):
        return self.qcorr.discord(self.item(i).rho)

    def check(self, i, report):
        item = self.item(i)
        mutual, j_star, disc = report.mutual_info, report.classical, report.discord
        if item.kind == "bell":
            ref = oracle.luo_bell_diagonal(item.c)
            return (
                _mismatch("I", mutual, ref[0], 1e-9)
                or _mismatch("J*", j_star, ref[1], 1e-6)
                or _mismatch("D", disc, ref[2], 1e-6)
            )
        problem = _mismatch("I", mutual, oracle.mutual_information(item.rho), 1e-9)
        if problem:
            return problem
        if not 0.0 <= disc <= mutual + 1e-12:
            return f"D = {disc!r} outside [0, I = {mutual!r}]"
        if disc > 0.0:
            problem = _mismatch("D", disc, mutual - j_star, 1e-9)
            if problem:
                return problem
        n = oracle.directions(report.basis.theta, report.basis.phi)
        at_basis = oracle.measured_information(item.rho, n)[0]
        problem = _mismatch("J at the reported basis", at_basis, j_star, 1e-9)
        if problem or i >= self.dense_sample:
            return problem
        grid = oracle.grid_maximum(item.rho)
        if j_star < grid - 1e-4:
            return f"J* = {j_star!r} below the dense-grid maximum {grid!r}"
        return None


# ------------------------------------------------------------ certify-inclass


class CertifyInclass(_Workload):
    """op = the witness-first path on one diagonal-correlation state:
    validate -> witness_value -> entanglement_report -> mutual_information
    -> witness_via_protocol(shots, seed).  Never calls discord."""

    name = "certify-inclass"
    stream = 2
    sampled_verdicts = True
    # 256 inputs leave 25 beyond p90 and let each recur 40 times in a run
    pool_size = 256
    repeats = 40
    count_ops = 1024
    # slot (k mod 10) -> state class; slot 9 is the low-shot readout of a
    # zero-discord state
    slots = ("chi", "chi", "chi", "bell", "bell", "bell",
             "general", "general", "general", "chi-lowshot")

    def _draw(self, k, rng):
        slot = self.slots[k % 10]
        if slot.startswith("chi"):
            x, y, c = chi_state(rng)
            kind = "chi"
        elif slot == "bell":
            x, y, c = np.zeros(3), np.zeros(3), random_bell(rng)
            kind = "bell"
        else:
            x, y, c = general_in_class(rng)
            kind = "general"
        if slot == "chi-lowshot":
            shots = int(rng.choice([1, 3, 10]))
        else:
            shots = int(rng.choice([256, 1024, 4096]))
        item = _Item(kind, x, y, c, shots=shots, shot_seed=int(rng.integers(2**31)))
        item.witness = oracle.deterministic_witness(x, y, c)
        item.mutual = oracle.mutual_information(item.rho)
        return item

    def run(self, i):
        q = self.qcorr
        item = self.item(i)
        rho = item.rho
        return (
            q.validate(rho),
            q.witness_value(rho),
            q.entanglement_report(rho),
            q.mutual_information(rho),
            q.witness_via_protocol(rho, shots=item.shots, seed=item.shot_seed),
        )

    def check(self, i, output):
        item = self.item(i)
        validity, witness, ent, mutual, sampled = output
        if not (validity.valid and validity.in_diagonal_class):
            return f"validate rejected an in-class state: {validity.to_dict()}"
        problem = _mismatch("W", witness.value, item.witness, 1e-9) or _mismatch(
            "I", mutual, item.mutual, 1e-9
        )
        if problem:
            return problem
        expected = EXPECTED_VERDICT[item.kind]
        if witness.verdict.value != expected:
            return f"verdict {witness.verdict.value} for a {item.kind} state"
        if item.kind == "bell":
            problem = _mismatch(
                "negativity", ent.negativity, oracle.bell_negativity(item.c), 1e-9
            )
            if problem:
                return problem
        if item.kind == "chi" and not ent.ppt:
            return "a classically correlated state is reported entangled"
        problem = self._check_sampled(item, sampled)
        if problem is None and _false_certificate(item.kind, sampled.verdict.value):
            self.false_certificate_ops += 1
            self.false_certificate_inputs.add(i % len(self.pool))
        return problem

    @staticmethod
    def _check_sampled(item, report):
        """What any sound shot-sampled readout must satisfy.

        The three like-axis estimates are means of ``shots`` +-1 readings,
        each within a Hoeffding bound of the exact correlation that fails
        with probability below 1e-12; e4 is a sum of two such means; W is
        sum_{i<j} |e_i e_j| of the reported estimates; and only a
        Bell-diagonal state can be certified Nonclassical.  The decision
        rule itself is not checked here: its false certificates are
        counted instead (see ``_false_certificate``).
        """
        if report.mode != "protocol-sampled":
            return f"sampled protocol reported mode {report.mode!r}"
        n = item.shots
        slack = np.sqrt(2.0 * np.log(2.0 / HOEFFDING_FAILURE) / n)
        e = [float(v) for v in report.expectations]
        for axis in range(3):
            counts = (e[axis] + 1.0) * n / 2.0
            if abs(counts - round(counts)) > 1e-6 * n or abs(e[axis]) > 1.0 + 1e-12:
                return f"e{axis + 1} = {e[axis]!r} is not a mean of {n} +-1 readings"
            exact = float(item.c[axis])
            if abs(e[axis] - exact) > slack:
                return (f"e{axis + 1} = {e[axis]!r} is {abs(e[axis] - exact):.3g} "
                        f"from the exact {exact!r} at {n} shots")
        halves = e[3] * n / 2.0
        local = float(np.linalg.norm(item.x) + np.linalg.norm(item.y))
        if abs(halves - round(halves)) > 1e-6 * n or abs(e[3]) > local + 2.0 * slack:
            return f"e4 = {e[3]!r} is not a sum of two readouts of |x| + |y| = {local!r}"
        problem = _mismatch("sampled W", report.value, oracle.pairwise_product_sum(e), 1e-9)
        if problem:
            return problem
        stderr = report.value_stderr
        if stderr is None or not np.isfinite(stderr) or stderr < 0.0:
            return f"sampled W has standard error {stderr!r}"
        verdict = report.verdict.value
        if verdict not in (CLASSICAL, NONCLASSICAL, INCONCLUSIVE):
            return f"sampled verdict {verdict!r}"
        if verdict == NONCLASSICAL and local > 0.0:
            return "sampled Nonclassical verdict on a state with local Bloch vectors"
        return None


def _false_certificate(kind, verdict):
    """A sampled verdict that contradicts the state's known class: Classical
    on a state with nonzero witness, or Nonclassical on a classical one."""
    return (verdict == CLASSICAL and kind != "chi") or (
        verdict == NONCLASSICAL and kind == "chi"
    )


# ------------------------------------------------------------ cli-session


class CliSession(_Workload):
    """op = one whole ``python -m qcorr ...`` process, run one at a time,
    rotating classify / nmr-verify / sweep-werner --with-discord."""

    name = "cli-session"
    stream = 3
    pool_size = 12
    repeats = 3
    # one full rotation: 3 commands x 4 classify state kinds
    count_ops = 12
    classify_kinds = (("werner", 1), ("chi", 0), ("general", 2), ("outclass", 66))
    nmr_kinds = ("werner", "chi", "general")

    def __init__(self, qcorr, seed, size, workdir):
        self.tracer = None
        self.child_peak_rss_kb = 0
        super().__init__(qcorr, seed, size, workdir)
        for item in self.pool:
            if hasattr(item, "path"):
                self._write_state(item)

    def _state(self, kind, rng):
        if kind == "werner":
            return _Item(kind, np.zeros(3), np.zeros(3), np.full(3, -rng.uniform(0.05, 1.0)))
        if kind == "chi":
            return _Item(kind, *chi_state(rng))
        if kind == "general":
            return _Item(kind, *general_in_class(rng))
        return _Item(kind, rho=ginibre(rng))

    def _draw(self, k, rng):
        command = k % 3
        turn = k // 3
        if command == 0:
            kind, exit_code = self.classify_kinds[turn % 4]
            item = self._state(kind, rng)
            item.path = f"state-{k}.json"
            item.argv = ["classify", item.path]
            item.exit_code = exit_code
            if kind != "outclass":
                item.witness = oracle.deterministic_witness(item.x, item.y, item.c)
            return item
        if command == 1:
            item = self._state(self.nmr_kinds[turn % 3], rng)
            item.path = f"state-{k}.json"
            item.shots = int(rng.choice([100, 1000, 10000]))
            item.shot_seed = int(rng.integers(2**31))
            item.argv = [
                "nmr-verify", item.path,
                "--shots", str(item.shots), "--seed", str(item.shot_seed),
            ]
            item.exit_code = 0
            return item
        start, stop = rng.uniform(0.0, 0.3), rng.uniform(0.7, 1.0)
        item = _Item("sweep")
        item.alphas = f"{start:.4f}:{stop:.4f}:5"
        item.argv = ["sweep-werner", "--with-discord", "--alphas", item.alphas]
        item.exit_code = 0
        return item

    def _write_state(self, item):
        entries = [[float(z.real), float(z.imag)] for z in item.rho.reshape(-1)]
        with open(f"{self.workdir}/{item.path}", "w", encoding="utf-8") as fh:
            json.dump({"matrix": entries}, fh)

    def start_trace(self, tracer):
        self.tracer = tracer

    def stop_trace(self, tracer):
        self.tracer = None

    def run(self, i):
        argv = self.item(i).argv
        if self.tracer is None:
            cmd = [sys.executable, "-m", "qcorr", *argv]
        else:
            spans_file = f"{self.workdir}/spans-{i}.json"
            cmd = [sys.executable, str(common.BENCH_DIR / "child.py"),
                   "cli-trace", spans_file, *argv]
        returncode, stdout, rss_kb = _run_child(cmd, self.workdir)
        self.child_peak_rss_kb = max(self.child_peak_rss_kb, rss_kb)
        if self.tracer is not None:
            self.tracer.merge_file(spans_file, op=i)
        return returncode, stdout

    def peak_rss_mb(self):
        """Peak resident memory of the largest qcorr process run so far."""
        return self.child_peak_rss_kb / 1024.0

    def check(self, i, output):
        item = self.item(i)
        returncode, stdout = output
        if returncode != item.exit_code:
            return f"{item.argv[0]} exited {returncode}, expected {item.exit_code}"
        if item.argv[0] == "classify":
            if returncode == 66:
                return None
            record = json.loads(stdout)
            expected = EXPECTED_VERDICT["bell" if item.kind == "werner" else item.kind]
            if record["verdict"] != expected:
                return f"classify verdict {record['verdict']} for a {item.kind} state"
            return _mismatch("W", record["W"], item.witness, 1e-9)
        if item.argv[0] == "nmr-verify":
            record = json.loads(stdout)
            if record["shots"] != item.shots or record["seed"] != item.shot_seed:
                return f"nmr-verify echoed shots/seed {record['shots']}/{record['seed']}"
            measured = (record["m_eta"], record["m_zeta"], record["m_xi"])
            for axis, (m, r, c) in enumerate(zip(measured, record["residuals"], item.c)):
                problem = _mismatch(f"residual {axis}", r, abs(m - c), 1e-9)
                if problem:
                    return problem
            return None
        lines = stdout.strip().splitlines()
        header = "alpha,W,discord,mutual_info,negativity,chsh_max"
        if not lines or lines[0] != header:
            return f"sweep-werner header {lines[:1]!r}"
        start, stop, count = item.alphas.split(":")
        alphas = np.linspace(float(start), float(stop), int(count))
        if len(lines) - 1 != len(alphas):
            return f"sweep-werner printed {len(lines) - 1} rows, expected {len(alphas)}"
        columns = header.split(",")
        for line, alpha in zip(lines[1:], alphas):
            row = dict(zip(columns, (float(v) for v in line.split(","))))
            ref = oracle.werner_row(alpha)
            problem = _mismatch("alpha", row["alpha"], alpha, 1e-9)
            for key, tol in (("W", 1e-9), ("discord", 1e-6), ("mutual_info", 1e-9),
                             ("negativity", 1e-9), ("chsh_max", 1e-9)):
                problem = problem or _mismatch(f"{key} at alpha {alpha:.4f}", row[key], ref[key], tol)
            if problem:
                return problem
        return None


def _run_child(cmd, cwd):
    """Run ``cmd`` to completion, killing it after ``CLI_TIMEOUT_S``.

    Returns its exit code, its standard output and its own peak RSS in KiB
    (``ru_maxrss`` of the rusage that ``wait4`` returns for it), which
    set-up probes run by the benchmark in between do not enter.
    """
    with subprocess.Popen(cmd, cwd=cwd, env=common.child_env(), text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL) as proc:
        timer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            stdout = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            raise
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, stdout, usage.ru_maxrss


WORKLOADS = {cls.name: cls for cls in (DiscordRandom, CertifyInclass, CliSession)}


def make(name, qcorr, seed, workdir, size=None):
    cls = WORKLOADS[name]
    return cls(qcorr, seed, cls.pool_size if size is None else size, workdir)
