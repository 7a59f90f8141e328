"""Closed-loop benchmark of the ``gdz`` command-line tool.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``. One client sends in-process ``gdrazin.cli.main([...])`` requests
back to back in a single process, with BLAS pinned to one thread. The
corpus is generated from ``--seed`` during set-up (``generate`` +
``save_instance``), and ``gdz`` only ever sees the generated files.

Workloads (every spec grid is 10 targets x lambda in {1/2, 3, i, -2} x
{valid, negated}):

  verify-small  ``gdz verify <instance>`` at dims {4, 8} over three spec
                seeds. Fixed per-request costs dominate: argument parsing,
                Python-level checks, tiny SVDs.
  verify-large  the same loop at dims {32, 64} (block matrices up to
                128 x 128). JSON parsing and n <= 128 SVDs dominate.
  gen-solve     ``gdz gen`` writes an instance, then ``gdz sum``/``gdz
                block`` solves it, at dim 32. The only workload using the
                write side of ``io``, the generator and report encoding.

Every output is checked. ``verify`` rows must report ``ok`` with the detail
kind the spec implies (match for valid, precondition tripped for negated).
Every ``sum``/``block`` result is checked against the three Drazin axioms in
plain numpy, without calling gdrazin. A spec the generator cannot realize
counts as a failed request. Known defects are kept in the grid and counted.

A *failed* request gave a wrong exit code, a wrong verdict, a failed output
check, or came from an unrealizable spec. The run is *correct* unless a
request gave a silent wrong answer: a success exit code whose verdict or
output is wrong. ``attempted`` and ``failed`` in the result count the
distinct requests of the grid, so they depend on the seed only.

Each pass sends every request of the grid once, interleaved by target and
dimension. The timed loop repeats passes for ``--seconds``, and finishes at
least one. Every time below is process CPU time (user + system), not wall
time, scaled to the speed of a quiet host (``HostClock``): the process is
single-threaded (BLAS pinned to one thread) and reads and writes only the
page cache, so CPU time leaves out only the time the host takes the CPU
away; the scaling takes out the slowdown other tenants impose on the CPU
itself, which a fixed probe measures around each timed step. End-to-end
metrics (``--trace 0``):

  setup_s         median of nine imports in a fresh interpreter, plus the
                  median of three corpus builds (each the sum of its
                  per-spec steps)
  requests_per_s  requests / sum of their latencies
  latency_ms_p50  median over requests; a request's latency is the best of
  latency_ms_p90  its repeats in the run (p90 has >= 10 samples above it)
  failed_frac     (failed requests + 1) / (requests + 1), over the distinct
                  requests of the grid; the add-one keeps it a usable ratio
                  on a workload with no failures
  peak_rss_mb     peak resident set size of this process

Per-layer metrics (``--trace 1``): one pass over the grid, a fixed amount of
work, so counts repeat exactly for a seed. Each request runs once untraced
and once traced (see ``tracer.py``); times are self times in ms summed over
the traced pass, and ``trace.overhead_frac`` compares the two halves. Spans
are written to ``.perfbench/traces/``.

The line before the result records the environment and request counts.
"""

import os
import sys
import time

# Pin BLAS to one thread before numpy loads it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
for _var in [v for v in os.environ if v.startswith("GDZ_TOL_")]:
    del os.environ[_var]  # the benchmark runs at the built-in tolerances

import argparse
import contextlib
import ctypes
import io
import itertools
import json
import math
import platform
import random
import resource
import shutil
import statistics
import subprocess
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tracer import Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"

LAMBDAS = {"1/2": 0.5, "3": 3.0, "i": 1j, "-2": -2.0}
SETUP_REPEATS = 3  # corpus builds
IMPORT_REPEATS = 9  # fresh-interpreter imports, cheap and noisier
WARMUP_REQUESTS = 10
# Bound on the sigma_max-normalized Drazin-axiom residuals of a result.
# Results on these workloads measure below 1e-13.
RESID_MAX = 1e-8

WORKLOADS = {
    "verify-small": {"mode": "verify", "dims": (4, 8), "spec_seeds": 3},
    "verify-large": {"mode": "verify", "dims": (32, 64), "spec_seeds": 1},
    "gen-solve": {"mode": "gen-solve", "dims": (32,), "spec_seeds": 1},
}


@dataclass(frozen=True)
class Spec:
    target: str
    dim: int
    lam: str  # as typed on the command line; see LAMBDAS
    seed: int
    negate: bool

    @property
    def label(self) -> str:
        kind = "neg" if self.negate else "valid"
        return f"{self.target}/d{self.dim}/lambda={self.lam}/{kind}/seed{self.seed}"

    @property
    def dirname(self) -> str:
        lam = self.lam.replace("/", "_").replace("-", "m")
        return f"{self.target}_d{self.dim}_l{lam}_s{self.seed}_{'neg' if self.negate else 'ok'}"


@dataclass
class Outcome:
    failure: str | None = None  # why the request failed, None if it passed
    silent: bool = False  # a success exit code with a wrong verdict or output


class Run:
    """Request results of one pass or timed loop.

    A request is one gdz call on one spec (``gen`` and ``solve`` of a spec
    are two requests), or the slot of an unrealizable spec; the loop repeats
    every request once per pass. ``attempted`` and ``failed`` count distinct
    requests, a request failing if any of its repeats failed, so both depend
    on the seed only and not on how many repeats the machine's speed allows.
    """

    def __init__(self):
        self.calls = 0
        self.busy_s = 0.0  # CPU time inside gdz calls
        # request -> (CPU seconds, host level) of each repeat; see HostClock
        self.samples: dict[str, list[tuple[float, float]]] = {}
        self.requests: set[str] = set()
        self.failures: Counter = Counter()  # "request: reason" -> repeats
        self.failed_requests: set[str] = set()
        self.silent: Counter = Counter()
        self.resid_max = 0.0
        self.report_bytes = 0

    @property
    def attempted(self) -> int:
        return len(self.requests)

    @property
    def failed(self) -> int:
        return len(self.failed_requests)

    def best_ms(self, clock: "HostClock | None") -> dict[str, float]:
        """Request -> its fastest repeat in ms, scaled to a quiet host by
        ``clock`` (raw CPU time without one)."""
        scale = clock.quiet_s if clock else (lambda cpu_s, level: cpu_s)
        return {request: 1e3 * min(scale(*sample) for sample in samples)
                for request, samples in self.samples.items()}

    def record(self, request: str, outcome: Outcome) -> None:
        self.requests.add(request)
        if outcome.failure is None:
            return
        self.failures[f"{request}: {outcome.failure}"] += 1
        self.failed_requests.add(request)
        if outcome.silent:
            self.silent[f"{request}: {outcome.failure}"] += 1


# ------------------------------------------------------------- environment

def blas_threads() -> int | None:
    """Thread count reported by the loaded OpenBLAS, if it can be queried."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(args, counts: dict) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "pinned_to_cpu": sorted(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "blas_library": f"{blas.get('name')} {blas.get('version')}",
        "numpy": np.__version__,
        "python": platform.python_version(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **counts,
    }


# ------------------------------------------------------------------ corpus

def spec_seeds(workload: str, seed: int, count: int) -> list[int]:
    rng = random.Random(f"{workload}/{seed}")
    return [rng.randrange(2**31) for _ in range(count)]


def spec_grid(targets, dims, seeds) -> list[Spec]:
    return [
        Spec(target, dim, lam, s, negate)
        for s in seeds
        for dim in dims
        for target in targets
        for lam in LAMBDAS
        for negate in (False, True)
    ]


def build_corpus(gd, specs: list[Spec], directory: Path, clock: "HostClock | None" = None):
    """Generate and save every spec: (corpus, seconds). In the corpus, None
    marks a spec the generator cannot realize. Each spec is timed by
    ``clock``; seconds is their quiet-host sum (0.0 without a clock)."""
    corpus, samples = {}, []

    def build(spec: Spec) -> Path | None:
        case_spec = gd.casegen.CaseSpec(
            target=spec.target, dim=spec.dim, lam=LAMBDAS[spec.lam],
            seed=spec.seed, negate=spec.negate,
        )
        try:
            case = gd.casegen.generate(case_spec)
        except gd.errors.GenerationFailed:
            return None
        path = directory / spec.dirname
        gd.io.save_instance(path, case)
        return path

    for spec in specs:
        if clock is None:
            corpus[spec] = build(spec)
        else:
            corpus[spec], *sample = clock.measure(build, spec)
            samples.append(sample)
    return corpus, samples


# ---------------------------------------------------------- output checks

def read_matrix(path: Path):
    return doc_matrix(json.loads(path.read_text()))


def doc_matrix(doc):
    pairs = np.asarray(doc["data"], dtype=float).reshape(-1, 2)
    return (pairs[:, 0] + 1j * pairs[:, 1]).reshape(doc["rows"], doc["cols"])


def instance_matrix(directory: Path, names):
    """The matrix a request solves: a + b for a pair, [[a, b], [c, d]] for blocks."""
    m = {n: read_matrix(directory / f"{n}.json") for n in names}
    if len(names) == 2:
        return m["a"] + m["b"]
    return np.block([[m["a"], m["b"]], [m["c"], m["d"]]])


def drazin_residual(m, x) -> float:
    """Largest Drazin-axiom residual of x for m, on m / sigma_max.

    x m x = x, m x = x m, m^(k+1) x = m^k with k = n, since any k >= index
    works. Normalizing keeps the powers bounded.
    """
    s = float(np.linalg.norm(m, 2))
    if s == 0.0:
        return float(np.linalg.norm(x))
    mh, xh = m / s, x * s
    mk = np.linalg.matrix_power(mh, m.shape[0])
    return max(
        float(np.linalg.norm(xh @ mh @ xh - xh)),
        float(np.linalg.norm(mh @ xh - xh @ mh)),
        float(np.linalg.norm(mh @ mk @ xh - mk)),
    )


def nilpotent_residual(m) -> float:
    s = float(np.linalg.norm(m, 2))
    if s == 0.0:
        return 0.0
    return float(np.linalg.norm(np.linalg.matrix_power(m / s, m.shape[0])))


# ------------------------------------------------------------ host clock

class HostClock:
    """CPU time scaled to the speed of a quiet host.

    On a shared virtual machine the CPU time of the same work swings by up
    to 1.6x for seconds to minutes while other tenants load the physical
    core and its caches. A run that falls in a busy stretch is slow
    throughout, so the best of its repeats does not escape it. A fixed
    probe (a 48 x 48 complex SVD and a short Python loop, about 0.6 ms)
    slows down with the host. ``measure`` takes the host's *level*, the best
    of two probes, just before and just after a step; ``quiet_s`` divides
    the step's CPU time by the mean of the two, relative to the lowest
    level seen in this process. Probes are short enough to find quiet
    moments even on a busy host, so that lowest level is the same from run
    to run. Scale a sample only once the run has ended, when the lowest
    level is final.
    """

    CALIBRATION_LEVELS = 100

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((48, 48)) + 1j * rng.standard_normal((48, 48))
        self.quiet = math.inf
        self.levels: list[float] = []  # every level taken around a step
        for _ in range(self.CALIBRATION_LEVELS):
            self.level()

    def probe(self) -> float:
        t0 = time.process_time()
        np.linalg.svd(self._a)
        acc = 0
        for i in range(3000):
            acc += i * i
        return time.process_time() - t0

    def level(self) -> float:
        level = min(self.probe(), self.probe())
        self.quiet = min(self.quiet, level)
        return level

    def measure(self, fn, *args):
        """(fn(*args), CPU seconds it took, host level around it)."""
        before = self.level()
        t0 = time.process_time()
        result = fn(*args)
        cpu_s = time.process_time() - t0
        level = (before + self.level()) / 2
        self.levels.append(level)
        return result, cpu_s, level

    def quiet_s(self, cpu_s: float, level: float) -> float:
        return cpu_s * self.quiet / level

    def stats(self) -> dict:
        return {"host_quiet_level_ms": 1e3 * self.quiet,
                "host_slowdown_median": statistics.median(self.levels) / self.quiet}


# ---------------------------------------------------------------- requests

class Client:
    """Sends gdz requests in-process and checks their outputs."""

    def __init__(self, gd, tracer=None, clock: HostClock | None = None):
        self.gd = gd
        self.tracer = tracer
        self.clock = clock

    def main(self, argv: list[str]):
        """gdz's entry point, traced when there is a tracer."""
        tr = self.tracer
        if tr is not None:
            tr.request += 1
            tr.active = True
        try:
            return self.gd.cli.main(argv)
        except Exception as exc:  # keep the loop running; the request failed
            return f"raised {type(exc).__name__}: {exc}"
        finally:
            if tr is not None:
                tr.active = False

    def call(self, run: Run, request: str, argv: list[str]):
        """One timed gdz call: (exit code, parsed stdout report or None)."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if self.clock is None:
                t0 = time.process_time()
                rc = self.main(argv)
                dt, level = time.process_time() - t0, 1.0
            else:
                rc, dt, level = self.clock.measure(self.main, argv)
        run.calls += 1
        run.busy_s += dt
        run.samples.setdefault(request, []).append((dt, level))
        text = out.getvalue()
        run.report_bytes += len(text.encode())
        try:
            report = json.loads(text)
        except json.JSONDecodeError:
            report = None
        return rc, report

    def verify(self, run: Run, spec: Spec, path: Path | None) -> None:
        request = f"verify {spec.label}"
        if path is None:
            run.record(request, Outcome("unrealizable spec"))
            return
        rc, report = self.call(run, request, ["verify", str(path)])
        run.record(request, self.check_verify(spec, rc, report))

    @staticmethod
    def check_verify(spec: Spec, rc, report) -> Outcome:
        rows = (report or {}).get("instances") or []
        if rc not in (0, 3) or len(rows) != 1:
            return Outcome(f"exit {rc}")
        row = rows[0]
        detail = str(row.get("detail", ""))
        if spec.negate:
            right_kind = detail.startswith("precondition tripped")
        else:
            right_kind = detail.startswith("match") or (
                spec.target == "2.2" and detail.startswith("closure holds")
            )
        consistent = (
            row.get("target") == spec.target
            and row.get("negate") is spec.negate
            and report.get("match") is row.get("ok")
        )
        if rc == 0 and row.get("ok") is True and right_kind and consistent:
            return Outcome()
        return Outcome(f"exit {rc}: {detail[:80]}", silent=(rc == 0))

    def gen_solve(self, run: Run, spec: Spec, path: Path) -> None:
        lam = f"--lambda={spec.lam}"  # "--lambda -2" would parse -2 as an option
        argv = ["gen", "--target", spec.target, "--dim", str(spec.dim), lam,
                "--seed", str(spec.seed), "--out", str(path)]
        if spec.negate:
            argv.append("--negate")
        request = f"gen {spec.label}"
        rc, report = self.call(run, request, argv)
        if rc == 2 and not path.exists():
            run.record(request, Outcome("unrealizable spec"))
            return
        if rc != 0 or report is None or report.get("match") is not True:
            run.record(request, Outcome(f"gen exit {rc}"))
            return
        run.record(request, Outcome())

        pair = spec.target in self.gd.casegen.PAIR_TARGETS
        names = ("a", "b") if pair else ("a", "b", "c", "d")
        argv = ["sum" if pair else "block", *(str(path / f"{n}.json") for n in names),
                "--theorem", spec.target, lam]
        request = f"solve {spec.label}"
        rc, report = self.call(run, request, argv)
        run.record(request, self.check_solve(run, spec, path, names, rc, report))

    def check_solve(self, run: Run, spec: Spec, path: Path, names, rc, report) -> Outcome:
        if spec.negate:
            if rc == 2 and str((report or {}).get("error", "")).startswith("precondition violated"):
                return Outcome()
            return Outcome(f"negated solve exit {rc}", silent=(rc == 0))
        if rc != 0 or report is None or report.get("match") is not True:
            return Outcome(f"solve exit {rc}")
        m = instance_matrix(path, names)
        if spec.target == "2.2":
            if report.get("result") is not None:
                return Outcome("2.2 returned a matrix", silent=True)
            resid = nilpotent_residual(m)
        else:
            resid = drazin_residual(m, doc_matrix(report["result"]))
        run.resid_max = max(run.resid_max, resid)
        if not resid <= RESID_MAX:
            return Outcome(f"axiom residual {resid:.2e}", silent=True)
        return Outcome()


# -------------------------------------------------------------- workloads

class Workload:
    """Corpus set-up and the request stream of one workload."""

    def __init__(self, gd, name: str, seed: int, work: Path):
        self.gd = gd
        self.name, self.seed, self.work = name, seed, work
        cfg = WORKLOADS[name]
        self.mode = cfg["mode"]
        seeds = spec_seeds(name, seed, cfg["spec_seeds"])
        self.specs = spec_grid(gd.casegen.TARGETS, cfg["dims"], seeds)
        self.corpus: dict[Spec, Path | None] = {}

    def setup(self, repeats: int, clock: HostClock | None = None) -> list[list]:
        """Build the corpus ``repeats`` times; returns each build's per-spec
        (CPU seconds, host level) samples."""
        if self.mode != "verify":
            return []
        builds = []
        for _ in range(repeats):
            corpus_dir = self.work / "corpus"
            shutil.rmtree(corpus_dir, ignore_errors=True)
            corpus_dir.mkdir(parents=True)
            corpus, samples = build_corpus(self.gd, self.specs, corpus_dir, clock)
            builds.append(samples)
            if self.corpus and corpus != self.corpus:
                raise RuntimeError("corpus generation is not deterministic")
            self.corpus = corpus
        return builds

    def passes(self):
        """Endless stream of specs: repeated passes over the grid, each pass
        in a fresh order drawn from the workload seed."""
        rng = random.Random(f"order/{self.name}/{self.seed}")
        while True:
            yield from interleaved(self.specs, STRATA, rng)

    def send(self, client: Client, run: Run, spec: Spec) -> None:
        if self.mode == "verify":
            client.verify(run, spec, self.corpus[spec])
            return
        path = self.work / "gen" / spec.dirname
        try:
            client.gen_solve(run, spec, path)
        finally:
            shutil.rmtree(path, ignore_errors=True)


# A run usually ends partway through a pass, so some requests get one more
# repeat than others. Interleaving each pass by target, then by dimension and
# spec seed, spreads those extra repeats evenly over the grid.
STRATA = (lambda s: s.target, lambda s: (s.dim, s.seed))


def interleaved(items: list, keys, rng: random.Random) -> list:
    """Random order in which each value of keys[0] recurs evenly (round
    robin in a fresh random order per round), recursively by keys[1:]."""
    if not keys:
        out = list(items)
        rng.shuffle(out)
        return out
    groups: dict = {}
    for item in items:
        groups.setdefault(keys[0](item), []).append(item)
    queues = [interleaved(g, keys[1:], rng)[::-1] for g in groups.values()]
    out = []
    while queues:
        rng.shuffle(queues)
        out.extend(q.pop() for q in queues)
        queues = [q for q in queues if q]
    return out


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def timed_loop(workload: Workload, client: Client, seconds: float) -> Run:
    stream = workload.passes()
    warm = Run()
    for _ in range(WARMUP_REQUESTS):
        workload.send(client, warm, next(stream))
    stream = workload.passes()  # timing starts from the top of the first pass
    run = Run()
    deadline = time.perf_counter() + seconds
    sent = 0
    while time.perf_counter() < deadline or sent < len(workload.specs):
        workload.send(client, run, next(stream))
        sent += 1
    return run


def import_seconds() -> float:
    """CPU time to import numpy and the gdz entry point in a fresh interpreter."""
    code = ("import time; t = time.process_time(); import numpy, gdrazin.cli; "
            "print(time.process_time() - t)")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
                         capture_output=True, text=True, timeout=120)
    return float(out.stdout)


def end_to_end(args, gd, work: Path) -> tuple[Run, dict, dict]:
    workload = Workload(gd, args.workload, args.seed, work)
    clock = HostClock()
    # Each import runs in a child process; the levels taken around it in
    # this one stand for the host's speed meanwhile.
    imports = [clock.measure(import_seconds)[::2] for _ in range(IMPORT_REPEATS)]
    builds = workload.setup(SETUP_REPEATS, clock)
    run = timed_loop(workload, Client(gd, clock=clock), args.seconds)
    # Scale only now that the quiet level is final.
    import_times = [clock.quiet_s(*sample) for sample in imports]
    setup_times = [sum(clock.quiet_s(*sample) for sample in b) for b in builds]
    setup_s = statistics.median(import_times) + (
        statistics.median(setup_times) if setup_times else 0.0
    )
    lat = sorted(run.best_ms(clock).values())
    p90 = percentile(lat, 0.90)
    metrics = {
        "setup_s": (setup_s, "s"),
        "requests_per_s": (1e3 * len(lat) / sum(lat), "1/s"),
        "latency_ms_p50": (statistics.median(lat), "ms"),
        "latency_ms_p90": (p90, "ms"),
        "failed_frac": (
            (run.failed + 1) / (run.attempted + 1), "ratio"
        ),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    counts = {
        "import_s": import_times,
        "setup_build_s": setup_times,
        "specs": len(workload.specs),
        "unrealizable_specs": sum(1 for p in workload.corpus.values() if p is None),
        "gdz_calls": run.calls,
        "latency_samples": len(lat),
        "repeats_per_request": run.calls / len(lat),
        "latency_samples_above_p90": sum(1 for v in lat if v > p90),
        **clock.stats(),
    }
    return run, metrics, counts


def traced(args, gd, work: Path) -> tuple[Run, dict, dict]:
    workload = Workload(gd, args.workload, args.seed, work)
    workload.setup(1)
    tracer = Tracer()
    plain, run = Run(), Run()
    plain_client, traced_client = Client(gd), Client(gd, tracer)
    one_pass = itertools.islice(workload.passes(), len(workload.specs))
    for i, spec in enumerate(one_pass):
        # Each spec runs once untraced and once traced, in alternating order,
        # so drift in machine speed cancels out of the overhead estimate.
        for with_trace in (False, True) if i % 2 == 0 else (True, False):
            if with_trace:
                with tracer:
                    workload.send(traced_client, run, spec)
            else:
                workload.send(plain_client, plain, spec)
    tracer.counts["cli.report_bytes"] = run.report_bytes
    metrics = layer_metrics(tracer)
    metrics["check.resid_max"] = (run.resid_max, "norm")
    metrics["trace.untraced_busy_s"] = (plain.busy_s, "s")
    metrics["trace.traced_busy_s"] = (run.busy_s, "s")
    metrics["trace.overhead_frac"] = (run.busy_s / plain.busy_s - 1.0, "ratio")
    metrics["trace.untraced_latency_ms_p50"] = (statistics.median(plain.best_ms(None).values()), "ms")
    metrics["trace.traced_latency_ms_p50"] = (statistics.median(run.best_ms(None).values()), "ms")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    spans_path = WORK / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
    tracer.write_spans(spans_path)
    run.silent.update(plain.silent)
    counts = {"gdz_calls": run.calls, "spans_file": str(spans_path.relative_to(ROOT))}
    return run, metrics, counts


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "gdrazin" / "__init__.py").is_file():
        print(f"perfbench: no gdrazin sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # One CPU for this process and its children, so that the host level
    # taken around a step is that of the CPU the step runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(ROOT / "src"))
    import gdrazin.casegen
    import gdrazin.cli
    import gdrazin.errors
    import gdrazin.io

    work = WORK / f"run-{os.getpid()}"
    try:
        if args.trace:
            run, metrics, counts = traced(args, gdrazin, work)
        else:
            run, metrics, counts = end_to_end(args, gdrazin, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    counts.update(
        attempted=run.attempted,
        failed=run.failed,
        check_resid_max=run.resid_max,
        failures=dict(sorted(run.failures.items())),
        silent_wrong=dict(sorted(run.silent.items())),
    )
    print(json.dumps({"environment": environment(args, counts)}))
    print(json.dumps({
        "correct": not run.silent,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
