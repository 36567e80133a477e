"""Inputs, set-up and the three timed phases of a benchmark run.

Each phase object runs its unit operation on fixed inputs once per
``step(weight)`` call (``weight`` times, or for ``weight`` bench chunks),
and ``finish()`` returns the raw observations plus the number of
operations attempted and failed:

* ``sim``   - ``simulate`` on on/off burst traffic with an unlimited pool;
* ``cli``   - one round of six planner commands, each as a user runs it;
* ``bench`` - ``run_bench`` open loop against a stub in a child process.

Every output is checked against ``reference`` before it counts.
"""

from __future__ import annotations

import contextlib
import hashlib
import http.client
import io
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from urllib.parse import urlsplit

import reference
from spans import Tracer

from faasplan import cli, cost, harness, packaging, providers, simulator
from faasplan.units import GB, UNLIMITED

ANCHORS = {"0.5": 50.08, "0.95": 80.14, "0.99": 102.65}  # smobilebert, 1 GB
PROFILE_SAMPLES = 5000
PRICING = "aws"
STUB_DELAY_MS = 10.0
BENCH_WARMUP = 10
BENCH_PAYLOAD = b'{"inputs": "the film was a quiet, well acted surprise"}'
EXPECTED_WINNER = "MobileBERT"        # sentiment catalog, aws zip cap, f1_macro
EXPECTED_COST_TOTAL = Decimal("1.86667")  # million_predictions on aws

# The shared hosts this runs on drift in speed by up to 1.5x over minutes,
# so between runs of the same code the medians of raw wall times spread by
# up to 0.4 of their median. Timings are therefore scaled to a reference
# host by probes that do the same kind of work but run no faasplan code,
# interleaved with the timed operations of the same run:
#  - a fresh interpreter importing the stdlib modules and numpy that
#    faasplan pulls in, for CLI commands and set-up;
#  - a fixed pure-Python loop, for in-process simulation.
IMPORT_PROBE = "import argparse, csv, decimal, fractions, json, http.server, urllib.request, numpy"
REF_IMPORT_PROBE_S = 0.250
REF_CALIBRATION_S = 0.020


def import_probe_s(env: dict) -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, check=True, timeout=60)
    return time.perf_counter() - t0


def calibration_s() -> float:
    t0 = time.perf_counter()
    table, x = {}, 0
    for i in range(100_000):
        x = (x * 31 + i) % 1_000_003
        table[i & 1023] = x
    return time.perf_counter() - t0


@dataclass(frozen=True)
class Sizes:
    """How big one unit operation of each phase is."""

    sim_duration_s: float = 40.0
    cli_sim_duration_s: float = 5.0
    bench_rate_rps: float = 150.0
    bench_chunk_s: float = 2.5
    setups: int = 3


def burst_traffic(duration_s: float) -> dict:
    # Keep-alive (5 s) is shorter than the 10 s off phase, so every burst
    # starts fresh instances and the expired ones stay in the pool.
    return {"kind": "burst", "high_rate": 400.0, "low_rate": 2.0, "period_s": 20.0,
            "duty": 0.5, "duration_s": duration_s}


def sim_block(seed: int, keep_alive_s: float, max_instances: int | None) -> dict:
    block = {"seed": seed, "memory_mb": 1024, "keep_alive_s": keep_alive_s,
             "cold_start_ms": simulator.DEFAULT_COLD_START_MS}
    if max_instances is not None:
        block["max_instances"] = max_instances
    return block


def profile_block() -> dict:
    return {"reference_memory_mb": 1024, "quantile_anchors": ANCHORS, "n_samples": PROFILE_SAMPLES}


def scenarios(seed: int, sizes: Sizes) -> dict[str, dict]:
    """Every generated input file, by name; only the simulations depend on the seed."""
    return {
        "burst": {
            "version": 1, "name": "burst-coldstart", "pricing": PRICING,
            "profile": profile_block(), "traffic": burst_traffic(sizes.sim_duration_s),
            "simulation": sim_block(seed, 5.0, None),
        },
        "validate": {
            "version": 1, "name": "tinybert-on-aws", "provider": "aws", "catalog": "sentiment",
            "package": {"code_mb": 1, "runtime": "onnxruntime", "model": "TinyBERT"},
            "memory_mb": 1024,
        },
        "cost": {
            "version": 1, "name": "million-predictions", "pricing": PRICING,
            "cost": {"n_requests": 1000000, "billed_ms_per_request": 100, "memory_mb": 1024,
                     "months": 1},
            "vm": {"monthly_price": 8, "memory_mb": 1024},
        },
        "capped": {
            "version": 1, "name": "capped-poisson", "pricing": PRICING,
            "profile": profile_block(),
            "traffic": {"kind": "poisson", "rate_rps": 1000.0, "duration_s": sizes.cli_sim_duration_s},
            "simulation": sim_block(seed + 1, 600.0, 64),
        },
    }


class StubProcess:
    """The stub server in a child interpreter, stopped by closing its stdin."""

    def __init__(self, root: Path, seed: int):
        here = Path(__file__).resolve().parent
        self.proc = subprocess.Popen(
            [sys.executable, str(here / "stub_child.py"), repr(STUB_DELAY_MS), str(seed)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=child_env(root), text=True,
        )
        try:
            self.url = self.proc.stdout.readline().strip()
            if not self.url:
                raise RuntimeError("stub child exited before listening")
            parts = urlsplit(self.url)
            conn = http.client.HTTPConnection(parts.hostname, parts.port, timeout=10)
            conn.request("GET", "/")
            if conn.getresponse().status != 200:
                raise RuntimeError("stub child is not answering")
            conn.close()
        except BaseException:
            self.stop()
            raise

    def stop(self) -> None:
        if self.proc.poll() is None:
            with contextlib.suppress(OSError):
                self.proc.stdin.close()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


@dataclass
class State:
    profile: simulator.LatencyProfile
    files: dict[str, Path]
    hashes: dict[str, str]
    # `validate` does not call fit_matrix; a traced run times it beside
    # each validate on the package that command loads.
    package: packaging.DeploymentPackage
    stub: StubProcess


def set_up(root: Path, work: Path, seed: int, sizes: Sizes) -> State:
    """Everything before the first timed operation."""
    profile = simulator.LatencyProfile.from_quantile_anchors(
        {float(q): v for q, v in ANCHORS.items()}, PROFILE_SAMPLES, GB)
    files, hashes = {}, {}
    for name, doc in scenarios(seed, sizes).items():
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        files[name] = work / f"{name}.json"
        files[name].write_text(text, "utf-8")
        hashes[name] = hashlib.sha256(text.encode()).hexdigest()
    package = cli.load_scenario(files["validate"], cli.ProfileStore()).package
    return State(profile, files, hashes, package, StubProcess(root, seed))


@dataclass
class PhaseResult:
    """Operations attempted and failed; ``wrong`` counts the failed output checks among them."""

    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    problems: list[str] = field(default_factory=list)
    data: dict = field(default_factory=dict)

    def fail(self, what: str, count: int = 1, wrong: bool = True) -> None:
        self.failed += count
        self.wrong += count if wrong else 0
        if len(self.problems) < 20:
            self.problems.append(what)


def _pricing_fractions() -> tuple[int, Fraction, Fraction]:
    p = cost.load_pricing()[PRICING]
    return p.billing_granularity_ms, Fraction(p.per_million_requests), Fraction(p.per_gb_second)


def reference_records(doc: dict, profile: simulator.LatencyProfile) -> list[reference.Record]:
    sim = doc["simulation"]
    granularity, _, _ = _pricing_fractions()
    return reference.simulate(profile.samples.values, doc["traffic"], sim["seed"],
                              sim["keep_alive_s"], sim["cold_start_ms"],
                              sim.get("max_instances"), granularity)


def _span(tracer: Tracer | None, name: str):
    return tracer.span(name) if tracer else contextlib.nullcontext()


# -- sim ---------------------------------------------------------------------

class SimPhase:
    """``simulate`` on the burst scenario; each step runs ``weight`` identical ops."""

    def __init__(self, state: State, tracer: Tracer | None):
        self.state, self.tracer = state, tracer
        self.doc = json.loads(state.files["burst"].read_text("utf-8"))
        t, s = self.doc["traffic"], self.doc["simulation"]
        self.pattern = simulator.TrafficPattern.burst(t["high_rate"], t["low_rate"], t["period_s"],
                                                      t["duty"], t["duration_s"])
        self.config = simulator.SimulationConfig(
            seed=s["seed"], memory_bytes=GB, keep_alive_s=s["keep_alive_s"],
            cold_start_ms=s["cold_start_ms"], max_instances=UNLIMITED)
        self.pricing = cost.load_pricing()[PRICING]
        self.out = PhaseResult()
        self.rates: list[float] = []
        self.calibrations: list[float] = []
        self.digests: set[str] = set()
        self.summaries: set[tuple] = set()

    def step(self, weight: int) -> None:
        for _ in range(weight):
            self.calibrations.append(calibration_s())
            with _span(self.tracer, "op.sim"):
                t0 = time.perf_counter()
                result = simulator.simulate(self.state.profile, self.pattern, self.config,
                                            self.pricing)
                elapsed = time.perf_counter() - t0
            self.out.attempted += 1
            self.rates.append(len(result.records) / elapsed)
            self.digests.add(reference.digest(reference.records_from_dicts(result.records)))
            summary = result.latency_summary
            self.summaries.add((result.cold_fraction, summary.q50, summary.q99))

    def finish(self) -> PhaseResult:
        expected = reference_records(self.doc, self.state.profile)
        stats = reference.SimStats.of(expected)
        want = (stats.cold_fraction, stats.latency_ms_q50, stats.latency_ms_q99)
        if self.digests != {reference.digest(expected)} or self.summaries != {want}:
            self.out.fail(f"sim: records or stats differ from the reference "
                          f"({len(self.digests)} distinct digests)", self.out.attempted)
        self.out.data = {"rates": self.rates, "calibrations": self.calibrations, "stats": stats}
        return self.out


# -- cli ---------------------------------------------------------------------

def cli_commands(state: State, work: Path) -> dict[str, list[str]]:
    f = state.files
    out = str(work / "sim")
    return {
        "validate": ["validate", "--scenario", str(f["validate"]), "--format", "json"],
        "select": ["select", "--catalog", "sentiment", "--provider", "aws",
                   "--metric", "f1_macro", "--format", "json"],
        "cost": ["cost", "--scenario", str(f["cost"]), "--format", "json"],
        "simulate": ["simulate", "--scenario", str(f["capped"]), "--out", out],
        "cost_result": ["cost", "--result", out + ".json", "--pricing", PRICING, "--format", "json"],
        "cost_csv": ["cost", "--result", out + ".csv", "--pricing", PRICING,
                     "--memory-mb", "1024", "--format", "json"],
    }


class CliChecker:
    """Checks each command's exit code and output against independent expectations."""

    def __init__(self, state: State, work: Path):
        self.work = work
        doc = json.loads(state.files["capped"].read_text("utf-8"))
        self.expected_records = reference_records(doc, state.profile)
        self.expected_digest = reference.digest(self.expected_records)
        self.stats = reference.SimStats.of(self.expected_records)
        g, per_million, per_gb_s = _pricing_fractions()
        self.granularity, self.rates = g, (per_million, per_gb_s)
        billed = sum(r[6] for r in self.expected_records) // 1000
        self.json_total = reference.serverless_total(len(self.expected_records), billed, GB,
                                                     *self.rates)
        self.totals: dict[str, str] = {}

    def check(self, name: str, code: int, stdout: str) -> str | None:
        """None when the command's result is right, else what is wrong."""
        if code != 0:
            return f"{name}: exit code {code}"
        try:
            return getattr(self, "_" + name)(stdout)
        except (ValueError, KeyError, TypeError, OSError) as exc:
            return f"{name}: unreadable output ({exc!r})"

    def _validate(self, stdout):
        return None if json.loads(stdout)["passed"] is True else "validate: plan did not pass"

    def _select(self, stdout):
        got = json.loads(stdout)["selected"]["name"]
        return None if got == EXPECTED_WINNER else f"select: chose {got}"

    def _cost(self, stdout):
        got = Decimal(json.loads(stdout)["serverless_total"])
        return None if got == EXPECTED_COST_TOTAL else f"cost: total {got}"

    def _simulate(self, stdout):
        payload = json.loads((self.work / "sim.json").read_text("utf-8"))
        records = reference.records_from_dicts(payload["records"])
        if reference.digest(records) != self.expected_digest:
            return "simulate: records differ from the reference"
        summary = payload["latency_summary"]
        if (payload["cold_fraction"], summary["q50_ms"], summary["q99_ms"]) != (
                self.stats.cold_fraction, self.stats.latency_ms_q50, self.stats.latency_ms_q99):
            return "simulate: summary differs from the reference"
        with open(self.work / "sim.csv", newline="") as fh:
            rows = fh.read().splitlines()[1:]
        latencies = [float(row.split(",")[1]) for row in rows]
        # The CSV carries end_ms - arrival_ms as the records store them, in ms.
        if latencies != [e / 1000 - t / 1000 for t, _, e, *_ in self.expected_records]:
            return "simulate: CSV latencies differ from the records"
        return None

    def _cost_result(self, stdout):
        got = json.loads(stdout)["serverless_total"]
        self.totals["json"] = got
        return None if Fraction(Decimal(got)) == self.json_total else f"cost --result json: {got}"

    def _cost_csv(self, stdout):
        got = json.loads(stdout)["serverless_total"]
        self.totals["csv"] = got
        with open(self.work / "sim.csv", newline="") as fh:
            durations = [row.split(",")[1] for row in fh.read().splitlines()[1:]]
        billed = reference.billed_total_ms((float(d) for d in durations), self.granularity)
        want = reference.serverless_total(len(durations), billed, GB, *self.rates)
        return None if Fraction(Decimal(got)) == want else f"cost --result csv: {got}"


class CliPhase:
    """One step runs ``weight`` rounds of the six commands.

    Untraced, each command is its own process, timed wall to wall. Traced,
    the same argv goes through ``cli.main`` in this process so its calls
    into the library become spans.
    """

    def __init__(self, root: Path, state: State, work: Path, tracer: Tracer | None):
        self.state, self.work, self.tracer = state, work, tracer
        self.env = child_env(root)
        self.checker = CliChecker(state, work)
        self.commands = cli_commands(state, work)
        self.walls: dict[str, list[float]] = {name: [] for name in self.commands}
        self.probes: list[float] = []
        self.out = PhaseResult()

    def step(self, weight: int) -> None:
        for _ in range(weight):
            for i, (name, argv) in enumerate(self.commands.items()):
                if self.tracer is None and i % 3 == 0:
                    self.probes.append(import_probe_s(self.env))
                code, stdout = self._run(name, argv)
                self.out.attempted += 1
                problem = self.checker.check(name, code, stdout)
                if problem:
                    self.out.fail(problem)

    def _run(self, name: str, argv: list[str]) -> tuple[int, str]:
        if self.tracer is None:
            t0 = time.perf_counter()
            proc = subprocess.run([sys.executable, "-m", "faasplan.cli", *argv], env=self.env,
                                  capture_output=True, text=True, timeout=120)
            self.walls[name].append(time.perf_counter() - t0)
            return proc.returncode, proc.stdout
        buf = io.StringIO()
        with self.tracer.span("cli." + name), contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        if name == "validate":
            with self.tracer.span("cli.fit_check"):
                packaging.fit_matrix(self.state.package, providers.load_provider_limits().values())
        return code, buf.getvalue()

    def finish(self) -> PhaseResult:
        self.out.data = {"walls": self.walls, "probes": self.probes, "stats": self.checker.stats,
                         "totals": self.checker.totals,
                         "json_bytes": (self.work / "sim.json").stat().st_size}
        return self.out


def interpreter_probe(root: Path, repeats: int) -> dict:
    """Bare interpreter start and `import faasplan.cli`, each in a fresh process."""
    code = ("import sys, time; t = time.perf_counter(); import faasplan.cli; "
            "print((time.perf_counter() - t) * 1000, int('numpy' in sys.modules))")
    bare, imports, numpy_loaded = [], [], 0
    env = child_env(root)
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True, timeout=60)
        bare.append((time.perf_counter() - t0) * 1000)
        proc = subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60,
                              capture_output=True, text=True)
        ms, loaded = proc.stdout.split()
        imports.append(float(ms))
        numpy_loaded = int(loaded)
    return {"cli.python_startup_ms": statistics.median(bare),
            "cli.import_faasplan_ms": statistics.median(imports),
            "cli.import_loads_numpy": numpy_loaded}


# -- bench -------------------------------------------------------------------

class BenchPhase:
    """One step is one ``run_bench`` of ``weight`` chunks against the stub child."""

    def __init__(self, state: State, seed: int, sizes: Sizes, tracer: Tracer | None):
        self.state, self.seed, self.sizes, self.tracer = state, seed, sizes, tracer
        self.out = PhaseResult()
        self.d = {key: [] for key in ("due_latency", "reported", "lag", "ratio", "overhead",
                                      "exec", "seeds")}
        self.d.update(errors={"http": 0, "timeout": 0, "transport": 0}, unaccounted=0,
                      peak_threads=0)

    def step(self, weight: int) -> None:
        op_seed = self.seed * 100 + len(self.d["seeds"])
        self.d["seeds"].append(op_seed)
        run = harness.BenchRun(
            target=harness.BenchTarget(url=self.state.stub.url, payload=BENCH_PAYLOAD),
            pattern=simulator.TrafficPattern.poisson(self.sizes.bench_rate_rps,
                                                     weight * self.sizes.bench_chunk_s),
            n_warmup=BENCH_WARMUP, seed=op_seed,
        )
        with _thread_sampler(self.d) if self.tracer else contextlib.nullcontext():
            with _span(self.tracer, "op.bench") as op_span:
                result = harness.run_bench(run)
        _account(result, self.out, self.d)
        if self.tracer:
            _request_spans(self.tracer, op_span, result)

    def finish(self) -> PhaseResult:
        self.out.data = self.d
        return self.out


def _account(result: harness.BenchResult, out: PhaseResult, d: dict) -> None:
    n = result.attempts
    errors = sum(result.errors.values())
    for kind, count in result.errors.items():
        d["errors"][kind] = d["errors"].get(kind, 0) + count
    unaccounted = n - len(result.samples) - result.warmup_excluded - errors
    d["unaccounted"] += unaccounted
    out.attempted += n
    if errors:
        # A request that fails is a failed operation, not a wrong output: the
        # accounting still balances. Shared hosts produce a few transport
        # errors per 100k requests.
        out.fail(f"bench: {errors} request errors", errors, wrong=False)
    if unaccounted:
        out.fail(f"bench: {unaccounted} attempts in no accounting bucket", unaccounted)
    lags = [s - p for p, s in zip(result.scheduled_ms, result.sent_ms)]
    d["lag"].extend(lags)
    d["ratio"].append((max(result.scheduled_ms) - min(result.scheduled_ms))
                      / (max(result.sent_ms) - min(result.sent_ms)))
    samples = result.samples
    stamps = samples.timestamps or ()
    scheduled = reference.pair_by_timestamp(stamps, result.sent_ms, result.scheduled_ms)
    unpaired = len(samples) - sum(p is not None for p in scheduled)
    if unpaired:
        out.fail(f"bench: {unpaired} samples match no send", unpaired)
    d["due_latency"].extend(v + (ts - p) for v, ts, p in zip(samples.values, stamps, scheduled)
                            if p is not None)
    d["reported"].extend(samples.values)
    execs = result.server_exec
    exec_values = execs.values if execs is not None else ()
    wrong = sum(v != STUB_DELAY_MS for v in exec_values)
    wrong += len(samples) + result.warmup_excluded - len(exec_values)
    if wrong:
        out.fail(f"bench: {wrong} responses without the configured server time", wrong)
    d["exec"].extend(exec_values)
    if execs is not None:
        paired = reference.pair_by_timestamp(stamps, execs.timestamps, execs.values)
        d["overhead"].extend(v - e for v, e in zip(samples.values, paired) if e is not None)


@contextlib.contextmanager
def _thread_sampler(d: dict):
    stop = threading.Event()

    def sample():
        while not stop.wait(0.002):
            d["peak_threads"] = max(d["peak_threads"], threading.active_count())

    sampler = threading.Thread(target=sample, daemon=True)
    sampler.start()
    try:
        yield
    finally:
        stop.set()
        sampler.join(timeout=5)


def _request_spans(tracer: Tracer, op_span, result: harness.BenchResult) -> None:
    """Per-request spans rebuilt from the harness's own send times.

    The run's time zero is taken as the end of its arrival generation plus
    the harness's fixed start lead, so these intervals are placed to within
    the harness's pre-run garbage collection.
    """
    arrivals = [s for s in tracer.spans
                if s.parent == op_span.id and s.name == "simulator.generate_arrivals"]
    zero = (arrivals[-1].end if arrivals else op_span.start) + getattr(harness, "_START_LEAD_S", 0.0)
    index = {sent: i for i, sent in enumerate(result.sent_ms)}
    for value, ts in zip(result.samples.values, result.samples.timestamps or ()):
        start = zero + ts / 1000
        tracer.add("harness.request", start, start + value / 1000, op_span.id, index.get(ts))
