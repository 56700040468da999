"""hamsym benchmark: one workload per process, one thread, closed loop.

    python3 bench/run.py --workload classify-many --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --smoke

Each call into hamsym starts only after the previous one returned, as in
the CLI.  A pass runs every call of the workload once, on systems freshly
parsed for that pass (a new PhaseSpace, so an empty compile cache); passes
repeat until --seconds have gone by.  Every output is checked against the
references in reference.py.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}, with the end-to-end
metrics when --trace is 0 and the per-layer metrics of the traced run when
it is 1.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # one thread here and in the set-up subprocesses
sys.path.insert(0, str(SRC))
try:
    from hamsym import classifier, verify
except ImportError as exc:
    sys.exit(f"cannot import hamsym from {SRC}: {exc}")
if not Path(classifier.__file__).resolve().is_relative_to(SRC.resolve()):
    sys.exit(f"hamsym was imported from {classifier.__file__}, not from {SRC}")

import kernel  # noqa: E402
import reference  # noqa: E402 -- these import hamsym from SRC
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 11
SYMMETRY_RESIDUAL_MAX = 1e-3  # O(epsilon): check_symmetry_numeric's epsilon is 1e-5
NON_SYMMETRY_RESIDUAL_MIN = 1e-2  # O(1)
TRAJECTORY_TOL = 1e-8
END_TO_END = (("setup_s", "s"), ("wall_norm_s", "s"), ("peak_rss_mb", "MB"))
# The kernel (kernel.py) is timed between calls, once per KERNEL_EVERY_S of
# call time; wall_norm_s rescales each pass by it.
KERNEL_EVERY_S = 0.1
REQUIRED_CHECKS = {
    "classify-deep": ("bundled-label", "deep-label", "noether-quantity"),
    "classify-many": ("bundled-label", "scaled-label", "planted-noether", "random-commutator"),
    "verify-long": ("trajectory", "drift", "symmetry-residual", "nonsymmetry-residual"),
}
RUN_CHECKS = ("determinism", "seed-changes-inputs")

Record = namedtuple("Record", "op check key seconds error steps")

# Cold set-up as every hamsym invocation pays it: import, parse_system_text
# and make_system, in a fresh interpreter.  The texts arrive on stdin.  The
# kernel runs in the same interpreter just before and after, so the host
# speed it sees is the one the set-up ran at.
_SETUP_PROBE = """
import json, statistics, sys, time
texts = json.load(sys.stdin)
sys.path.insert(0, sys.argv[2])
import kernel
before = kernel.samples(5)
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from hamsym import classifier, hamiltonian, systemio, verify
probes = classifier.ClassifyConfig().probes
for text in texts:
    sf = systemio.parse_system_text(text)
    hamiltonian.make_system(sf.space, sf.symplectic, sf.hamiltonian, probes)
seconds = time.perf_counter() - start
print(seconds, statistics.median(before + kernel.samples(5)))
"""


def setup_seconds(texts, samples):
    """Medians of the set-up time as measured and rescaled by the kernel."""
    raw, normalized = [], []
    for _ in range(samples):
        done = subprocess.run([sys.executable, "-c", _SETUP_PROBE, str(SRC), str(BENCH)],
                              input=json.dumps(texts), capture_output=True, text=True,
                              timeout=120, check=True)
        seconds, kernel_s = map(float, done.stdout.split())
        raw.append(seconds)
        normalized.append(seconds / kernel_s * kernel.NOMINAL_S)
    return statistics.median(raw), statistics.median(normalized)


class Clock:
    """Times the calls of one pass, and the kernel between them."""

    def __init__(self):
        self.kernel = []  # seconds per kernel run
        self._owed = KERNEL_EVERY_S  # call time not yet matched by a kernel run

    def call(self, fn, *args):
        """(result, seconds, error); a call that raises is a failed call."""
        start = time.perf_counter()
        try:
            result, error = fn(*args), None
        except Exception as exc:  # noqa: BLE001 -- counted and reported, never hidden
            result, error = None, f"raised {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        # one kernel run per KERNEL_EVERY_S of call time, so a long call is
        # matched by as many runs as a stretch of short ones
        self._owed += seconds
        runs = int(self._owed / KERNEL_EVERY_S)
        self.kernel.extend(kernel.samples(runs))
        self._owed -= runs * KERNEL_EVERY_S
        return result, seconds, error


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True, default=repr).encode()).hexdigest()


class Pass:
    def __init__(self, records, fingerprint, clock):
        self.records = records
        self.digest = digest(fingerprint)
        self.wall = sum(r.seconds for r in records)
        self.kernel = statistics.fmean(clock.kernel)  # host speed over the pass
        self.layers = None


def classify_pass(inputs, config) -> Pass:
    records, docs, clock = [], [], Clock()
    for key, text in inputs.files:
        sf, system = workloads.build_system(text, config)
        for cand in sf.symmetries:
            expect = inputs.expect[(key, cand.name)]
            report, seconds, error = clock.call(classifier.classify, cand, system, config)
            if report is not None:
                error = workloads.check_report(report, expect, inputs.points.get(key, ()))
                docs.append(report.to_dict())
            records.append(Record("classify", expect.check, f"{key}:{cand.name}",
                                  seconds, error, 0))
    return Pass(records, docs, clock)


def _check_trajectory(traj, run, method, steps, dt, system_ref):
    if traj.truncated:
        return "truncated: " + traj.diagnostic
    if len(traj.times) != steps + 1:
        return f"{len(traj.times) - 1} steps, expected {steps}"
    if method not in run.final:
        run.final[method] = reference.integrate(system_ref, run.x0, dt, steps, method)
    err = max(abs(a - b) for a, b in zip(traj.states[-1], run.final[method]))
    if err > TRAJECTORY_TOL:
        return f"end state differs from the reference integrator by {err:.3e}"
    return None


def _check_drift(rep, inv, x0, samples):
    if rep.error is not None:
        return rep.error
    if rep.samples != samples:
        return f"{rep.samples} samples, expected {samples}"
    v0 = inv.value(list(x0), math)
    if abs(rep.initial_value - v0) > 1e-9 * (1.0 + abs(v0)):
        return f"initial value {rep.initial_value!r}, reference {v0!r}"
    if rep.max_abs_drift > workloads.DRIFT_BOUND * max(1.0, abs(v0)):
        return f"drift {rep.max_abs_drift:.3e} above {workloads.DRIFT_BOUND}"
    return None


def verify_pass(inputs, config) -> Pass:
    records, facts, clock = [], [], Clock()
    plan = (("rk4", inputs.rk4_steps, workloads.RK4_DT),
            ("implicit_midpoint", inputs.midpoint_steps, workloads.MIDPOINT_DT))
    for run in inputs.runs:
        system_ref = reference.SYSTEMS[run.system]
        sf, system = workloads.build_system(run.text, config)
        fields = {c.name: c.field for c in sf.symmetries}
        quantities = [(inv, workloads.parse_expression(system_ref.text, inv.text))
                      for inv in system_ref.invariants]
        for method, steps, dt in plan:
            traj, seconds, error = clock.call(verify.integrate, system, run.x0,
                                              steps * dt, dt, method)
            if traj is not None:
                error = _check_trajectory(traj, run, method, steps, dt, system_ref)
            records.append(Record("integrate", "trajectory", f"{run.system}:{method}",
                                  seconds, error, steps))
            if traj is None:
                continue
            facts.append(traj.states[-1].tolist())
            for inv, expr in quantities:
                rep, seconds, error = clock.call(verify.check_conserved, expr, traj,
                                                 sf.space, inv.name)
                if rep is not None:
                    error = _check_drift(rep, inv, run.x0, steps + 1)
                    facts.append([rep.max_abs_drift, rep.initial_value])
                records.append(Record("check_conserved", "drift",
                                      f"{run.system}:{method}:{inv.name}", seconds, error, 0))
        for name, check in (("S", "symmetry-residual"), ("N", "nonsymmetry-residual")):
            residual, seconds, error = clock.call(verify.check_symmetry_numeric, fields[name],
                                                  system, run.x0)
            if residual is not None:
                facts.append(residual)
                if name == "S" and not residual <= SYMMETRY_RESIDUAL_MAX:
                    error = f"symmetry residual {residual:.3e} is not O(epsilon)"
                if name == "N" and not residual >= NON_SYMMETRY_RESIDUAL_MIN:
                    error = f"non-symmetry residual {residual:.3e} is not O(1)"
            records.append(Record("check_symmetry_numeric", check, f"{run.system}:{name}",
                                  seconds, error, 0))
    return Pass(records, facts, clock)


def repeat(run_pass, seconds, minimum=2):
    """Passes until `seconds` have gone by, and at least `minimum` of them."""
    done = []
    deadline = time.perf_counter() + seconds
    while len(done) < minimum or time.perf_counter() < deadline:
        gc.collect()
        done.append(run_pass())
    return done


def tail(values):
    """(p, value): the highest of p99.9/p99/p95/p90 with at least ten
    samples beyond it, by nearest rank; None with fewer than 100 samples."""
    ordered = sorted(values)
    n = len(ordered)
    for p in (99.9, 99, 95, 90):
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10:
            return p, ordered[rank - 1]
    return None


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        name = head[5:]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed, config):
    import numpy
    source = hashlib.sha256()
    for path in sorted((SRC / "hamsym").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "source_sha256": source.hexdigest(),
        "workload_seed": seed,
        "probe_seed": config.probes.seed,
    }


def extra_metrics(passes, records):
    """The workload-specific end-to-end metrics, printed beside the JSON."""
    failed = sum(r.error is not None for r in records)
    extra = {"failed_ratio": (failed / len(records), "ratio"),
             "wall_s": (statistics.median(p.wall for p in passes), "s"),
             "kernel_s": (statistics.median(p.kernel for p in passes), "s")}
    timed_records = [r for p in passes for r in p.records]
    latencies = [r.seconds for r in timed_records if r.op == "classify"]
    if latencies:
        extra["candidates_per_s"] = (len(latencies) / sum(latencies), "1/s")
        extra["classify_p50_ms"] = (statistics.median(latencies) * 1e3, "ms")
        if tail(latencies):
            p, value = tail(latencies)
            extra["classify_tail_ms"] = (value * 1e3, f"ms (p{p:g} of {len(latencies)} calls)")
    steps = [(r.steps, r.seconds) for r in timed_records if r.op == "integrate" and r.error is None]
    if steps:
        extra["steps_per_s"] = (sum(s for s, _ in steps) / sum(t for _, t in steps), "1/s")
    return extra


def wall_norm(passes):
    return statistics.median(p.wall / p.kernel for p in passes) * kernel.NOMINAL_S


def layer_metrics(traced, untraced, generation):
    """Per-layer metrics: medians over traced passes, plus the overhead."""
    layers = {name: statistics.median(p.layers[name] for p in traced) for name in traced[0].layers}
    for name, unit in spans.PER_LAYER:
        if unit == "count" and name in layers:
            layers[name] = round(layers[name])  # equal in every pass
    # planted fields are built while generating inputs, outside the passes
    name = "hamiltonian.hamiltonian_field_for.s"
    layers[name] = generation[name]
    layers["trace.wall_norm_s"] = wall_norm(traced)
    layers["trace.untraced_wall_norm_s"] = wall_norm(untraced)
    layers["trace.overhead_s"] = layers["trace.wall_norm_s"] - layers["trace.untraced_wall_norm_s"]
    return {name: {"value": layers[name], "unit": unit} for name, unit in spans.PER_LAYER}


def run(workload, seed, seconds, trace, sizes, setup_samples=SETUP_SAMPLES):
    """Run one workload and return the result document that report() prints.

    With trace, the first half of the time runs untraced passes and the
    second half traced ones, so the two wall times give the overhead."""
    config = classifier.ClassifyConfig()
    checks = {}

    def check(name, ok):
        row = checks.setdefault(name, [0, 0])
        row[0] += 1
        row[1] += not ok

    other = workloads.generate(workload, seed + 1, sizes, config).fingerprint()
    tracer = spans.Tracer() if trace else None
    if tracer:
        tracer.install()
    inputs = workloads.generate(workload, seed, sizes, config)
    check("seed-changes-inputs", inputs.fingerprint() != other)
    if tracer:
        generation = tracer.pass_metrics()
        tracer.uninstall()
    run_pass = verify_pass if workload == workloads.VERIFY_LONG else classify_pass
    passes = repeat(lambda: run_pass(inputs, config), seconds / 2 if trace else seconds)
    traced, tree = [], []
    if tracer:
        def traced_pass():
            tracer.reset()
            done = run_pass(inputs, config)
            done.layers = tracer.pass_metrics()
            return done
        tracer.install()
        try:
            traced = repeat(traced_pass, seconds / 2)
        finally:
            tracer.uninstall()
        tree = spans.format_tree(tracer.aggregate()[1])
    check("determinism", len({p.digest for p in passes + traced}) == 1)

    records = [r for p in passes + traced for r in p.records]
    for r in records:
        check(r.check, r.error is None)
    failed = sum(r.error is not None for r in records)
    extra = extra_metrics(passes, records)
    if trace:
        metrics = layer_metrics(traced, passes, generation)
    else:
        setup_raw, setup = setup_seconds(inputs.texts(), setup_samples)
        extra["setup_raw_s"] = (setup_raw, "s")
        values = {
            "setup_s": setup,
            "wall_norm_s": wall_norm(passes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    per_candidate = {}
    for p in traced or passes:
        for r in p.records:
            if r.op == "classify" and r.check not in ("planted-noether", "random-commutator"):
                per_candidate.setdefault(r.key, []).append(r.seconds * 1e3)
    return {
        "workload": workload,
        "trace": trace,
        "pass_wall_s": [p.wall for p in passes + traced],
        "env": environment(seed, config),
        "extra": extra,
        "checks": checks,
        "failures": [f"{r.check} {r.key}: {r.error}" for r in records if r.error is not None],
        "span_tree": tree,
        "per_candidate_ms": {k: statistics.median(v) for k, v in per_candidate.items()},
        "result": {"correct": failed == 0 and all(checks[n][1] == 0 for n in RUN_CHECKS),
                   "attempted": len(records), "failed": failed, "metrics": metrics},
    }


def report(doc):
    print(f"hamsym benchmark: workload={doc['workload']} trace={doc['trace']} "
          f"passes={len(doc['pass_wall_s'])}")
    print("pass wall_s " + " ".join(f"{w:.4f}" for w in doc["pass_wall_s"]))
    print("env " + json.dumps(doc["env"], sort_keys=True))
    for name, body in doc["result"]["metrics"].items():
        print(f"metric {name} {body['value']!r} {body['unit']}")
    for name, (value, unit) in doc["extra"].items():
        print(f"metric {name} {value!r} {unit}")
    for name, (calls, failed) in sorted(doc["checks"].items()):
        print(f"check {name}: {calls} run, {failed} failed")
    for line in doc["failures"][:20]:
        print("FAIL " + line)
    label = "traced" if doc["trace"] else "untraced"
    for key, ms in doc["per_candidate_ms"].items():
        print(f"candidate {key} {ms:.3f} ms ({label}, median)")
    for line in doc["span_tree"]:
        print("span " + line)
    print(json.dumps(doc["result"]))


def smoke():
    """Tiny sizes, every workload, both modes: every metric named in
    BENCHMARK.json is emitted and every reference check runs and passes."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            doc = run(workload, 1, 0, trace, workloads.SMOKE, setup_samples=1)
            section = "per_layer" if trace else "end_to_end"
            want = {m["name"] for m in declared[section]}
            got = set(doc["result"]["metrics"])
            if want != got:
                problems.append(f"{workload} trace={trace}: metrics differ: "
                                f"missing {sorted(want - got)}, extra {sorted(got - want)}")
            for name in REQUIRED_CHECKS[workload] + RUN_CHECKS:
                if name not in doc["checks"]:
                    problems.append(f"{workload} trace={trace}: check {name} did not run")
            problems += [f"{workload} trace={trace}: {f}" for f in doc["failures"]]
            if not doc["result"]["correct"]:
                problems.append(f"{workload} trace={trace}: not correct: {doc['checks']}")
            print(f"smoke {workload} trace={trace}: {doc['result']['attempted']} calls, "
                  f"{len(got)} metrics, checks {sorted(doc['checks'])}")
    for line in problems:
        print("FAIL " + line)
    print("smoke " + ("failed" if problems else "ok"))
    return 1 if problems else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, all workloads, both modes; checks metric names")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    if args.smoke:
        return smoke()
    doc = run(args.workload, args.seed, args.seconds, args.trace, workloads.FULL)
    report(doc)
    return 0 if doc["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
