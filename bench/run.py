"""ttnsim benchmark: one command per workload, output checks, metrics by name.

    python3 bench/run.py --workload lattice16_grid [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the package is imported from ``src/``.
Set-up (import, circuit generation, planning inputs) is repeated and its
median reported as ``setup_s``. The timed region then runs whole passes of
the workload until ``--seconds`` of wall time have been spent (at least one
pass), and every pass's outputs are checked outside the timed region. Each
operation of a pass, and each two-qubit gate, is timed on every pass; a
pass's typical time is the sum of its operations' medians across passes,
and a gate's latency is its median across passes.

``--trace 0`` reports the end-to-end metrics declared in BENCHMARK.json. It
pins BLAS to one thread and times set-up, operations and gates in process
CPU time: on a small shared host, wall time also counts the time other
tenants hold the processor, which moved the figures by a quarter from one
minute to the next, and a second BLAS thread bought no speed but spun on
the other core.
``--trace 1`` keeps BLAS at its default thread count and wall time. It
first runs untraced passes for half the time, then traced passes for the
other half, reduces the spans to per-layer metrics, and repeats one
untraced and one traced pass in a child process with
``OPENBLAS_NUM_THREADS=1`` as the single-threaded BLAS baseline.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Result records, and
with ``--trace 1`` the spans, go to ``.bench_out/`` in the checkout.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

# numpy is imported inside functions only: main() times the package import,
# and numpy's import is part of it.
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 5
# The reference kernel: a fixed complex SVD, owned by the benchmark.
REF_SHAPE = (64, 256)
REF_NOMINAL_S = 3.0e-3   # its median CPU time on the 2-core Xeon VM, quiet host
REF_INTERVAL_S = 0.25    # wall time between two samples
CHILD_TIMEOUT_S = 100  # keeps a traced run within three minutes


def declared_metrics() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
            "workloads": [w["name"] for w in spec["workloads"]]}


# ---------------------------------------------------------------------------
# environment record


def _git_commit():
    """Commit of the checkout, read from .git without starting a process."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path, encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as f:
                return f.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest() -> str:
    """sha256 over the package sources, identifying the code where no git
    metadata is available."""
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "ttnsim")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas_runtime_threads(np):
    """Thread count OpenBLAS reports at run time, or None if not found."""
    import ctypes
    import glob
    libs_dir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for lib_path in sorted(glob.glob(os.path.join(libs_dir, "*openblas*.so*"))):
        try:
            lib = ctypes.CDLL(lib_path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "blas_threads_runtime": _blas_runtime_threads(np),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": platform.python_version(),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
    }


# ---------------------------------------------------------------------------
# measurement


class Reference:
    """Host speed, measured by a fixed kernel timed between operations.

    On a small shared host the same pass took from 2.9 to 5.3 CPU seconds
    within half an hour: other tenants slow the core itself, which CPU time
    does not exclude. The kernel slows with it, so the end-to-end timings of
    a workload marked `scaled` are multiplied by REF_NOMINAL_S over the
    kernel's median time during the run. The kernel is benchmark code, so a
    change to the program does not move it.
    """

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        self._svd = np.linalg.svd
        self._a = rng.standard_normal(REF_SHAPE) + 1j * rng.standard_normal(REF_SHAPE)
        self.samples: list[float] = []
        self._next_at = 0.0

    def sample(self, force=False):
        now = time.perf_counter()
        if not force and now < self._next_at:
            return
        self._next_at = now + REF_INTERVAL_S
        t0 = time.process_time()
        self._svd(self._a, full_matrices=False)
        self.samples.append(time.process_time() - t0)

    def scale(self) -> float:
        """Factor that brings CPU times measured in this run to the
        nominal host speed."""
        return REF_NOMINAL_S / statistics.median(self.samples)


class Passes:
    """Timings of the passes of one measurement.

    `pass_s` holds each pass's wall time, `op_s` each pass's operation
    durations and `gate_s` each pass's per-gate latencies. Every pass runs
    the same operations in the same order, so position i is the same
    operation (or gate) in every pass.
    """

    def __init__(self):
        self.pass_s: list[float] = []
        self.op_s: list[list[float]] = []
        self.gate_s: list[list[float]] = []

    def typical_pass_s(self) -> float:
        """Sum over the operations of each one's median time across passes."""
        return float(sum(per_position_median(self.op_s)))

    def typical_gate_s(self):
        """Each gate's median latency across passes."""
        return per_position_median(self.gate_s)


def per_position_median(rows):
    import numpy as np
    n = min(len(r) for r in rows)  # a failed operation shortens its pass
    return np.median(np.array([r[:n] for r in rows]), axis=0)


def measure(workload, inputs, seconds, tracer, tally, infos) -> Passes:
    """Run passes until `seconds` of pass time are spent (at least one);
    check each pass after its timer stops."""
    passes = Passes()
    while not passes.pass_s or sum(passes.pass_s) < seconds:
        if tracer is not None:
            tracer.run_id = len(passes.pass_s) + 1
            root = tracer.begin("pass")
        gates: list[float] = []
        t0 = time.perf_counter()
        ops = workload.run_pass(inputs, tracer, gates)
        passes.pass_s.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.end(root)
        passes.op_s.append([dt for _, _, dt in ops])
        passes.gate_s.append(gates)
        infos.append(workload.check(inputs, ops, tracer, tally))
    return passes


def svd_gflop(rows: int, cols: int) -> float:
    """Computed flop count of a thin complex SVD (R-SVD, Golub & Van Loan:
    6mn^2 + 11n^3 real flops, times 4 for complex arithmetic)."""
    m, n = max(rows, cols), min(rows, cols)
    return 4.0 * (6.0 * m * n * n + 11.0 * n ** 3) / 1e9


def layer_metrics(tracer, traced: Passes) -> dict:
    traced_runs = list(range(1, len(traced.pass_s) + 1))
    seconds, calls = tracer.self_times(traced_runs)
    passes = len(traced_runs)
    wall = statistics.mean(traced.pass_s)

    def per_pass(table, name):
        return table.get(name, 0) / passes

    def per_gate(engine):
        gates = calls.get(engine + ".sweep", 0)
        facs = tracer.children_of(engine + ".sweep", ("tensors.svd", "tensors.qr"), traced_runs)
        return facs / gates if gates else 0.0

    shapes = tracer.svd_shapes
    gflop = sum(n * svd_gflop(*shape) for shape, (n, _) in shapes.items()) / passes
    svd_s = per_pass(seconds, "tensors.svd")
    qr_s = per_pass(seconds, "tensors.qr")
    return {
        "tensors.svd.calls": per_pass(calls, "tensors.svd"),
        "tensors.svd.s": svd_s,
        "tensors.svd.gflop": gflop,
        "tensors.svd.gflops_rate": gflop / svd_s if svd_s > 0 else 0.0,
        "tensors.svd.max_rows": max((s[0] for s in shapes), default=0),
        "tensors.svd.max_cols": max((s[1] for s in shapes), default=0),
        "tensors.qr.calls": per_pass(calls, "tensors.qr"),
        "tensors.qr.s": qr_s,
        "tensors.factorization_share": (svd_s + qr_s) / wall,
        "ttn.thread.s": per_pass(seconds, "ttn.thread"),
        "ttn.sweep.s": per_pass(seconds, "ttn.sweep"),
        "ttn.factorizations_per_gate": per_gate("ttn"),
        "ttn.peak_entries": tracer.maxima.get("ttn.peak_entries", 0),
        "ttn.to_statevector.s": per_pass(seconds, "ttn.to_statevector"),
        "gates.split.calls": per_pass(calls, "gates.split"),
        "gates.split.s": per_pass(seconds, "gates.split"),
        "topology.path_between.calls": per_pass(calls, "topology.path_between"),
        "topology.path_between.s": per_pass(seconds, "topology.path_between"),
        "mps.thread.s": per_pass(seconds, "mps.thread"),
        "mps.sweep.s": per_pass(seconds, "mps.sweep"),
        "mps.factorizations_per_gate": per_gate("mps"),
        "statevector.simulate.s": per_pass(seconds, "statevector.simulate"),
        "treesearch.similarity.s": per_pass(seconds, "treesearch.similarity"),
        "treesearch.cluster.s": per_pass(seconds, "treesearch.cluster"),
        "treesearch.subtree.s": per_pass(seconds, "treesearch.subtree"),
        "treesearch.exact_calls": per_pass(tracer.counts, "treesearch.exact"),
        "dryrun.tree.s": per_pass(seconds, "dryrun.tree"),
        "dryrun.mps.s": per_pass(seconds, "dryrun.mps"),
        "dryrun.admissible.s": per_pass(seconds, "dryrun.admissible"),
    }


def shape_table(tracer) -> list[dict]:
    rows = [{"rows": r, "cols": c, "calls": n, "s": s, "gflop": n * svd_gflop(r, c)}
            for (r, c), (n, s) in tracer.svd_shapes.items()]
    return sorted(rows, key=lambda row: -row["s"])


def traced_measure(workload, inputs, seconds, tally, infos):
    """Untraced passes, then traced passes; returns the per-layer metrics
    with the tracer and both sets of pass times."""
    from tracing import Tracer
    from workloads import instrument

    untraced = measure(workload, inputs, seconds, None, tally, infos)
    tracer = Tracer()
    instrument(tracer)
    try:
        traced = measure(workload, inputs, seconds, tracer, tally, infos)
    finally:
        tracer.unpatch_all()
    return layer_metrics(tracer, traced), tracer, untraced, traced


def single_thread_baseline(args) -> dict:
    """Repeat the workload in a child process with one BLAS thread."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", "1", "--single-thread-child"]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=False, cwd=ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"single-thread baseline exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def child_main(workload, inputs, tally, infos) -> int:
    """Single-thread baseline: one untraced pass, then one traced pass."""
    layers, _, untraced, _ = traced_measure(workload, inputs, 0.0, tally, infos)
    print(json.dumps({"wall_s": untraced.typical_pass_s(), "svd_s": layers["tensors.svd.s"],
                      "attempted": tally.attempted, "failed": tally.failed,
                      "blas_threads_runtime": environment()["blas_threads_runtime"]}))
    return 0


def end_to_end_values(workload, inputs, args, setup_s, reference, tally, infos,
                      record) -> dict:
    import numpy as np
    passes = measure(workload, inputs, args.seconds, None, tally, infos)
    scale = reference.scale() if workload.scaled else 1.0
    cpu = passes.typical_pass_s() * scale
    gates = passes.typical_gate_s() * scale
    record.update(pass_s=passes.pass_s, op_s=passes.op_s, gate_positions=len(gates),
                  gate_p50_ms=float(np.percentile(gates, 50)) * 1e3,
                  reference_samples=reference.samples, reference_scale=reference.scale(),
                  scale=scale)
    return {
        "setup_s": setup_s * scale,
        "cpu_s": cpu,
        "twoq_gates_per_s": workload.gates_per_pass(inputs) / cpu,
        "gate_mean_ms": float(np.mean(gates)) * 1e3,
        "gate_p95_ms": float(np.percentile(gates, 95)) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "state_entries": infos[0].get("state_entries", 0),
    }


def per_layer_values(workload, inputs, args, gen_times, tally, infos, record) -> dict:
    values, tracer, untraced, traced = traced_measure(
        workload, inputs, args.seconds / 2, tally, infos)
    baseline = single_thread_baseline(args)
    tally.attempted += baseline["attempted"]
    tally.failed += baseline["failed"]
    info = infos[0]
    values.update({
        "tensors.svd.s_1thread": baseline["svd_s"],
        "ttn.cap_events": info.get("cap_events", 0),
        "ttn.trunc_err": info.get("trunc_err", 0.0),
        "ttn.trunc_saved_frac": info.get("trunc_saved_frac", 0.0),
        "dryrun.engine_ratio": info.get("engine_ratio", 0.0),
        "circuits.gen.s": statistics.median(gen_times),
        "wall_s_default": untraced.typical_pass_s(),
        "wall_s_1thread": baseline["wall_s"],
        "trace.overhead_frac": traced.typical_pass_s() / untraced.typical_pass_s() - 1,
    })
    os.makedirs(OUT_DIR, exist_ok=True)
    trace_path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
    with open(trace_path, "w", encoding="utf-8") as f:
        json.dump(dict(tracer.dump(), svd_shapes=shape_table(tracer)), f)
    record.update(untraced_pass_s=untraced.pass_s, traced_pass_s=traced.pass_s,
                  single_thread=baseline, trace_file=os.path.relpath(trace_path, ROOT))
    return values


# ---------------------------------------------------------------------------
# main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed; defaults reproduce the acceptance inputs")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--single-thread-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "ttnsim")):
        print(f"error: no ttnsim package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    declared = declared_metrics()
    if args.workload not in declared["workloads"]:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(declared['workloads'])}", file=sys.stderr)
        return 2

    if args.trace == 0:
        # before numpy loads: one BLAS thread for the CPU-time measurement
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
        os.environ["OMP_NUM_THREADS"] = "1"
        clock = time.process_time
    else:
        clock = time.perf_counter

    sys.path.insert(0, SRC)
    t0 = clock()
    import ttnsim  # noqa: F401  (timed: part of set-up)
    import_s = clock() - t0
    import workloads
    from workloads import WORKLOADS, CheckTally
    workloads.clock = clock
    reference = Reference() if args.trace == 0 else None
    workloads.reference = reference

    workload = WORKLOADS[args.workload]
    if args.seed is None:
        args.seed = workload.default_seed

    gen_times, setup_times = [], []
    for _ in range(SETUP_REPEATS):
        t0 = clock()
        inputs = workload.setup(args.seed)
        t1 = clock()
        workload.plan(inputs)
        setup_times.append(clock() - t0)
        gen_times.append(t1 - t0)
        if reference is not None:
            reference.sample(force=True)
    setup_s = import_s + statistics.median(setup_times)

    tally = CheckTally()
    infos: list[dict] = []
    if args.single_thread_child:
        return child_main(workload, inputs, tally, infos)

    env = environment()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "import_s": import_s,
              "setup_times": setup_times, "gen_times": gen_times}
    if args.trace == 0:
        values = end_to_end_values(workload, inputs, args, setup_s, reference, tally,
                                   infos, record)
        kind = "end_to_end"
    else:
        values = per_layer_values(workload, inputs, args, gen_times, tally, infos, record)
        kind = "per_layer"

    units = declared[kind]
    missing = set(units) - set(values)
    extra = set(values) - set(units)
    if missing or extra:
        raise RuntimeError(f"metrics out of step with BENCHMARK.json: "
                           f"missing {sorted(missing)}, undeclared {sorted(extra)}")
    metrics = {name: {"value": float(values[name]), "unit": units[name]} for name in units}
    record.update(metrics=metrics, attempted=tally.attempted, failed=tally.failed)
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)

    print(f"ttnsim benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("environment: " + json.dumps(env))
    if args.trace == 0:
        print(f"passes: {len(record['pass_s'])}, gates timed per pass: "
              f"{record['gate_positions']}")
    else:
        print(f"passes: {len(record['untraced_pass_s'])} untraced, "
              f"{len(record['traced_pass_s'])} traced, trace file {record['trace_file']}")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    print(f"error_rate: {tally.failed / max(tally.attempted, 1):.6g} "
          f"({tally.failed} failed of {tally.attempted} checked operations)")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
