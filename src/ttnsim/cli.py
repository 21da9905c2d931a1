"""Command-line driver: circuit generation, planning, simulation, dry-runs.

Every command is deterministic for fixed flags and seed. CSV output holds
neither wall-clock timings nor file paths: the simulate CSV names the circuit
by the sha256 of its canonical text, so it does not depend on the directory the
files are in. Timings and the circuit path as typed live only in the JSON run
records. Exit codes: 0 success, 2 validation error, 3 numerical failure,
4 memory cap exceeded or host memory exhausted below it.
"""

import argparse
import functools
import hashlib
import json
import sys
import time
from dataclasses import asdict, dataclass

from . import mps, statevector, ttn
from .circuits import Circuit, dumps_circuit, fmt17, gen_lattice, gen_treelike, load_circuit, \
    save_circuit
from .dryrun import admissible, dryrun, gen_triangle_pattern
from .errors import FactorizationError, MemoryCapExceeded
from .statevector import DEFAULT_MEMORY_CAP, DEFAULT_QUBIT_CAP
from .tensors import TruncationPolicy
from .topology import load_topology, save_topology
from .treesearch import default_cluster_count, find_tree_structure

MEMORY_CAP_HELP = ("exit 4 when the state would need more complex entries than this; for "
                   "mps these are the comb's tensors (a spine node and a leaf per site), "
                   "not the site-fused m_entries. The default, 2^31 entries (32 GiB), does "
                   "not protect a host with less memory: a run that exhausts host memory "
                   "below the cap exits 4 too")
SIMULATE_CSV_HEADER = ("engine,circuit,num_qubits,num_gates,sigma_rel,dmax,seed,"
                       "d_max_observed,m_entries,cap_events,fidelity")
DRYRUN_CSV_HEADER = "edge_id,level,dim"


@dataclass
class RunRecord:
    """One simulation run: configuration, timings, final metrics.

    ``circuit`` is the circuit file path as typed on the command line; the
    simulate CSV replaces it with ``circuit_digest`` of the loaded circuit.
    """

    engine: str
    circuit: str
    num_qubits: int
    num_gates: int
    sigma_rel: float
    dmax: int | None
    seed: int
    order: list | None
    total_seconds: float
    per_gate_seconds: list
    d_max_observed: int
    m_entries: int
    cap_events: int
    fidelity: float | None


def _parse_order(text: str | None, n: int):
    if text is None:
        return None
    order = [int(v) for v in text.split(",")]
    if sorted(order) != list(range(n)):
        raise ValueError(f"--order must be a permutation of 0..{n - 1}")
    return order


def _plan_topology(args, circuit: Circuit):
    if getattr(args, "topology", None):
        return load_topology(args.topology)
    clusters = default_cluster_count(circuit.num_qubits) if args.clusters is None else args.clusters
    return find_tree_structure(circuit, clusters)


def _new_state(engine: str, args, circuit: Circuit, topo, order):
    """|0...0> on `engine` under the run's caps; the only branch on an engine
    name. `topo()` gives the ttn topology, `order` is the mps --order text."""
    bits = [0] * circuit.num_qubits
    if engine == "ttn":
        return ttn.TtnState.basis_state(topo(), bits, memory_cap=args.memory_cap)
    if engine == "mps":
        return mps.MpsState.basis_state(circuit.num_qubits, bits,
                                        order=_parse_order(order, circuit.num_qubits),
                                        memory_cap=args.memory_cap)
    return statevector.DenseState(bits, qubit_cap=args.cap, memory_cap=args.memory_cap)


def _simulate_run(args, circuit: Circuit) -> RunRecord:
    policy = TruncationPolicy(sigma_rel=args.sigma_rel, d_max=args.dmax)
    state = _new_state(args.engine, args, circuit, lambda: _plan_topology(args, circuit),
                       args.order)
    per_gate = []
    start = time.perf_counter()
    for g in circuit.gates:
        t0 = time.perf_counter()
        state.apply(g, policy)
        per_gate.append(time.perf_counter() - t0)
    total = time.perf_counter() - start
    m = state.metrics()

    fid = None
    if circuit.num_qubits <= args.cap:
        psi = state.to_statevector(args.cap)
        # the dense engine's amplitudes are the reference bit for bit
        ref = psi if isinstance(state, statevector.DenseState) else \
            statevector.sv_simulate(circuit, qubit_cap=args.cap)
        fid = statevector.fidelity(psi, ref)
    return RunRecord(
        engine=args.engine,
        circuit=args.circuit,
        num_qubits=circuit.num_qubits,
        num_gates=len(circuit.gates),
        sigma_rel=args.sigma_rel,
        dmax=args.dmax,
        seed=args.seed,
        order=getattr(state, "order", None),  # only an MPS has a site order
        total_seconds=total,
        per_gate_seconds=per_gate,
        d_max_observed=m.d_max_observed,
        m_entries=m.m_entries,
        cap_events=state.cap_events,
        fidelity=fid,
    )


def circuit_digest(circuit: Circuit) -> str:
    """sha256 hex digest of the circuit's canonical text (``dumps_circuit``)."""
    return hashlib.sha256(dumps_circuit(circuit).encode("utf-8")).hexdigest()


def _write(path, text: str) -> None:
    """Write `text` and a final newline to `path`."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(text + "\n")


def _record_csv_row(rec: RunRecord, digest: str) -> str:
    fid = fmt17(rec.fidelity) if rec.fidelity is not None else ""
    return (f"{rec.engine},{digest},{rec.num_qubits},{rec.num_gates},"
            f"{fmt17(rec.sigma_rel)},{rec.dmax if rec.dmax is not None else ''},"
            f"{rec.seed},{rec.d_max_observed},{rec.m_entries},{rec.cap_events},{fid}")


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen(args) -> int:
    if args.kind == "lattice":
        circuit = gen_lattice(args.n, args.depth, args.seed)
    elif args.kind == "treelike":
        circuit = gen_treelike(args.clusters, args.reps)
    else:
        circuit, topo = gen_triangle_pattern(args.levels, args.dmax)
        if args.topology_out:
            save_topology(topo, args.topology_out)
    save_circuit(circuit, args.out)
    print(f"wrote {args.out}: {circuit.num_qubits} qubits, {len(circuit.gates)} gates")
    return 0


def cmd_plan(args) -> int:
    circuit = load_circuit(args.circuit)
    topo = _plan_topology(args, circuit)
    save_topology(topo, args.out)
    print(f"wrote {args.out}: height {topo.height}, max arity {topo.max_arity}")
    return 0


def cmd_simulate(args) -> int:
    circuit = load_circuit(args.circuit)
    rec = _simulate_run(args, circuit)
    doc = json.dumps(asdict(rec), indent=1)
    if args.metrics_out:
        _write(args.metrics_out, doc)
    if args.csv_out:
        _write(args.csv_out,
               SIMULATE_CSV_HEADER + "\n" + _record_csv_row(rec, circuit_digest(circuit)))
    print(doc)
    return 0


def cmd_dryrun(args) -> int:
    circuit = load_circuit(args.circuit)
    verdict = None
    if args.engine == "mps":
        if args.dmax is not None:
            raise ValueError("--dmax is for the ttn engine only")
        order = _parse_order(args.order, circuit.num_qubits) or list(range(circuit.num_qubits))
        report = dryrun(circuit, order, cap=args.cap)
    else:
        topo = _plan_topology(args, circuit)
        report = dryrun(circuit, topo, cap=args.cap)
        if args.dmax is not None:
            adm = asdict(admissible(circuit, topo, args.dmax))
            verdict = {k: v for k, v in adm.items() if k not in ("arity", "edge_products")}
    doc = {
        "kind": report.kind,
        "d_max_observed": report.d_max_observed,
        "m_entries": report.m_entries,
        "cap": report.cap,
        "cap_events": report.cap_events,
        "num_gate_events": len(report.events),
        "admissibility": verdict,
    }
    text = json.dumps(doc, indent=1)
    if args.out:
        _write(args.out, text)
    if args.csv_out:
        rows = [DRYRUN_CSV_HEADER]
        for edge in sorted(report.edge_dims):
            rows.append(f"{edge},{report.edge_levels[edge]},{report.edge_dims[edge]}")
        _write(args.csv_out, "\n".join(rows))
    print(text)
    return 0


def cmd_compare(args) -> int:
    circuit = load_circuit(args.circuit)
    if circuit.num_qubits > args.cap:
        raise ValueError(f"compare needs dense contraction; N > {args.cap}")

    topo = functools.cache(lambda: _plan_topology(args, circuit))  # one plan for both sides
    sides = []
    for engine, sigma_rel, dmax in ((args.engine_a, args.sigma_rel_a, args.dmax_a),
                                    (args.engine_b, args.sigma_rel_b, args.dmax_b)):
        policy = TruncationPolicy(sigma_rel=sigma_rel, d_max=dmax)
        state = _new_state(engine, args, circuit, topo, None)
        for g in circuit.gates:
            state.apply(g, policy)
        # the dense reference has no network sizes to compare
        metrics = None if isinstance(state, statevector.DenseState) else state.metrics()
        sides.append((state.to_statevector(args.cap), metrics))
    (psi_a, metrics_a), (psi_b, metrics_b) = sides
    doc = {
        "engine_a": args.engine_a,
        "engine_b": args.engine_b,
        "overlap_error": statevector.overlap_error(psi_a, psi_b),
    }
    if metrics_a and metrics_b:
        doc["m_entries_a"] = metrics_a.m_entries
        doc["m_entries_b"] = metrics_b.m_entries
        doc["d_max_a"] = metrics_a.d_max_observed
        doc["d_max_b"] = metrics_b.d_max_observed
        doc["m_saved"] = 1.0 - metrics_b.m_entries / metrics_a.m_entries
    text = json.dumps(doc, indent=1)
    if args.out:
        _write(args.out, text)
    print(text)
    return 0


# ---------------------------------------------------------------------------
# argument wiring


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ttnsim",
                                     description="tree tensor network circuit simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a benchmark circuit file")
    p.add_argument("kind", choices=["lattice", "treelike", "triangle"])
    p.add_argument("--n", type=int, default=4, help="lattice side")
    p.add_argument("--depth", type=int, default=8, help="lattice layers")
    p.add_argument("--clusters", type=int, default=4, help="treelike cluster count")
    p.add_argument("--reps", type=int, default=3, help="treelike chain repetitions")
    p.add_argument("--levels", type=int, default=2, help="triangle recursion levels")
    p.add_argument("--dmax", type=int, default=64, help="triangle budget (16 or 64)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--topology-out", help="also write the matched triangle topology")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("plan", help="search a tree topology for a circuit")
    p.add_argument("--circuit", required=True)
    p.add_argument("--clusters", type=int, help="default: about sqrt(N)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("simulate", help="run a circuit on one engine")
    p.add_argument("--circuit", required=True)
    p.add_argument("--engine", choices=["ttn", "mps", "statevector"], default="ttn")
    p.add_argument("--topology", help="topology file (ttn); planned when omitted")
    p.add_argument("--clusters", type=int, help="planner cluster count when planning")
    p.add_argument("--sigma-rel", type=float, default=0.0)
    p.add_argument("--dmax", type=int, help="truncation rank cap")
    p.add_argument("--cap", type=int, default=DEFAULT_QUBIT_CAP, help="dense-contraction qubit cap")
    p.add_argument("--seed", type=int, default=0, help="recorded in the run record")
    p.add_argument("--order", help="mps qubit-to-site permutation, e.g. 2,0,1")
    p.add_argument("--memory-cap", type=int, default=DEFAULT_MEMORY_CAP, help=MEMORY_CAP_HELP)
    p.add_argument("--metrics-out", help="write the JSON run record here")
    p.add_argument("--csv-out", help="write a one-row CSV (no timing columns, no paths: "
                                     "the circuit is named by its sha256)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("dryrun", help="symbolic bond-dimension run")
    p.add_argument("--circuit", required=True)
    p.add_argument("--engine", choices=["ttn", "mps"], default="ttn")
    p.add_argument("--topology", help="topology file (ttn); planned when omitted")
    p.add_argument("--clusters", type=int)
    p.add_argument("--order", help="mps qubit-to-site permutation")
    p.add_argument("--cap", type=int, help="clamp dims here (at least 1) and count events")
    p.add_argument("--dmax", type=int, help="budget for the admissibility verdict (ttn only)")
    p.add_argument("--out", help="write the JSON report here")
    p.add_argument("--csv-out", help="write per-edge dims: edge_id,level,dim")
    p.set_defaults(func=cmd_dryrun)

    p = sub.add_parser("compare", help="overlap error and metric deltas of two runs")
    p.add_argument("--circuit", required=True)
    p.add_argument("--engine-a", choices=["ttn", "mps", "statevector"], default="ttn")
    p.add_argument("--engine-b", choices=["ttn", "mps", "statevector"], default="ttn")
    p.add_argument("--topology", help="shared ttn topology; planned when omitted")
    p.add_argument("--clusters", type=int)
    p.add_argument("--sigma-rel-a", type=float, default=0.0)
    p.add_argument("--sigma-rel-b", type=float, default=0.0)
    p.add_argument("--dmax-a", type=int)
    p.add_argument("--dmax-b", type=int)
    p.add_argument("--cap", type=int, default=DEFAULT_QUBIT_CAP)
    p.add_argument("--memory-cap", type=int, default=DEFAULT_MEMORY_CAP, help=MEMORY_CAP_HELP)
    p.add_argument("--out")
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FactorizationError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except MemoryCapExceeded as exc:
        print(f"memory cap exceeded: {exc}", file=sys.stderr)
        return 4
    except MemoryError:
        print("out of memory: host memory ran out below --memory-cap; lower the cap",
              file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
