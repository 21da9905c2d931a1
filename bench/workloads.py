"""The three benchmark workloads: seeded inputs, one timed pass, output checks.

Every workload builds its inputs from the seed alone (`setup`), runs one
pass of operations over them (`run_pass`, the timed part) and afterwards
checks the output of every operation (`check`). With a tracer, a pass calls
the engines' two halves of a two-qubit gate (`thread_two_qubit`, then
`orthonormalize`) separately, exactly as `apply_two_qubit` does, so each
half gets a span of its own.

- lattice16_grid: one truncation-study case, large factorizations dominate.
- oracle50: fifty small random circuits, per-gate Python overhead dominates.
- symbolic_large: planner and dry-runs only, no tensor arithmetic.
"""

import sys
import time
import traceback

import numpy as np

from ttnsim import mps as mps_module
from ttnsim import treesearch
from ttnsim import ttn as ttn_module
from ttnsim.circuits import Circuit, gen_lattice
from ttnsim.dryrun import admissible, dryrun, gen_triangle_pattern
from ttnsim.gates import Gate, haar_unitary
from ttnsim.mps import MpsState
from ttnsim.statevector import fidelity, overlap_error, sv_simulate
from ttnsim.tensors import EXACT, TruncationPolicy
from ttnsim.topology import FlatTree, dumps_topology
from ttnsim.treesearch import SimilarityMatrix, default_cluster_count, find_tree_structure
from ttnsim.ttn import TtnState

FIDELITY_TOL = 1e-10      # exact mode against the dense oracle (criterion 1)
MONOTONE_ERR_TOL = 1e-9   # criterion-8 tolerances for the truncation grid
MONOTONE_MEM_TOL = 1e-12
SIGMA_GRID = (0.0, 1e-8, 1e-6, 1e-4, 1e-2)
D_MAX = 64

# Timing of operations and gates. Wall time by default, as in traced runs,
# whose spans are wall time too. run.py's end-to-end run switches `clock` to
# process CPU time and sets `reference`, which is sampled between operations
# (never inside a timed one).
clock = time.perf_counter
reference = None


def instrument(tracer):
    """Wrap the names the ttnsim modules look up at call time."""
    for module in (ttn_module, mps_module):
        tracer.patch(module, "svd_econ", tracer.svd_wrapper(module.svd_econ))
        tracer.patch(module, "qr_econ", tracer.span_wrapper("tensors.qr", module.qr_econ))
        tracer.patch(module, "split_gate", tracer.span_wrapper("gates.split", module.split_gate))
    tracer.patch(FlatTree, "path_between",
                 tracer.span_wrapper("topology.path_between", FlatTree.path_between))
    tracer.patch(SimilarityMatrix, "exact",
                 tracer.count_wrapper("treesearch.exact", SimilarityMatrix.exact))
    for name, span in (("similarity_matrix", "treesearch.similarity"),
                       ("cluster", "treesearch.cluster"),
                       ("create_subtree", "treesearch.subtree")):
        tracer.patch(treesearch, name, tracer.span_wrapper(span, getattr(treesearch, name)))


# ---------------------------------------------------------------------------
# operations shared by the workloads


def _op(ops, name, tracer, fn, *args):
    """Run and time one operation, appending (name, output, seconds); an
    exception counts as a failed operation with output None."""
    idx = tracer.begin(name) if tracer is not None else None
    t0 = clock()
    try:
        out = fn(*args)
    except Exception:  # operation boundary: record and count, keep measuring
        traceback.print_exc(file=sys.stderr)
        out = None
    finally:
        seconds = clock() - t0
        if tracer is not None:
            tracer.end(idx)
    ops.append((name, out, seconds))
    if reference is not None:
        reference.sample()


def _engine_run(state, circ, policy, tracer, latencies, engine):
    """Apply a circuit gate by gate; untraced runs time each two-qubit gate
    (TTN only), traced runs span its threading and its sweep."""
    for g in circ.gates:
        if g.num_qubits == 1:
            state.apply(g, policy)
        elif tracer is None:
            t0 = clock()
            state.apply(g, policy)
            if latencies is not None:
                latencies.append(clock() - t0)
        else:
            idx = tracer.begin(engine + ".thread")
            dirty = state.thread_two_qubit(g)
            tracer.end(idx)
            if engine == "ttn":
                entries = sum(t.size for t in state.tensors)
                tracer.maxima["ttn.peak_entries"] = max(
                    tracer.maxima.get("ttn.peak_entries", 0), entries)
                idx = tracer.begin("ttn.sweep")
                state.orthonormalize(policy, nodes=dirty)
            else:
                idx = tracer.begin("mps.sweep")
                state.orthonormalize(policy)
            tracer.end(idx)
    return state


def run_ttn(circ, topo, policy, tracer, latencies):
    state = TtnState.basis_state(topo, [0] * circ.num_qubits)
    return _engine_run(state, circ, policy, tracer, latencies, "ttn")


def run_mps(circ, tracer):
    state = MpsState.basis_state(circ.num_qubits, [0] * circ.num_qubits)
    return _engine_run(state, circ, EXACT, tracer, None, "mps")


def _to_vector(state, tracer, span):
    if tracer is None:
        return state.to_statevector()
    return tracer.call(span, state.to_statevector)


def twoq_count(circ: Circuit) -> int:
    return sum(1 for g in circ.gates if g.num_qubits == 2)


# ---------------------------------------------------------------------------
# output checks (pure functions of the results, so tests can corrupt them)


def check_grid(errors, entries) -> list[bool]:
    """One verdict per grid point: exact mode matches the oracle, and overlap
    error and saved entries never decrease as sigma_rel grows."""
    saved = [1.0 - e / entries[0] for e in entries]
    verdicts = []
    for i, sigma in enumerate(SIGMA_GRID):
        ok = errors[i] <= FIDELITY_TOL if sigma == 0.0 else True
        if i > 0:
            ok = (ok and errors[i] >= errors[i - 1] - MONOTONE_ERR_TOL
                  and saved[i] >= saved[i - 1] - MONOTONE_MEM_TOL)
        verdicts.append(ok)
    return verdicts


def check_fidelity(psi, ref) -> bool:
    return fidelity(psi, ref) >= 1.0 - FIDELITY_TOL


def check_dense(ref) -> bool:
    return abs(float(np.linalg.norm(ref)) - 1.0) <= FIDELITY_TOL


def check_dryrun_bounds(dry_dims: dict, engine_dims: dict) -> bool:
    """Dry-run dimensions are at least the engine's on every edge."""
    return dry_dims.keys() == engine_dims.keys() and all(
        dry_dims[e] >= engine_dims[e] for e in dry_dims)


def check_symbolic(tree_max, mps_max, is_admissible) -> tuple[bool, bool, bool]:
    return tree_max <= D_MAX, mps_max > D_MAX, bool(is_admissible)


def ttn_edge_dims(state) -> dict:
    """Engine edge dimensions keyed like the dry-run ledger (by child node)."""
    tree = state.tree
    return {nid: state.edge_dim(nid) for nid in range(tree.num_nodes)
            if tree.parent[nid] is not None}


class CheckTally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, ok: bool):
        self.attempted += 1
        self.failed += 0 if ok else 1


# ---------------------------------------------------------------------------
# lattice16_grid


class LatticeGrid:
    """Criterion-8 case: gen_lattice(4, 8, seed) planned with two clusters,
    run on the TTN engine at every sigma_rel of the grid. The sizes are
    parameters only so that tests can run a miniature."""

    name = "lattice16_grid"
    default_seed = 100
    # Not scaled by the reference kernel: its large BLAS calls slow less
    # with the host than the kernel does: over five seeds, scaling widened
    # the spread of cpu_s from 0.07 to 0.13, and of gate_p95_ms to 0.29.
    scaled = False

    def __init__(self, side=4, depth=8):
        self.side = side
        self.depth = depth

    def setup(self, seed):
        return {"circ": gen_lattice(self.side, self.depth, seed)}

    def plan(self, inputs):
        inputs["topo"] = find_tree_structure(inputs["circ"], 2)

    def gates_per_pass(self, inputs) -> int:
        return len(SIGMA_GRID) * twoq_count(inputs["circ"])

    def run_pass(self, inputs, tracer, latencies):
        ops = []
        for sigma in SIGMA_GRID:
            _op(ops, "ttn.run", tracer, run_ttn, inputs["circ"], inputs["topo"],
                TruncationPolicy(sigma_rel=sigma), tracer, latencies)
        return ops

    def check(self, inputs, ops, tracer, tally) -> dict:
        if "ref" not in inputs:
            inputs["ref"] = sv_simulate(inputs["circ"])
        states = [out for _, out, _ in ops]
        if any(s is None for s in states):
            for s in states:
                tally.add(s is not None)
            return {}
        errors = [overlap_error(_to_vector(s, tracer, "ttn.to_statevector"), inputs["ref"])
                  for s in states]
        entries = [s.metrics().m_entries for s in states]
        for ok in check_grid(errors, entries):
            tally.add(ok)
        return {"state_entries": sum(entries),
                "trunc_err": errors[-1],
                "trunc_saved_frac": 1.0 - entries[-1] / entries[0],
                "cap_events": sum(s.cap_events for s in states)}


# ---------------------------------------------------------------------------
# oracle50


def random_circuit(rng, n, n_gates, p_single=0.3) -> Circuit:
    """The acceptance suite's random-circuit recipe (Haar one- and two-qubit
    gates); the draw order must stay as is to regenerate its circuits."""
    c = Circuit(n)
    for _ in range(n_gates):
        if n == 1 or rng.random() < p_single:
            c.append(Gate("u1", (int(rng.integers(n)),), haar_unitary(2, rng)))
        else:
            qa, qb = rng.choice(n, size=2, replace=False)
            c.append(Gate("u2", (int(qa), int(qb)), haar_unitary(4, rng)))
    return c


ACCEPTANCE_SEED = 20260810  # acceptance criterion 1's master seed


def oracle_circuits(seed, count=50) -> list[Circuit]:
    """The acceptance suite's circuits: N cycles over 4..12 and each circuit
    has 30 to 60 gates, drawn from its master seed.

    Any other seed keeps every circuit's shape (its gates' qubits, in order)
    and draws new Haar unitaries. A circuit's cost is set by its shape, so
    runs on different seeds time the same work on different values; with a
    new shape per seed, the 95th-percentile gate latency moved by a quarter
    from seed to seed.
    """
    out = []
    for i, child in enumerate(np.random.SeedSequence(ACCEPTANCE_SEED).spawn(count)):
        rng = np.random.default_rng(child)
        n = 4 + i % 9
        out.append(random_circuit(rng, n, int(rng.integers(30, 61))))
    if seed == ACCEPTANCE_SEED:
        return out
    rng = np.random.default_rng(seed)
    return [redraw_unitaries(c, rng) for c in out]


def redraw_unitaries(circ: Circuit, rng) -> Circuit:
    out = Circuit(circ.num_qubits)
    for g in circ.gates:
        out.append(Gate(g.label, g.qubits, haar_unitary(2 ** g.num_qubits, rng)))
    return out


class Oracle50:
    """Every circuit on the TTN, MPS and dense engines plus both dry-runs."""

    name = "oracle50"
    default_seed = ACCEPTANCE_SEED
    scaled = True

    def __init__(self, count=50):
        self.count = count

    def setup(self, seed):
        return {"circs": oracle_circuits(seed, self.count)}

    def plan(self, inputs):
        inputs["topos"] = [find_tree_structure(c, default_cluster_count(c.num_qubits))
                           for c in inputs["circs"]]

    def gates_per_pass(self, inputs) -> int:
        # TTN, MPS, dense, tree dry-run and MPS dry-run each take every gate
        return 5 * sum(twoq_count(c) for c in inputs["circs"])

    def run_pass(self, inputs, tracer, latencies):
        ops = []
        for circ, topo in zip(inputs["circs"], inputs["topos"]):
            _op(ops, "ttn.run", tracer, run_ttn, circ, topo, EXACT, tracer, latencies)
            _op(ops, "mps.run", tracer, run_mps, circ, tracer)
            _op(ops, "statevector.simulate", tracer, sv_simulate, circ)
            _op(ops, "dryrun.tree", tracer, dryrun, circ, topo)
            _op(ops, "dryrun.mps", tracer, dryrun, circ, list(range(circ.num_qubits)))
        return ops

    def check(self, inputs, ops, tracer, tally) -> dict:
        entries = 0
        cap_events = 0
        ratios = []
        for case in range(len(inputs["circs"])):
            ttn_state, mps_state, ref, rep_t, rep_m = (
                out for _, out, _ in ops[5 * case:5 * case + 5])
            ref_ok = ref is not None and check_dense(ref)
            tally.add(ref_ok)
            for state, span in ((ttn_state, "ttn.to_statevector"),
                                (mps_state, "mps.to_statevector")):
                if state is None:
                    tally.add(False)
                    continue
                psi = _to_vector(state, tracer, span)
                tally.add(ref_ok and check_fidelity(psi, ref))
                entries += state.metrics().m_entries
            engine_t = None if ttn_state is None else ttn_edge_dims(ttn_state)
            engine_m = None if mps_state is None else dict(enumerate(mps_state.bond_dims()))
            for rep, engine in ((rep_t, engine_t), (rep_m, engine_m)):
                ok = (rep is not None and engine is not None
                      and check_dryrun_bounds(rep.edge_dims, engine))
                tally.add(ok)
                if ok:
                    ratios.extend(engine[e] / rep.edge_dims[e] for e in engine)
            if ttn_state is not None:
                cap_events += ttn_state.cap_events
        return {"state_entries": entries,
                "cap_events": cap_events,
                "engine_ratio": float(np.mean(ratios)) if ratios else 0.0}


# ---------------------------------------------------------------------------
# symbolic_large


class SymbolicLarge:
    """Planner and dry-run at sizes the engines cannot reach.

    Plans the 81-qubit triangle and an 8x8 lattice at the default cluster
    count, dry-runs the 243-qubit, 1011-gate triangle on its matched perfect
    3-ary tree and on the identity MPS order, and checks its admissibility
    at D_max=64. The triangle family has no randomness; the seed drives the
    lattice's gates.
    """

    name = "symbolic_large"
    default_seed = 100
    scaled = True

    def __init__(self, plan_levels=3, lattice_side=8, dryrun_levels=4):
        self.plan_levels = plan_levels
        self.lattice_side = lattice_side
        self.dryrun_levels = dryrun_levels

    def setup(self, seed):
        tri81, _ = gen_triangle_pattern(self.plan_levels, D_MAX)
        tri243, topo243 = gen_triangle_pattern(self.dryrun_levels, D_MAX)
        return {"tri81": tri81, "lat64": gen_lattice(self.lattice_side, 8, seed),
                "tri243": tri243, "topo243": topo243}

    def plan(self, inputs):
        pass  # planning is the measured work here

    def gates_per_pass(self, inputs) -> int:
        return 2 * twoq_count(inputs["tri243"])  # tree and MPS dry-runs

    def run_pass(self, inputs, tracer, latencies):
        ops = []
        for key in ("tri81", "lat64"):
            circ = inputs[key]
            _op(ops, "treesearch.plan", tracer, find_tree_structure, circ,
                default_cluster_count(circ.num_qubits))
        tri, topo = inputs["tri243"], inputs["topo243"]
        _op(ops, "dryrun.tree", tracer, dryrun, tri, topo)
        if tracer is None:
            # no per-gate engine here: the sample is the tree dry-run's
            # replay time per two-qubit gate
            latencies.append(ops[-1][2] / twoq_count(tri))
        _op(ops, "dryrun.mps", tracer, dryrun, tri, list(range(tri.num_qubits)))
        _op(ops, "dryrun.admissible", tracer, admissible, tri, topo, D_MAX)
        return ops

    def check(self, inputs, ops, tracer, tally) -> dict:
        plan81, plan64, rep_t, rep_m, adm = (out for _, out, _ in ops)
        plans = [None if p is None else dumps_topology(p) for p in (plan81, plan64)]
        first = inputs.setdefault("first_plans", plans)
        for plan, text, first_text, key in zip((plan81, plan64), plans, first,
                                               ("tri81", "lat64")):
            # a plan covers the circuit's qubits and is the same every pass
            tally.add(plan is not None and text == first_text
                      and plan.num_qubits == inputs[key].num_qubits)
        if rep_t is None or rep_m is None or adm is None:
            for _ in range(3):
                tally.add(False)
            return {}
        for ok in check_symbolic(max(rep_t.edge_dims.values()),
                                 max(rep_m.edge_dims.values()), adm.admissible):
            tally.add(ok)
        return {"state_entries": rep_t.m_entries + rep_m.m_entries}


WORKLOADS = {w.name: w for w in (LatticeGrid(), Oracle50(), SymbolicLarge())}
