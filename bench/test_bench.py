"""Tests of the benchmark itself: metric names, emitted metric sets, seeded
inputs and the output checks. Workloads run here in miniature."""

import json
import os
import re
import sys

import numpy as np
import pytest

import run

if run.SRC not in sys.path:
    sys.path.insert(0, run.SRC)

import workloads as wl  # noqa: E402
from tracing import Tracer  # noqa: E402
from ttnsim.circuits import dumps_circuit  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

MINIATURES = {
    "lattice16_grid": wl.LatticeGrid(side=2, depth=4),
    "oracle50": wl.Oracle50(count=9),
    "symbolic_large": wl.SymbolicLarge(plan_levels=2, lattice_side=3, dryrun_levels=2),
}


def _spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def test_metric_names_are_well_formed_and_unique():
    spec = _spec()
    names = [m["name"] for kind in ("end_to_end", "per_layer") for m in spec[kind]]
    names += [w["name"] for w in spec["workloads"]]
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    assert len(names) == len(set(names))
    assert "setup_s" in {m["name"] for m in spec["end_to_end"]}


def test_declared_workloads_exist():
    assert [w["name"] for w in _spec()["workloads"]] == list(wl.WORKLOADS)


def _last_json(text):
    return json.loads(text.strip().splitlines()[-1])


@pytest.mark.parametrize("name", list(MINIATURES))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_declared_metric_is_emitted(name, trace, monkeypatch, tmp_path, capsys):
    monkeypatch.setitem(wl.WORKLOADS, name, MINIATURES[name])
    monkeypatch.setattr(run, "OUT_DIR", str(tmp_path))
    # main() sets these; monkeypatch restores them afterwards
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "")
    monkeypatch.setenv("OMP_NUM_THREADS", "")
    monkeypatch.setattr(wl, "clock", wl.clock)
    monkeypatch.setattr(wl, "reference", None)
    monkeypatch.setattr(run, "single_thread_baseline",
                        lambda args: {"wall_s": 1.0, "svd_s": 0.5, "attempted": 1, "failed": 0})
    assert run.main(["--workload", name, "--seconds", "0", "--trace", str(trace)]) == 0
    out = _last_json(capsys.readouterr().out)
    kind = "end_to_end" if trace == 0 else "per_layer"
    declared = {m["name"]: m["unit"] for m in _spec()[kind]}
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert {k: v["unit"] for k, v in out["metrics"].items()} == declared
    if trace == 0:
        assert all(v["value"] > 0 for v in out["metrics"].values())


def test_single_thread_child_reports_both_timings(capsys):
    workload = MINIATURES["lattice16_grid"]
    inputs = workload.setup(1)
    workload.plan(inputs)
    tally = wl.CheckTally()
    assert run.child_main(workload, inputs, tally, []) == 0
    out = _last_json(capsys.readouterr().out)
    assert out["wall_s"] > 0 and out["svd_s"] > 0 and out["failed"] == 0


def test_reference_is_sampled_between_operations(monkeypatch):
    class Counter:
        calls = 0

        def sample(self):
            self.calls += 1

    counter = Counter()
    monkeypatch.setattr(wl, "reference", counter)
    workload, inputs, ops = _checked_oracle_pass()
    assert counter.calls == len(ops)


def test_reference_scale_is_nominal_over_median():
    reference = run.Reference()
    for _ in range(3):
        reference.sample(force=True)
    assert len(reference.samples) == 3
    assert reference.scale() == pytest.approx(
        run.REF_NOMINAL_S / float(np.median(reference.samples)))


def test_missing_package_exits_nonzero_without_result(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", str(tmp_path / "src"))
    assert run.main(["--workload", "oracle50"]) != 0
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_seed_regenerates_identical_circuits(name):
    workload = MINIATURES[name]
    first, second = workload.setup(7), workload.setup(7)
    for key, value in first.items():
        if isinstance(value, list):
            assert [dumps_circuit(c) for c in value] == [dumps_circuit(c) for c in second[key]]
        elif hasattr(value, "gates"):
            assert dumps_circuit(value) == dumps_circuit(second[key])


def test_default_oracle_seed_is_the_acceptance_suite():
    circs = wl.oracle_circuits(wl.Oracle50.default_seed)
    assert [c.num_qubits for c in circs[:9]] == list(range(4, 13))
    assert sum(wl.twoq_count(c) for c in circs) == 1645
    # another seed: the same shapes with new unitaries
    other = wl.oracle_circuits(wl.Oracle50.default_seed + 1)
    assert [[g.qubits for g in c.gates] for c in other] == [[g.qubits for g in c.gates]
                                                            for c in circs]
    assert not np.allclose(other[0].gates[0].matrix, circs[0].gates[0].matrix)


def _checked_oracle_pass():
    workload = MINIATURES["oracle50"]
    inputs = workload.setup(3)
    workload.plan(inputs)
    ops = workload.run_pass(inputs, None, [])
    return workload, inputs, ops


def test_clean_oracle_pass_has_no_failures():
    workload, inputs, ops = _checked_oracle_pass()
    tally = wl.CheckTally()
    workload.check(inputs, ops, None, tally)
    assert tally.attempted == len(ops) and tally.failed == 0


def test_perturbed_statevector_is_counted():
    workload, inputs, ops = _checked_oracle_pass()
    name, ref, seconds = ops[2]
    assert name == "statevector.simulate"
    bad = ref.copy()
    bad[0] += 1e-3
    ops[2] = (name, bad, seconds)
    tally = wl.CheckTally()
    workload.check(inputs, ops, None, tally)
    # the oracle's norm check and both engines' fidelity checks fail
    assert tally.failed == 3


def test_undersized_dryrun_dimension_is_counted():
    workload, inputs, ops = _checked_oracle_pass()
    rep = ops[3][1]
    edge = max(rep.edge_dims, key=rep.edge_dims.get)
    assert rep.edge_dims[edge] > 1
    rep.edge_dims[edge] = 1
    tally = wl.CheckTally()
    workload.check(inputs, ops, None, tally)
    assert tally.failed == 1


def test_failed_operation_is_counted():
    workload, inputs, ops = _checked_oracle_pass()
    ops[0] = (ops[0][0], None, ops[0][2])
    tally = wl.CheckTally()
    workload.check(inputs, ops, None, tally)
    # the TTN run, and the tree dry-run bound that can no longer be checked
    assert tally.failed == 2


def test_grid_checks_catch_inexact_and_non_monotone_results():
    entries = [100, 100, 90, 80, 50]
    errors = [1e-15, 1e-15, 1e-12, 1e-7, 1e-2]
    assert all(wl.check_grid(errors, entries))
    assert wl.check_grid([1e-6] + errors[1:], entries)[0] is False
    assert wl.check_grid(errors[:3] + [1e-1, 1e-2], entries)[4] is False
    assert wl.check_grid(errors, entries[:3] + [95, 50])[3] is False


def test_symbolic_checks():
    assert wl.check_symbolic(64, 16384, True) == (True, True, True)
    assert wl.check_symbolic(128, 64, False) == (False, False, False)


def test_tracer_self_time_subtracts_direct_children():
    tracer = Tracer()
    tracer.run_id = 1
    outer = tracer.begin("outer")
    inner = tracer.begin("inner")
    tracer.end(inner)
    tracer.end(outer)
    seconds, calls = tracer.self_times([1])
    outer_span, inner_span = tracer.spans
    assert calls == {"outer": 1, "inner": 1}
    assert inner_span[3] == outer and outer_span[3] == -1
    expected = (outer_span[2] - outer_span[1]) - (inner_span[2] - inner_span[1])
    assert seconds["outer"] == pytest.approx(expected)


def test_instrument_restores_the_program():
    from ttnsim import ttn
    original = ttn.svd_econ
    tracer = Tracer()
    wl.instrument(tracer)
    assert ttn.svd_econ is not original
    tracer.unpatch_all()
    assert ttn.svd_econ is original


def test_svd_flop_count():
    assert run.svd_gflop(4, 2) == run.svd_gflop(2, 4)
    assert run.svd_gflop(256, 1024) == pytest.approx(4 * (6 * 1024 * 256**2 + 11 * 256**3) / 1e9)
    assert np.isfinite(run.svd_gflop(1, 1))
