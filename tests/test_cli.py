import hashlib
import json
import shutil

import numpy as np
import pytest

from ttnsim import cli, gates, statevector, ttn
from ttnsim.circuits import Circuit, dumps_circuit, fmt17, load_circuit, save_circuit
from ttnsim.cli import main
from ttnsim.errors import FactorizationError
from ttnsim.treesearch import find_tree_structure


def run(args):
    return main([str(a) for a in args])


@pytest.fixture
def treelike_files(tmp_path):
    circ = tmp_path / "c.json"
    topo = tmp_path / "t.json"
    assert run(["gen", "treelike", "--clusters", 3, "--reps", 2, "--out", circ]) == 0
    assert run(["plan", "--circuit", circ, "--clusters", 3, "--out", topo]) == 0
    return circ, topo


@pytest.fixture
def lattice4(tmp_path):
    circ = tmp_path / "c.json"
    run(["gen", "lattice", "--n", 2, "--depth", 4, "--seed", 1, "--out", circ])  # 4 qubits
    return circ


class TestGen:
    def test_lattice(self, tmp_path):
        out = tmp_path / "lat.json"
        assert run(["gen", "lattice", "--n", 3, "--depth", 4, "--seed", 5, "--out", out]) == 0
        doc = json.loads(out.read_text())
        assert doc["num_qubits"] == 9

    def test_triangle_writes_topology(self, tmp_path):
        circ, topo = tmp_path / "tri.json", tmp_path / "tri_topo.json"
        assert run(["gen", "triangle", "--levels", 1, "--dmax", 16, "--out", circ,
                    "--topology-out", topo]) == 0
        assert json.loads(circ.read_text())["num_qubits"] == 9
        assert topo.exists()

    def test_determinism_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            run(["gen", "lattice", "--n", 4, "--depth", 8, "--seed", 42, "--out", out])
        assert a.read_bytes() == b.read_bytes()

    def test_bad_params_exit_2(self, tmp_path):
        assert run(["gen", "lattice", "--n", 1, "--out", tmp_path / "x.json"]) == 2


class TestPlan:
    def test_idempotent(self, tmp_path, treelike_files):
        circ, topo = treelike_files
        again = tmp_path / "t2.json"
        run(["plan", "--circuit", circ, "--clusters", 3, "--out", again])
        assert topo.read_bytes() == again.read_bytes()

    def test_missing_circuit_exit_2(self, tmp_path):
        assert run(["plan", "--circuit", tmp_path / "nope.json",
                    "--out", tmp_path / "t.json"]) == 2

    @pytest.mark.parametrize("command, out_flag", [("plan", "--out"),
                                                   ("simulate", "--metrics-out")])
    def test_zero_clusters_exit_2(self, tmp_path, treelike_files, command, out_flag):
        circ, _ = treelike_files
        out = tmp_path / "out.json"
        assert run([command, "--circuit", circ, "--clusters", 0, out_flag, out]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("command, out_flag", [("plan", "--out"),
                                                   ("simulate", "--metrics-out")])
    @pytest.mark.parametrize("clusters, code", [(0, 2), (1, 0), (2, 2)])
    def test_one_qubit_cluster_range(self, tmp_path, command, out_flag, clusters, code):
        circ = tmp_path / "one.json"
        circ.write_text(dumps_circuit(Circuit(1)))
        out = tmp_path / "out.json"
        assert run([command, "--circuit", circ, "--clusters", clusters, out_flag, out]) == code
        assert out.exists() == (code == 0)
        if command == "plan" and code == 0:
            assert out.read_text() == '{"leaf":0}\n'


class TestSimulate:
    def test_ttn_with_topology(self, tmp_path, treelike_files, capsys):
        circ, topo = treelike_files
        rec_path = tmp_path / "rec.json"
        csv_path = tmp_path / "run.csv"
        assert run(["simulate", "--circuit", circ, "--engine", "ttn",
                    "--topology", topo, "--metrics-out", rec_path,
                    "--csv-out", csv_path]) == 0
        rec = json.loads(rec_path.read_text())
        assert rec["fidelity"] == pytest.approx(1.0, abs=1e-10)
        assert rec["total_seconds"] >= 0
        assert len(rec["per_gate_seconds"]) == rec["num_gates"]
        header, row = csv_path.read_text().strip().split("\n")
        assert header.startswith("engine,circuit,num_qubits")
        assert row.startswith("ttn,")

    def test_all_engines_agree(self, tmp_path, treelike_files):
        circ, topo = treelike_files
        fids = {}
        for engine in ("ttn", "mps", "statevector"):
            rec_path = tmp_path / f"{engine}.json"
            assert run(["simulate", "--circuit", circ, "--engine", engine,
                        "--topology", topo, "--metrics-out", rec_path]) == 0
            fids[engine] = json.loads(rec_path.read_text())["fidelity"]
        assert all(f == pytest.approx(1.0, abs=1e-9) for f in fids.values())

    def test_mps_with_order(self, tmp_path, treelike_files):
        circ, _ = treelike_files
        rec_path = tmp_path / "rec.json"
        order = ",".join(str(q) for q in reversed(range(13)))
        assert run(["simulate", "--circuit", circ, "--engine", "mps",
                    "--order", order, "--metrics-out", rec_path]) == 0
        assert json.loads(rec_path.read_text())["fidelity"] == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("engine, recorded", [("ttn", None), ("statevector", None),
                                                  ("mps", [1, 0, 2, 3])])
    def test_record_order_is_the_engines(self, tmp_path, lattice4, engine, recorded):
        rec_path = tmp_path / "rec.json"
        assert run(["simulate", "--circuit", lattice4, "--engine", engine, "--order", "1,0,2,3",
                    "--metrics-out", rec_path]) == 0
        assert json.loads(rec_path.read_text())["order"] == recorded

    def test_truncated_run_reports_policy(self, tmp_path, treelike_files):
        circ, topo = treelike_files
        rec_path = tmp_path / "rec.json"
        assert run(["simulate", "--circuit", circ, "--topology", topo,
                    "--sigma-rel", "1e-3", "--dmax", 8,
                    "--metrics-out", rec_path]) == 0
        rec = json.loads(rec_path.read_text())
        assert rec["sigma_rel"] == 1e-3 and rec["dmax"] == 8

    @pytest.mark.parametrize("engine", ["ttn", "mps"])
    def test_memory_cap_exit_4(self, tmp_path, engine):
        circ = tmp_path / "c.json"
        run(["gen", "lattice", "--n", 3, "--depth", 6, "--seed", 1, "--out", circ])
        assert run(["simulate", "--circuit", circ, "--engine", engine, "--memory-cap", 50]) == 4

    @pytest.mark.parametrize("kernel", ["qr_econ", "svd_econ", "svd_two_cols"])
    def test_numerical_failure_exit_3(self, tmp_path, kernel, monkeypatch, capsys):
        def fail(m, *args, **kwargs):
            raise FactorizationError(f"{kernel} of a {m.shape} matrix did not converge")

        circ = tmp_path / "c.json"
        run(["gen", "lattice", "--n", 3, "--depth", 6, "--seed", 1, "--out", circ])
        monkeypatch.setattr(ttn, kernel, fail)
        assert run(["simulate", "--circuit", circ, "--engine", "ttn"]) == 3
        assert "numerical failure: node " in capsys.readouterr().err

    def test_lapack_failure_exit_3(self, tmp_path, monkeypatch, capsys):
        # the engine's own conversion of a LinAlgError, not a patched wrapper
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("no convergence")

        circ = tmp_path / "c.json"
        run(["gen", "lattice", "--n", 3, "--depth", 6, "--seed", 1, "--out", circ])
        monkeypatch.setattr(np.linalg, "qr", fail)
        assert run(["simulate", "--circuit", circ, "--engine", "ttn"]) == 3
        assert "did not converge" in capsys.readouterr().err

    def test_host_out_of_memory_exit_4(self, tmp_path, monkeypatch, capsys):
        # a host with less memory than --memory-cap allows: no real allocation
        def fail(*args, **kwargs):
            raise MemoryError

        circ = tmp_path / "c.json"
        run(["gen", "lattice", "--n", 3, "--depth", 6, "--seed", 1, "--out", circ])
        monkeypatch.setattr(ttn.TtnState, "apply", fail)
        assert run(["simulate", "--circuit", circ, "--engine", "ttn"]) == 4
        assert "host memory ran out below --memory-cap" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, code", [(["--cap", 3], 2), (["--memory-cap", 15], 4),
                                             (["--cap", 4, "--memory-cap", 16], 0)])
    def test_statevector_enforces_caps(self, tmp_path, flags, code):
        circ = tmp_path / "c.json"
        run(["gen", "lattice", "--n", 2, "--depth", 4, "--seed", 1, "--out", circ])  # 4 qubits
        assert run(["simulate", "--circuit", circ, "--engine", "statevector"] + flags) == code

    def test_dense_run_is_its_own_reference(self, tmp_path, lattice4, monkeypatch):
        ref = statevector.sv_simulate(load_circuit(lattice4))
        expected = fmt17(statevector.fidelity(ref, ref))
        sv_simulate = statevector.sv_simulate
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return sv_simulate(*args, **kwargs)

        def refuse(*args, **kwargs):
            raise AssertionError("the dense run recomputed its own amplitudes")

        csv_path = tmp_path / "run.csv"
        monkeypatch.setattr(statevector, "sv_simulate", refuse)
        assert run(["simulate", "--circuit", lattice4, "--engine", "statevector",
                    "--csv-out", csv_path]) == 0
        assert csv_path.read_text().strip().split(",")[-1] == expected
        monkeypatch.setattr(statevector, "sv_simulate", counting)
        assert run(["simulate", "--circuit", lattice4, "--engine", "ttn"]) == 0
        assert len(calls) == 1

    def test_csv_deterministic_across_runs(self, tmp_path, treelike_files):
        circ, topo = treelike_files
        csvs = []
        for name in ("r1.csv", "r2.csv"):
            path = tmp_path / name
            run(["simulate", "--circuit", circ, "--topology", topo,
                 "--seed", 9, "--csv-out", path])
            csvs.append(path.read_bytes())
        assert csvs[0] == csvs[1]

    def test_csv_names_circuit_by_content_not_path(self, tmp_path, treelike_files):
        circ, topo = treelike_files
        csvs, records = [], []
        for dirname in ("plain", "with,comma"):
            d = tmp_path / dirname
            d.mkdir()
            copy = d / "c.json"
            shutil.copyfile(circ, copy)
            csv_path, rec_path = d / "run.csv", d / "rec.json"
            assert run(["simulate", "--circuit", copy, "--topology", topo, "--seed", 3,
                        "--csv-out", csv_path, "--metrics-out", rec_path]) == 0
            csvs.append(csv_path.read_bytes())
            records.append((str(copy), json.loads(rec_path.read_text())))
        assert csvs[0] == csvs[1]
        header, row = csvs[0].decode().strip().split("\n")
        fields = row.split(",")
        assert len(header.split(",")) == len(fields) == 11
        digest = hashlib.sha256(dumps_circuit(load_circuit(circ)).encode("utf-8")).hexdigest()
        assert fields[1] == digest
        for path, rec in records:
            assert rec["circuit"] == path


class TestDryrunCmd:
    def test_tree_report_and_csv(self, tmp_path, treelike_files):
        circ, topo = treelike_files
        rep_path, csv_path = tmp_path / "rep.json", tmp_path / "edges.csv"
        assert run(["dryrun", "--circuit", circ, "--topology", topo, "--dmax", 16,
                    "--out", rep_path, "--csv-out", csv_path]) == 0
        rep = json.loads(rep_path.read_text())
        assert rep["kind"] == "ttn"
        assert rep["admissibility"]["admissible"] is True
        lines = csv_path.read_text().strip().split("\n")
        assert lines[0] == "edge_id,level,dim"
        # one row per tree edge
        doc = json.loads(rep_path.read_text())
        assert len(lines) - 1 == rep_count_edges(topo)

    def test_mps_dryrun(self, tmp_path, treelike_files):
        circ, _ = treelike_files
        rep_path = tmp_path / "rep.json"
        assert run(["dryrun", "--circuit", circ, "--engine", "mps",
                    "--out", rep_path]) == 0
        assert json.loads(rep_path.read_text())["kind"] == "mps"

    def test_mps_rejects_dmax(self, treelike_files, capsys):
        circ, _ = treelike_files
        assert run(["dryrun", "--circuit", circ, "--engine", "mps", "--dmax", 16]) == 2
        assert "--dmax is for the ttn engine only" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "dryrun"])
    @pytest.mark.parametrize("order", ["0,0,1,2", "0,1,2"], ids=["repeated", "short"])
    def test_bad_order_exit_2(self, lattice4, command, order):
        assert run([command, "--circuit", lattice4, "--engine", "mps", "--order", order]) == 2

    @pytest.mark.parametrize("engine", ["ttn", "mps"])
    def test_cap_below_one_exit_2(self, treelike_files, engine):
        circ, topo = treelike_files
        assert run(["dryrun", "--circuit", circ, "--engine", engine, "--topology", topo,
                    "--cap", 0]) == 2

    def test_csv_deterministic(self, tmp_path, treelike_files):
        circ, topo = treelike_files
        outs = []
        for name in ("e1.csv", "e2.csv"):
            path = tmp_path / name
            run(["dryrun", "--circuit", circ, "--topology", topo, "--csv-out", path])
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]


def rep_count_edges(topo_path):
    from ttnsim.topology import load_topology
    return load_topology(topo_path).num_nodes - 1


class TestCompare:
    def test_exact_vs_exact(self, tmp_path, treelike_files, capsys):
        circ, topo = treelike_files
        out = tmp_path / "cmp.json"
        assert run(["compare", "--circuit", circ, "--engine-a", "ttn",
                    "--engine-b", "ttn", "--topology", topo, "--out", out]) == 0
        doc = json.loads(out.read_text())
        assert doc["overlap_error"] <= 1e-10
        assert doc["m_saved"] == 0.0

    def test_exact_vs_truncated_reports_savings(self, tmp_path):
        circ = tmp_path / "lat.json"
        run(["gen", "lattice", "--n", 3, "--depth", 8, "--seed", 3, "--out", circ])
        out = tmp_path / "cmp.json"
        assert run(["compare", "--circuit", circ, "--engine-a", "ttn",
                    "--engine-b", "ttn", "--clusters", 2,
                    "--sigma-rel-b", "0.05", "--out", out]) == 0
        doc = json.loads(out.read_text())
        assert 0 < doc["overlap_error"] <= 1.0
        assert doc["m_saved"] > 0

    def test_ttn_vs_mps(self, tmp_path, treelike_files):
        circ, topo = treelike_files
        out = tmp_path / "cmp.json"
        assert run(["compare", "--circuit", circ, "--engine-a", "ttn",
                    "--engine-b", "mps", "--topology", topo, "--out", out]) == 0
        assert json.loads(out.read_text())["overlap_error"] <= 1e-9


class TestMalformedInputsExit2:
    """A file of the wrong shape is a usage error (exit 2), never a
    traceback, and a non-integer qubit is not rounded to one."""

    @pytest.mark.parametrize("command", ["simulate", "plan", "dryrun"])
    @pytest.mark.parametrize("case", ["matrix_of_numbers", "array_document", "float_qubit",
                                      "bool_qubit", "float_num_qubits", "zero_num_qubits"])
    def test_circuit(self, tmp_path, lattice4, command, case):
        doc = json.loads(lattice4.read_text())
        gate = doc["gates"][0]  # a two-qubit gate on qubits 0 and 1
        if case == "matrix_of_numbers":
            gate["matrix"] = [re for re, _ in gate["matrix"]]
        elif case == "array_document":
            doc = [1, 2]
        elif case == "float_qubit":
            gate["qubits"][0] = 0.9
        elif case == "bool_qubit":
            gate["qubits"][1] = True
        elif case == "zero_num_qubits":
            doc["num_qubits"] = 0
        else:
            doc["num_qubits"] = 4.0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        out = ["--out", tmp_path / "t.json"] if command == "plan" else []
        assert run([command, "--circuit", bad, *out]) == 2

    # json reads NaN and Infinity; a gate holding one is not unitary
    @pytest.mark.parametrize("value", ["NaN", "Infinity"])
    @pytest.mark.parametrize("command", [["simulate", "--engine", "statevector", "--metrics-out"],
                                         ["plan", "--out"]], ids=["simulate", "plan"])
    def test_non_finite_matrix(self, tmp_path, lattice4, command, value):
        text = lattice4.read_text()
        first = text.index('"matrix":[[') + len('"matrix":[[')
        bad = tmp_path / "bad.json"
        bad.write_text(text[:first] + value + text[text.index(",", first):])
        out = tmp_path / "out.json"
        assert run([command[0], "--circuit", bad, *command[1:], out]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "dryrun"])
    @pytest.mark.parametrize("text", ['{"children": 5}', '{"leaf": [0]}', "[0, 1]",
                                      '{"children": [{"leaf": 0}, {"leaf": 1.0}, '
                                      '{"leaf": 2}, {"leaf": 3}]}'],
                             ids=["children_not_list", "leaf_not_int", "array_document",
                                  "float_leaf"])
    def test_topology(self, tmp_path, lattice4, command, text):
        bad = tmp_path / "bad_topo.json"
        bad.write_text(text)
        assert run([command, "--circuit", lattice4, "--topology", bad]) == 2

    # past the interpreter's recursion limit json.loads raises RecursionError;
    # the loaders turn it into a ValueError
    @pytest.mark.parametrize("command", ["simulate", "dryrun"])
    def test_deep_topology(self, tmp_path, lattice4, command, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text("".join(f'{{"children":[{{"leaf":{q}}},' for q in range(1500))
                        + '{"leaf":1500}' + "]}" * 1500)
        assert run([command, "--circuit", lattice4, "--topology", deep]) == 2
        assert "nested too deeply" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "plan", "dryrun"])
    def test_deep_circuit(self, tmp_path, command, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 5000 + "]" * 5000)
        out = ["--out", tmp_path / "t.json"] if command == "plan" else []
        assert run([command, "--circuit", deep, *out]) == 2
        assert "nested too deeply" in capsys.readouterr().err


class TestEveryEngineEnforcesCaps:
    @staticmethod
    def engine_flags(command, engine):
        if command == "simulate":
            return ["--engine", engine]
        return ["--engine-a", engine, "--engine-b", engine]

    @pytest.mark.parametrize("engine", ["ttn", "mps", "statevector"])
    @pytest.mark.parametrize("command", ["simulate", "compare"])
    def test_memory_cap_exit_4(self, lattice4, command, engine):
        assert run([command, "--circuit", lattice4, "--memory-cap", 4]
                   + self.engine_flags(command, engine)) == 4

    # no two-qubit gate, so only the starting state can pass the cap: 64 dense
    # entries, 2 per leaf plus 1 per internal node on the trees
    @pytest.mark.parametrize("engine", ["ttn", "mps", "statevector"])
    @pytest.mark.parametrize("command", ["simulate", "compare"])
    def test_memory_cap_on_the_starting_state_exit_4(self, tmp_path, command, engine):
        circ = tmp_path / "h.json"
        save_circuit(Circuit(6, [gates.h(q) for q in range(6)]), circ)
        assert run([command, "--circuit", circ, "--memory-cap", 4]
                   + self.engine_flags(command, engine)) == 4

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    def test_statevector_qubit_cap_exit_2(self, lattice4, command):
        assert run([command, "--circuit", lattice4, "--cap", 3]
                   + self.engine_flags(command, "statevector")) == 2

    def test_compare_plans_once(self, lattice4, monkeypatch):
        calls = []

        def counting(circuit, clusters):
            calls.append(clusters)
            return find_tree_structure(circuit, clusters)

        monkeypatch.setattr(cli, "find_tree_structure", counting)
        assert run(["compare", "--circuit", lattice4, "--clusters", 2]
                   + self.engine_flags("compare", "ttn")) == 0
        assert calls == [2]
