import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fasdlab.certcheck import check_coloring, check_counting_bound, check_fas_sixth
from fasdlab.cli import main
from fasdlab.digraph import Digraph
from fasdlab.fileio import read_digraph, write_digraph
from fasdlab.generators import circulant_digraph


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestGen:
    def test_gen_cycle_stdout(self, capsys):
        code, out, _ = run(["gen", "cycle", "-n", "6"], capsys)
        assert code == 0
        assert out.splitlines()[0] == "6 6"

    def test_gen_to_file_and_dot(self, tmp_path, capsys):
        f = tmp_path / "d8.txt"
        dot = tmp_path / "d8.dot"
        code, _, _ = run(["gen", "dg", "--g", "8", "-o", str(f), "--dot", str(dot)], capsys)
        assert code == 0
        assert f.read_text().splitlines()[0] == "12 15"
        assert dot.read_text().startswith("digraph")

    def test_gen_random_deterministic(self, capsys):
        a = run(["gen", "random", "-n", "10", "--seed", "5"], capsys)[1]
        b = run(["gen", "random", "-n", "10", "--seed", "5"], capsys)[1]
        assert a == b

    def test_usage_error_exit_2(self, capsys):
        code, _, err = run(["gen", "tournament", "-n", "4"], capsys)
        assert code == 2 and "error" in err

    def test_output_into_missing_directory_exit_2(self, tmp_path, capsys):
        code, _, err = run(["gen", "cycle", "-o", str(tmp_path / "no" / "c.txt")], capsys)
        assert code == 2 and err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize(
    "command",
    [
        ["fas"], ["fasd"], ["decompose3"], ["colorg", "--g", "3"], ["fas6"], ["fvs"],
        ["spectral"], ["mixing"],
    ],
    ids=lambda command: command[0],
)
def test_missing_graph_file_exit_2(command, tmp_path, capsys):
    missing = str(tmp_path / "missing.txt")
    code, out, err = run(command[:1] + [missing] + command[1:], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "missing.txt" in err and "Traceback" not in err


class TestSolvers:
    @pytest.fixture
    def d8_file(self, tmp_path, capsys):
        f = tmp_path / "d8.txt"
        run(["gen", "dg", "--g", "8", "-o", str(f)], capsys)
        return str(f)

    def test_fas_d8(self, d8_file, capsys):
        code, out, _ = run(["fas", d8_file], capsys)
        assert code == 0 and out.splitlines()[0] == "fas 2"

    def test_fas_budget_exit_3(self, tmp_path, capsys):
        f = tmp_path / "big.txt"
        run(["gen", "cycle", "-n", "30", "-o", str(f)], capsys)
        code, _, err = run(["fas", str(f)], capsys)
        assert code == 3 and "refused" in err

    def test_fas_weighs_a_seventh_decimal_exactly(self, tmp_path, capsys):
        f = tmp_path / "w.txt"
        f.write_text("3 3\n0 1 0.0000001\n1 2 5\n2 0 5\n")
        code, out, _ = run(["fas", str(f)], capsys)
        assert code == 0 and out.splitlines()[0] == "fas 1/10000000"

    def test_fas_heuristic_weight_is_exact(self, tmp_path, capsys):
        f = tmp_path / "w.txt"
        f.write_text("4 4\n0 1 0.1\n1 0 1\n2 3 0.2\n3 2 1\n")
        code, out, _ = run(["fas", "--heuristic", str(f)], capsys)
        assert code == 0 and out.splitlines()[0] == "bas 3/10"
        f.write_text("3 3\n0 1 0.0000001\n1 2 5\n2 0 5\n")
        code, out, _ = run(["fas", "--heuristic", str(f)], capsys)
        assert code == 0 and out.splitlines()[0] == "bas 1/10000000"

    def test_fas_weighs_a_weighted_file(self, tmp_path, capsys):
        f = tmp_path / "w.txt"
        f.write_text("4 4\n0 1 0.1\n1 0 1\n2 3 0.2\n3 2 1\n")
        code, out, _ = run(["fas", str(f)], capsys)
        assert code == 0 and out.splitlines()[0] == "fas 3/10"
        f.write_text("4 4\n0 1\n1 0\n2 3\n3 2\n")
        code, out, _ = run(["fas", str(f)], capsys)
        assert code == 0 and out.splitlines()[0] == "fas 2"

    def test_fvs_budget_exit_3(self, tmp_path, capsys, monkeypatch):
        f = tmp_path / "big.txt"
        run(["gen", "cycle", "-n", "30", "-o", str(f)], capsys)
        code, out, _ = run(["fvs", str(f)], capsys)
        assert code == 0 and "size 1" in out
        # the 30-cycle takes 3 cycle searches; the budget allows 2
        monkeypatch.setattr("fasdlab.delta3._FVS_WORK_BUDGET", 30 * 2)
        code, _, err = run(["fvs", str(f)], capsys)
        assert code == 3 and err.startswith("refused:")

    def test_fvs_failure_is_not_a_budget_exit(self, d8_file, monkeypatch):
        def broken(d):
            raise AssertionError("internal failure")

        monkeypatch.setattr("fasdlab.cli.fvs_exact", broken)
        with pytest.raises(AssertionError, match="internal failure"):
            main(["fvs", d8_file])

    def test_fasd_with_certificate(self, d8_file, tmp_path, capsys):
        cert = tmp_path / "cert.json"
        code, out, _ = run(["fasd", d8_file, "--certificate", str(cert)], capsys)
        assert code == 0 and out.splitlines()[0] == "fasd 7"
        doc = json.loads(cert.read_text())
        assert doc["schema"] == "fasdlab-cert-v1" and doc["value"] == 7

    def test_fasd_certificate_carries_the_counting_bound(self, tmp_path, capsys):
        f, cert = tmp_path / "d12.txt", tmp_path / "cert.json"
        run(["gen", "dg", "--g", "12", "-o", str(f)], capsys)
        code, out, _ = run(["fasd", str(f), "--certificate", str(cert)], capsys)
        assert code == 0 and out.splitlines()[0] == "fasd 10"
        ref = json.loads(cert.read_text())["refutation"]
        assert ref["bound"] == 10 and len(ref["cycles"]) == 3
        cycles = [tuple(c) for c in ref["cycles"]]
        assert check_counting_bound(read_digraph(str(f)), cycles, ref["arcs"], 10) == (True, None)

    def test_fasd_fixed_t_writes_the_coloring(self, d8_file, tmp_path, capsys):
        cert = tmp_path / "cert.json"
        code, out, _ = run(["fasd", d8_file, "--t", "7", "--certificate", str(cert)], capsys)
        assert code == 0 and out.startswith("t=7 sat")
        doc = json.loads(cert.read_text())
        assert doc["kind"] == "good-coloring" and doc["t"] == 7
        coloring = {int(a): c for a, c in doc["coloring"].items()}
        assert check_coloring(read_digraph(d8_file), coloring, 7) == (True, None)

    def test_fasd_fixed_t_writes_the_coloring_of_no_arcs(self, tmp_path, capsys):
        f, cert = tmp_path / "empty.txt", tmp_path / "cert.json"
        f.write_text("0 0\n")
        code, out, _ = run(["fasd", str(f), "--t", "3", "--certificate", str(cert)], capsys)
        assert code == 0 and out.startswith("t=3 sat")
        doc = json.loads(cert.read_text())
        assert doc["kind"] == "good-coloring" and doc["coloring"] == {}

    def test_fasd_budget_zero_exit_3(self, d8_file, capsys):
        code, out, err = run(["fasd", d8_file, "--budget", "0"], capsys)
        assert code == 3 and out == ""
        assert err == "refused: node budget spent; fasd in [2, 7]\n"

    def test_fasd_fixed_t_budget_zero_exit_3(self, d8_file, capsys):
        code, out, err = run(["fasd", d8_file, "--t", "8", "--budget", "0"], capsys)
        assert code == 3 and out == ""
        assert err == "refused: node budget spent; t=8 undecided\n"

    @pytest.mark.parametrize("fixed_t", [[], ["--t", "3"]], ids=["exact", "fixed-t"])
    def test_fasd_negative_budget_exit_2(self, fixed_t, tmp_path, capsys):
        f = tmp_path / "c3.txt"
        write_digraph(f, Digraph(3, [(0, 1), (1, 2), (2, 0)]))
        code, out, err = run(["fasd", str(f), "--budget", "-1"] + fixed_t, capsys)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "node_budget" in err and "Traceback" not in err

    def test_fasd_fixed_t(self, d8_file, capsys):
        code, out, _ = run(["fasd", d8_file, "--t", "8"], capsys)
        assert code == 0 and "unsat" in out

    def test_decompose3(self, tmp_path, capsys):
        f = tmp_path / "c9.txt"
        run(["gen", "random", "-n", "20", "--max-deg", "4", "-o", str(f)], capsys)
        out_json = tmp_path / "classes.json"
        code, out, _ = run(
            ["decompose3", str(f), "--certificate", str(out_json)], capsys
        )
        assert code == 0
        assert out.count("sigma") == 3
        doc = json.loads(out_json.read_text())
        assert len(doc["classes"]) == 3

    def test_colorg(self, tmp_path, capsys):
        f = tmp_path / "g.txt"
        run(["gen", "random", "-n", "14", "--max-deg", "3", "--min-girth", "4", "-o", str(f)], capsys)
        cert = tmp_path / "cert.json"
        code, out, _ = run(["colorg", str(f), "--g", "4", "--certificate", str(cert)], capsys)
        assert code == 0
        colors = set(json.loads(out).values())
        assert colors <= {1, 2, 3, 4}
        doc = json.loads(cert.read_text())
        assert doc["kind"] == "good-coloring" and doc["t"] == 4
        coloring = {int(a): c for a, c in doc["coloring"].items()}
        assert check_coloring(read_digraph(str(f)), coloring, 4) == (True, None)

    def test_fas6(self, tmp_path, capsys):
        f = tmp_path / "g6.txt"
        run(["gen", "cycle", "-n", "12", "-o", str(f)], capsys)
        cert = tmp_path / "cert.json"
        code, out, _ = run(["fas6", str(f), "--certificate", str(cert)], capsys)
        assert code == 0 and "size" in out
        doc = json.loads(cert.read_text())
        assert doc["kind"] == "fas-sixth" and doc["total_arcs"] == 12 and len(doc["arcs"]) == 1

    @pytest.fixture
    def m60_file(self, tmp_path):
        # the matching expansion of a circulant: vertex v becomes the arc
        # 2v -> 2v+1 and arc u -> w the arc 2u+1 -> 2w, so max degree 3 and
        # girth 30; its irreducible core has 30 matching pairs
        c30 = circulant_digraph(30, [1, 2])
        arcs = [(2 * v, 2 * v + 1) for v in range(30)]
        arcs += [(2 * u + 1, 2 * w) for u, w in c30.arcs]
        f = tmp_path / "m60.txt"
        write_digraph(f, Digraph(60, arcs))
        return str(f)

    def test_fas6_past_24_pairs(self, m60_file, tmp_path, capsys):
        cert = tmp_path / "cert.json"
        code, out, _ = run(["fas6", m60_file, "--certificate", str(cert)], capsys)
        assert code == 0 and "size" in out
        arcs = json.loads(cert.read_text())["arcs"]
        assert check_fas_sixth(read_digraph(m60_file), arcs) == (True, None)

    def test_fas6_budget_exit_3(self, m60_file, capsys, monkeypatch):
        # the 30-pair core takes 6 cycle searches; the budget allows 5
        monkeypatch.setattr("fasdlab.delta3._FVS_WORK_BUDGET", 30 * 5)
        code, out, err = run(["fas6", m60_file], capsys)
        assert code == 3 and out == "" and err.startswith("refused:")

    def test_fvs(self, tmp_path, capsys):
        f = tmp_path / "co5.txt"
        run(["gen", "co", "-n", "5", "-o", str(f)], capsys)
        code, out, _ = run(["fvs", str(f)], capsys)
        assert code == 0 and "size 3" in out and "digon-odd-cycle" in out


class TestSpectralCommands:
    def test_spectral_and_mixing(self, tmp_path, capsys):
        f = tmp_path / "paley.txt"
        run(["gen", "paley", "-n", "13", "-o", str(f)], capsys)
        code, out, _ = run(["spectral", str(f)], capsys)
        assert code == 0 and "lambda=2.302" in out
        code, out, _ = run(["mixing", str(f), "--samples", "200"], capsys)
        assert code == 0 and "violations=0" in out

    def test_negative_mixing_samples_exit_2(self, tmp_path, capsys):
        f = tmp_path / "paley.txt"
        run(["gen", "paley", "-n", "13", "-o", str(f)], capsys)
        code, out, err = run(["mixing", str(f), "--samples", "-5"], capsys)
        assert code == 2 and out == "" and err.startswith("error:") and "samples" in err

    def test_spectral_cycles(self, tmp_path, capsys):
        f = tmp_path / "c.txt"
        run(["gen", "cycle", "-n", "13", "-o", str(f)], capsys)
        code, out, _ = run(["spectral", str(f)], capsys)
        # 2 cos(pi / 13) = 1.9418836348...
        assert code == 0 and out == (
            "n=13 d=2 lambda=1.941883635 lambda'=1.941883635 bipartite=False connected=True\n"
        )
        run(["gen", "cycle", "-n", "8", "-o", str(f)], capsys)
        code, out, _ = run(["spectral", str(f)], capsys)
        assert code == 0 and out == (
            "n=8 d=2 lambda=2.000000000 lambda'=1.414213562 bipartite=True connected=True\n"
        )

    def test_deleted_experiment_command_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["orient-exp", "x.txt"])
        assert exc.value.code == 2 and "invalid choice" in capsys.readouterr().err


class TestVerifyPaper:
    def test_single_check_with_json(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        code, out, _ = run(
            ["verify-paper", "--check", "d8", "--json", str(report)], capsys
        )
        assert code == 0 and "[PASS] d8" in out
        doc = json.loads(report.read_text())
        assert doc[0]["check"] == "d8" and doc[0]["passed"]

    def test_unknown_check_exit_2(self, capsys):
        code, _, err = run(["verify-paper", "--check", "nope"], capsys)
        assert code == 2 and "unknown check" in err

    def test_unknown_check_among_known_ones_runs_none(self, capsys):
        code, out, err = run(["verify-paper", "--check", "d8", "--check", "nope"], capsys)
        assert code == 2 and out == "" and err.startswith("error: unknown check id 'nope'")

    def test_multiple_checks(self, capsys):
        code, out, _ = run(
            ["verify-paper", "--check", "d8", "--check", "h5"], capsys
        )
        assert code == 0 and out.count("[PASS]") == 2

    def test_runs_as_python_m_from_a_checkout(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": src}
        argv = [sys.executable, "-m", "fasdlab", "verify-paper", "--check", "d8"]
        proc = subprocess.run(argv, env=env, capture_output=True, text=True)
        assert proc.returncode == 0 and "[PASS] d8" in proc.stdout
