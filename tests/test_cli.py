import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import chaircodes
from chaircodes import cli, errors, splitting
from chaircodes.chair import Chair
from chaircodes.cli import main
from chaircodes.lattice import chair_lattice


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def report_of(out: str) -> dict:
    return json.loads(out)


class TestConstruct:
    def test_uniform_cube(self, capsys):
        rc, out, _ = run_cli(capsys, "construct", "--l", "2,2,2", "--k", "1,1,1")
        assert rc == 0
        report = report_of(out)
        assert report["artifacts"]["volume"] == "7"
        assert report["artifacts"]["splitting"]["m"] == "7"
        assert report["artifacts"]["splitting"]["beta"] == ["1", "2", "4"]
        assert report["verdicts"]["tiling"]["ok"] is True
        assert report["verdicts"]["splitting"]["ok"] is True

    def test_figure_chair(self, capsys):
        rc, out, _ = run_cli(capsys, "construct", "--l", "5,4,3", "--k", "3,3,1")
        assert rc == 0
        report = report_of(out)
        assert report["artifacts"]["volume"] == "51"
        assert report["artifacts"]["generator"] == [
            ["5", "-3", "0"],
            ["0", "4", "-1"],
            ["-3", "0", "3"],
        ]

    def test_invalid_chair_exits_2(self, capsys):
        rc, out, err = run_cli(capsys, "construct", "--l", "2,2", "--k", "2,2")
        assert rc == 2
        assert out == ""
        payload = json.loads(err)
        assert payload["error"]["type"] == "InvalidChair"

    def test_method_splitting_propagates_hypothesis_failure(self, capsys):
        rc, _, err = run_cli(capsys, "construct", "--l", "4,3", "--k", "2,2", "--method", "splitting")
        assert rc == 2
        assert json.loads(err)["error"]["type"] == "HypothesisViolated"

    def test_method_auto_falls_back(self, capsys):
        rc, out, _ = run_cli(capsys, "construct", "--l", "4,3", "--k", "2,2", "--method", "auto")
        assert rc == 0
        report = report_of(out)
        assert report["artifacts"]["splitting"] is None
        assert report["verdicts"]["tiling"]["ok"] is True

    def test_rational_chair(self, capsys):
        rc, out, _ = run_cli(capsys, "construct", "--l", "5/2,3/2", "--k", "3/2,1/2")
        assert rc == 0
        report = report_of(out)
        assert report["artifacts"]["volume"] == "3"
        assert report["verdicts"]["tiling"]["ok"] is True

    def test_csv_output(self, capsys):
        rc, out, _ = run_cli(capsys, "construct", "--l", "3,3", "--k", "2,2", "--out", "csv")
        assert rc == 0
        lines = out.strip().split("\n")
        assert lines[0] == "volume,5"
        assert "generator,3,-2" in lines
        assert lines[-1] == "tiling,ok"

    def test_deterministic_output(self, capsys):
        rc1, out1, _ = run_cli(capsys, "construct", "--l", "3,3", "--k", "2,2")
        rc2, out2, _ = run_cli(capsys, "construct", "--l", "3,3", "--k", "2,2")
        assert rc1 == rc2 == 0
        r1, r2 = report_of(out1), report_of(out2)
        r1.pop("timings_ms")
        r2.pop("timings_ms")
        assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)

    def test_8d_chair(self, capsys):
        # 5,699,265 chair points, over the default budget of 10^6
        rc, out, _ = run_cli(capsys, "construct", "--l", ",".join(["7"] * 8), "--k", ",".join(["4"] * 8))
        assert rc == 0
        verdicts = report_of(out)["verdicts"]
        assert verdicts["tiling"] == {"ok": True}
        assert verdicts["splitting"] == {"ok": True, "detail": {"values": str(7**8 - 4**8)}}

    @pytest.mark.parametrize("n", [11, 16, 24])
    def test_chairs_past_the_join(self, capsys, monkeypatch, n):
        # from n = 11 on a box search is charged 13^6 > 10^6 items; the
        # lattice and the splitting hold the chair's rows, so chair_cycle
        # decides both without a search
        monkeypatch.delenv("CHAIRCODES_BUDGET", raising=False)
        l, k = ",".join(["7"] * n), ",".join(["4"] * n)
        rc, out, _ = run_cli(capsys, "construct", "--l", l, "--k", k)
        assert rc == 0
        report = report_of(out)
        assert report["verdicts"]["tiling"] == {"ok": True}
        assert report["verdicts"]["splitting"] == {"ok": True, "detail": {"values": str(7**n - 4**n)}}
        rc, out, _ = run_cli(capsys, "verify", "--l", l, "--k", k)
        assert rc == 0
        assert report_of(out)["verdicts"] == {"tiling": {"ok": True}}
        m, beta = report["artifacts"]["splitting"]["m"], ",".join(report["artifacts"]["splitting"]["beta"])
        rc, out, _ = run_cli(capsys, "verify", "--l", l, "--k", k, "--m", m, "--beta", beta)
        assert rc == 0
        assert report_of(out)["verdicts"] == {"splitting": {"ok": True, "detail": {"values": str(7**n - 4**n)}}}

    def test_reordered_splitting_past_the_join(self, capsys, monkeypatch):
        # k_4 = 5 shares a factor with the volume, so the splitting puts
        # coordinate 3 first; its kernel is the lattice of the chair's rows
        # in that order, which chair_cycle finds instead of a scan of every
        # chair point
        monkeypatch.delenv("CHAIRCODES_BUDGET", raising=False)
        l, k = "5,5,7,7,5,5,5,5,5,5,5,5,5,5,7,7", "4,4,3,5,4,2,2,4,4,1,1,4,2,1,6,4"
        rc, out, _ = run_cli(capsys, "construct", "--l", l, "--k", k)
        assert rc == 0
        report = report_of(out)
        assert report["artifacts"]["splitting"]["permutation"][:2] == [3, 0]
        assert report["verdicts"]["splitting"] == {"ok": True, "detail": {"values": report["artifacts"]["volume"]}}

    def test_code_out(self, capsys, tmp_path):
        path = tmp_path / "code.json"
        rc, out, _ = run_cli(capsys, "construct", "--l", "2,2,2", "--k", "1,1,1", "--code-out", str(path))
        assert rc == 0
        data = json.loads(path.read_text())
        assert data["perfect"] is True
        assert len(data["table"]) == 7

    def test_code_out_needs_sphere_chair(self, capsys, tmp_path):
        path = tmp_path / "code.json"
        rc, _, err = run_cli(capsys, "construct", "--l", "3,3", "--k", "1,1", "--code-out", str(path))
        assert rc == 2
        assert json.loads(err)["error"]["type"] == "BadParameters"


class TestVerify:
    def test_default_chair_lattice(self, capsys):
        rc, out, _ = run_cli(capsys, "verify", "--l", "3,3", "--k", "2,2", "--torus")
        assert rc == 0
        report = report_of(out)
        assert report["verdicts"]["tiling"]["ok"] is True
        assert report["verdicts"]["torus"]["ok"] is True

    def test_splitting_verdict(self, capsys):
        rc, out, _ = run_cli(capsys, "verify", "--l", "2,2", "--k", "1,1", "--m", "3", "--beta", "1,2")
        assert rc == 0
        assert report_of(out)["verdicts"]["splitting"]["ok"] is True

    def test_failing_splitting_exits_5(self, capsys):
        rc, out, _ = run_cli(capsys, "verify", "--l", "2,2,2", "--k", "1,1,1", "--m", "7", "--beta", "1,1,1")
        assert rc == 5
        assert report_of(out)["verdicts"]["splitting"]["ok"] is False

    def test_beta_length_mismatch_exits_2(self, capsys):
        rc, out, err = run_cli(capsys, "verify", "--l", "2,2", "--k", "1,1", "--m", "3", "--beta", "1,2,3")
        assert rc == 2
        assert out == ""
        assert json.loads(err)["error"]["type"] == "BadParameters"

    @pytest.mark.parametrize("m", ["4", "5"])
    def test_rational_splitting_exits_2(self, capsys, m):
        # the chair's volume is 9/2, so neither modulus can be its group order
        rc, out, err = run_cli(capsys, "verify", "--l", "5/2,2", "--k", "1/2,1", "--m", m, "--beta", "1,1")
        assert rc == 2
        assert out == ""
        assert json.loads(err)["error"]["type"] == "NotDiscrete"

    def test_sparse_lattices_in_large_boxes(self, capsys, tmp_path, monkeypatch):
        # the boxes hold millions of cells, past the budget; the first lattice
        # and labelling are the chair's, and the Hermite walk's few nodes
        # decide the other
        rc, out, _ = run_cli(capsys, "verify", "--l", "2000000", "--k", "1")
        assert rc == 0
        path = tmp_path / "lat.json"
        path.write_text(json.dumps({"generator": [["2000", "0", "0"], ["0", "2000", "0"], ["0", "0", "2000"]]}))
        rc, out, _ = run_cli(capsys, "verify", "--l", "2000,2000,2000", "--k", "1,1,1", "--generator", str(path))
        assert rc == 5
        assert report_of(out)["verdicts"]["tiling"]["reason"] == "volume mismatch"
        monkeypatch.setenv("CHAIRCODES_BUDGET", "1000")
        rc, out, _ = run_cli(capsys, "verify", "--l", "1000", "--k", "1", "--m", "999", "--beta", "1")
        assert rc == 0

    @pytest.mark.parametrize("n", [11, 24])
    def test_hermite_basis_past_the_join(self, capsys, tmp_path, monkeypatch, n):
        # the 7^n - 4^n chair lattice in its Hermite basis holds the chair's
        # rows and has its volume; a box search would be charged 13^6 items
        monkeypatch.delenv("CHAIRCODES_BUDGET", raising=False)
        rows = chair_lattice(Chair((7,) * n, (4,) * n)).canonical().transpose().entries
        path = tmp_path / "lat.json"
        path.write_text(json.dumps({"generator": [[str(x) for x in row] for row in rows]}))
        l, k = ",".join(["7"] * n), ",".join(["4"] * n)
        rc, out, _ = run_cli(capsys, "verify", "--l", l, "--k", k, "--generator", str(path))
        assert rc == 0
        assert report_of(out)["verdicts"] == {"tiling": {"ok": True}}

    def test_24d_sphere_chair(self, capsys, monkeypatch):
        monkeypatch.delenv("CHAIRCODES_BUDGET", raising=False)
        rc, out, _ = run_cli(capsys, "verify", "--l", ",".join(["7"] * 24), "--k", ",".join(["6"] * 24))
        assert rc == 0
        assert report_of(out)["verdicts"] == {"tiling": {"ok": True}}

    def test_beta_in_another_cycle_order(self, capsys, monkeypatch):
        # beta has value 0 on 7*e_j - 4*e_i along the cycle
        # 0 -> 11 -> 10 -> ... -> 1 -> 0, not the chair's own order, and
        # chair_cycle decides it; a scan of the chair's 7^12 - 4^12 points
        # would exceed the budget
        monkeypatch.delenv("CHAIRCODES_BUDGET", raising=False)
        n, m = 12, 7**12 - 4**12
        alpha = 7 * pow(4, -1, m) % m
        beta = [pow(alpha, -i, m) for i in range(n)]
        decided = []
        real = splitting.chair_cycle

        def counting(sides, notch, member):
            decided.append(real(sides, notch, member))
            return decided[-1]

        monkeypatch.setattr(splitting, "chair_cycle", counting)
        l, k = ",".join(["7"] * n), ",".join(["4"] * n)
        rc, out, _ = run_cli(capsys, "verify", "--l", l, "--k", k, "--m", str(m), "--beta", ",".join(map(str, beta)))
        assert rc == 0
        assert report_of(out)["verdicts"] == {"splitting": {"ok": True, "detail": {"values": str(m)}}}
        assert decided == [True]

    @pytest.mark.parametrize("argv, error", [
        (["--l", "5/2,3/2", "--k", "3/2,1/2", "--torus"], "NotDiscrete"),
        (["--l", "3,3", "--k", "2,2", "--generator", "RATIONAL", "--torus"], "NonIntegerLattice"),
        (["--l", "2,2", "--k", "1,1", "--m", "3", "--beta", "1,2", "--torus"], "BadParameters"),
        (["--l", "2,2", "--k", "1,1", "--m", "3", "--beta", "1,2", "--generator", "RATIONAL"], "BadParameters"),
    ], ids=["torus, rational chair", "torus, rational generator", "torus with --m", "generator with --m"])
    def test_unused_inputs_refused(self, capsys, tmp_path, argv, error):
        # each of these inputs was ignored, and verify exited 0
        path = tmp_path / "lat.json"
        path.write_text(json.dumps({"generator": [["5/2", "0"], ["0", "2"]]}))
        rc, out, err = run_cli(capsys, "verify", *[str(path) if a == "RATIONAL" else a for a in argv])
        assert (rc, out) == (2, "")
        assert json.loads(err)["error"]["type"] == error

    def test_generator_file(self, capsys, tmp_path):
        path = tmp_path / "lat.json"
        path.write_text(json.dumps({"generator": [["5", "0"], ["0", "1"]]}))
        rc, out, _ = run_cli(capsys, "verify", "--l", "3,3", "--k", "2,2", "--generator", str(path))
        assert rc == 5
        assert report_of(out)["verdicts"]["tiling"]["ok"] is False


class TestDecode:
    @pytest.fixture()
    def code_file(self, tmp_path, capsys):
        path = tmp_path / "code.json"
        run_cli(capsys, "construct", "--l", "2,2,2", "--k", "1,1,1", "--code-out", str(path))
        return path

    def test_decode(self, capsys, code_file):
        rc, out, _ = run_cli(capsys, "decode", "--code", str(code_file), "--received", "1,1,0")
        assert rc == 0
        report = report_of(out)
        assert report["artifacts"]["codeword"] == ["0", "0", "0"]
        assert report["artifacts"]["error"] == ["1", "1", "0"]

    def test_decode_lattice_point(self, capsys, code_file):
        rc, out, _ = run_cli(capsys, "decode", "--code", str(code_file), "--received", "2,-1,0")
        assert rc == 0
        report = report_of(out)
        assert report["artifacts"]["error"] == ["0", "0", "0"]

    def test_malformed_vector(self, capsys, code_file):
        rc, _, err = run_cli(capsys, "decode", "--code", str(code_file), "--received", "1,x")
        assert rc == 2
        assert json.loads(err)["error"]["type"] == "BadParameters"

    def test_not_perfect_exits_3(self, capsys, tmp_path):
        data = {
            "n": "2", "t": "1", "magnitudes": ["2", "2"],
            "generator": [["6", "-4"], ["-4", "6"]],
            "perfect": False,
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        rc, _, err = run_cli(capsys, "decode", "--code", str(path), "--received", "0,0")
        assert rc == 3
        assert json.loads(err)["error"]["type"] == "NotPerfect"

    @pytest.mark.parametrize("tamper", ["swap", "drop"])
    def test_tampered_table_exits_2(self, capsys, code_file, tamper):
        data = json.loads(code_file.read_text())
        table = data["table"]
        if tamper == "swap":
            table["1"], table["2"] = table["2"], table["1"]
        else:
            del table["1"]
        code_file.write_text(json.dumps(data))
        rc, _, err = run_cli(capsys, "decode", "--code", str(code_file), "--received", "1,0,0")
        assert rc == 2
        assert json.loads(err)["error"]["type"] == "BadParameters"

    @pytest.mark.parametrize("flag", ["false", 1])
    def test_non_boolean_perfect_flag_exits_2(self, capsys, code_file, flag):
        # a truthy non-boolean must not pass for "perfect": true
        data = json.loads(code_file.read_text())
        data["perfect"] = flag
        code_file.write_text(json.dumps(data))
        rc, _, err = run_cli(capsys, "decode", "--code", str(code_file), "--received", "1,0,0")
        assert rc == 2
        assert json.loads(err)["error"]["type"] == "BadParameters"

    @pytest.mark.parametrize("field,value", [
        ("n", 3.7), ("n", 3.0), ("n", True), ("n", "2.9"), ("t", "2.0"), ("t", False),
        ("magnitudes", [1.9, 1, 1]), ("magnitudes", [True, 1, 1]), ("magnitudes", ["1", "1", "1.0"]),
        ("magnitudes", "111"),
    ])
    def test_non_integer_sphere_field_exits_2(self, capsys, code_file, field, value):
        # the sphere's integers must not be truncated into a different code
        data = json.loads(code_file.read_text())
        data[field] = value
        code_file.write_text(json.dumps(data))
        rc, _, err = run_cli(capsys, "decode", "--code", str(code_file), "--received", "1,0,0")
        assert rc == 2
        assert json.loads(err)["error"]["type"] == "BadParameters"

    def test_json_integer_sphere_fields_accepted(self, capsys, code_file):
        data = json.loads(code_file.read_text())
        data.update(n=3, t=2, magnitudes=[1, "1", 1])
        code_file.write_text(json.dumps(data))
        rc, out, _ = run_cli(capsys, "decode", "--code", str(code_file), "--received", "1,1,0")
        assert rc == 0
        assert report_of(out)["artifacts"]["error"] == ["1", "1", "0"]


class TestSearch:
    def test_divisibility(self, capsys):
        rc, out, _ = run_cli(capsys, "search", "--n", "4", "--t", "2", "--ell", "1")
        assert rc == 0
        verdict = report_of(out)["verdicts"]["search"]
        assert verdict["status"] == "NoPerfectCode"

    def test_exhaustive_nonexistence(self, capsys):
        rc, out, _ = run_cli(capsys, "search", "--n", "4", "--t", "2", "--ell", "1", "--mode", "exhaustive")
        assert rc == 0
        verdict = report_of(out)["verdicts"]["search"]
        assert verdict["status"] == "NoPerfectCode"
        assert verdict["examined"] == "1464"

    def test_exhaustive_positive(self, capsys):
        rc, out, _ = run_cli(capsys, "search", "--n", "3", "--t", "2", "--ell", "1", "--mode", "exhaustive")
        assert rc == 0
        verdict = report_of(out)["verdicts"]["search"]
        assert verdict["status"] == "Found"
        assert len(verdict["found"]) >= 1

    def test_budget_exit_4(self, capsys):
        rc, _, err = run_cli(capsys, "search", "--n", "4", "--t", "2", "--ell", "1",
                             "--mode", "exhaustive", "--budget", "10")
        assert rc == 4
        assert json.loads(err)["error"]["type"] == "BudgetExceeded"

    def test_sphere_budget_exit_4(self, capsys, monkeypatch):
        # one index-6 sublattice of Z fits a budget of 3; the sphere's 6 points do not
        argv = ("search", "--n", "1", "--t", "1", "--ell", "5", "--mode", "exhaustive")
        error = {"type": "BudgetExceeded", "message": "sphere enumeration needs 6 items, budget is 3"}
        err = json.dumps({"error": error}, sort_keys=True) + "\n"
        assert run_cli(capsys, *argv, "--budget", "3") == (4, "", err)
        monkeypatch.setenv("CHAIRCODES_BUDGET", "3")
        assert run_cli(capsys, *argv) == (4, "", err)

    def test_bad_budget_exits_2(self, capsys, monkeypatch):
        argv = ("search", "--n", "4", "--t", "2", "--ell", "1", "--mode", "exhaustive")
        for value in ("-5", "0", "1e6"):
            monkeypatch.setenv("CHAIRCODES_BUDGET", value)
            rc, out, err = run_cli(capsys, *argv)
            assert (rc, out) == (2, ""), value
            error = json.loads(err)["error"]
            assert error["type"] == "BadParameters"
            assert "CHAIRCODES_BUDGET" in error["message"]
        monkeypatch.delenv("CHAIRCODES_BUDGET")
        for value in ("-3", "0"):
            rc, out, err = run_cli(capsys, *argv, "--budget", value)
            assert (rc, out) == (2, ""), value
            error = json.loads(err)["error"]
            assert error["type"] == "BadParameters"
            assert error["message"] == f"budget must be >= 1, got {value}"

    def test_exhaustive_zero_dimensions_exits_2(self, capsys):
        rc, out, err = run_cli(capsys, "search", "--n", "0", "--t", "0", "--ell", "1", "--mode", "exhaustive")
        assert (rc, out) == (2, "")
        assert json.loads(err)["error"]["type"] == "BadParameters"

    def test_divisibility_requires_matching_t(self, capsys):
        rc, _, err = run_cli(capsys, "search", "--n", "5", "--t", "2", "--ell", "1")
        assert rc == 2
        assert json.loads(err)["error"]["type"] == "BadParameters"


class TestWom:
    def test_csv_with_check(self, capsys, tmp_path):
        path = tmp_path / "c.csv"
        rc, out, _ = run_cli(capsys, "wom", "--l", "2,2", "--k", "1,1", "--q", "3",
                             "--output", str(path), "--check")
        assert rc == 0
        report = report_of(out)
        assert report["artifacts"]["colors"] == "3"
        assert report["verdicts"]["write_guarantee"]["ok"] is True
        assert len(path.read_text().strip().split("\n")) == 9

    def test_csv_64_rows(self, capsys, tmp_path):
        path = tmp_path / "c.csv"
        rc, out, _ = run_cli(capsys, "wom", "--l", "2,2,2", "--k", "1,1,1", "--q", "4",
                             "--output", str(path))
        assert rc == 0
        report = report_of(out)
        assert report["artifacts"]["colors"] == "7"
        assert report["artifacts"]["cells"] == "64"
        assert len(path.read_text().strip().split("\n")) == 64

    def test_binary_output(self, capsys, tmp_path):
        path = tmp_path / "c.bin"
        rc, _, _ = run_cli(capsys, "wom", "--l", "2,2", "--k", "1,1", "--q", "3",
                           "--out", "bin", "--output", str(path))
        assert rc == 0
        raw = path.read_bytes()
        assert raw[:8] == b"WOMCOLR1"
        assert len(raw) == 8 + 18

    def test_q_zero_exits_2(self, capsys):
        rc, _, err = run_cli(capsys, "wom", "--l", "2,2", "--k", "1,1", "--q", "0")
        assert rc == 2
        assert json.loads(err)["error"]["type"] == "BadParameters"


class TestReportPath:
    """main prints every report: one JSON document whose command is the
    subcommand and whose timings_ms holds the total alone."""

    @pytest.fixture()
    def code_file(self, tmp_path, capsys):
        path = tmp_path / "code.json"
        run_cli(capsys, "construct", "--l", "2,2,2", "--k", "1,1,1", "--code-out", str(path))
        return path

    @pytest.mark.parametrize("argv, exit_code", [
        (["construct", "--l", "3,3", "--k", "2,2"], 0),
        (["verify", "--l", "3,3", "--k", "2,2", "--torus"], 0),
        (["verify", "--l", "3,3,3", "--k", "2,2,2", "--m", "19", "--beta", "1,2,3"], 5),
        (["decode", "--code", "{code}", "--received", "1,1,0"], 0),
        (["search", "--n", "4", "--t", "2", "--ell", "1"], 0),
        (["wom", "--l", "2,2", "--k", "1,1", "--q", "3", "--check", "--output", "{out}"], 0),
    ], ids=["construct", "verify", "verify-failing", "decode", "search", "wom"])
    def test_one_report_per_command(self, capsys, tmp_path, code_file, argv, exit_code):
        argv = [a.format(code=code_file, out=tmp_path / "c.csv") for a in argv]
        rc, out, err = run_cli(capsys, *argv)
        assert (rc, err) == (exit_code, "")
        report = json.loads(out)  # the whole of stdout is one document
        assert report["command"] == argv[0]
        assert list(report["timings_ms"]) == ["total"]
        assert int(report["timings_ms"]["total"]) >= 0

    def test_csv_construct_prints_no_report(self, capsys):
        rc, out, err = run_cli(capsys, "construct", "--l", "3,3", "--k", "2,2", "--out", "csv")
        assert (rc, err) == (0, "")
        assert "{" not in out and "command" not in out
        assert out.splitlines()[0] == "volume,5"


class TestVerdictFidelity:
    def test_cli_verdicts_match_library(self, capsys):
        from chaircodes.chair import Chair
        from chaircodes.lattice import chair_lattice, verify_tiling
        from chaircodes.splitting import general_chair_splitting, verify_splitting

        c = Chair((3, 4), (1, 2))
        _, out, _ = run_cli(capsys, "construct", "--l", "3,4", "--k", "1,2")
        report = report_of(out)
        lat = chair_lattice(c)
        assert report["verdicts"]["tiling"] == verify_tiling(lat, c).to_json_dict()
        s = general_chair_splitting(c)
        assert report["artifacts"]["splitting"] == s.to_json_dict()
        assert report["verdicts"]["splitting"] == verify_splitting(c, s).to_json_dict()


def run_module(*argv):
    # the child imports the same chaircodes as this process, installed or not
    src = str(Path(chaircodes.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "chaircodes.cli", *argv],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})


class TestReadmeExamples:
    def test_usage_block_runs(self, capsys, monkeypatch, tmp_path):
        # each chaircodes line of the README's usage block, in order: decode
        # reads the code file that construct --code-out writes
        readme = Path(__file__).resolve().parent.parent / "README.md"
        usage = readme.read_text().split("## CLI", 1)[1].split("```")[1]
        lines = [line.split("#")[0].split() for line in usage.splitlines() if line.startswith("chaircodes ")]
        assert lines
        monkeypatch.chdir(tmp_path)
        for argv in lines:
            assert run_cli(capsys, *argv[1:])[0] == 0, argv


class TestExitCodes:
    ERRORS = [c for c in vars(errors).values()
              if isinstance(c, type) and issubclass(c, errors.ChairCodesError) and c is not errors.ChairCodesError]
    NOT_INPUT = {errors.BudgetExceeded: 4, errors.NotPerfect: 3, errors.NotATiling: 5}

    @pytest.mark.parametrize("cls", ERRORS, ids=lambda c: c.__name__)
    def test_every_error_has_its_exit(self, capsys, cls):
        exc = cls(1) if cls is errors.HypothesisViolated else cls("boom")
        assert cli._error_exit(exc) == self.NOT_INPUT.get(cls, 2)
        assert json.loads(capsys.readouterr().err)["error"]["type"] == cls.__name__

    def test_all_errors_listed(self):
        assert len(self.ERRORS) == 12


class TestSubprocessEntry:
    def test_module_invocation(self, tmp_path):
        proc = run_module("construct", "--l", "2,2", "--k", "1,1")
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["artifacts"]["volume"] == "3"

    def test_unknown_subcommand(self):
        proc = run_module("frobnicate")
        assert proc.returncode == 2
