"""One table for the integer readers: every site that reads an integer from a
caller, a code file, argv or the environment refuses a bool, a float and
non-decimal text with BadParameters (exit 2 through the CLI) instead of
truncating it, and accepts well-formed integers."""

import json

import numpy as np
import pytest

from chaircodes.budget import resolve_budget
from chaircodes.chair import Chair
from chaircodes.cli import main
from chaircodes.codes import ErrorSphere, LatticeCode, decode, perfect_code
from chaircodes.errors import BadParameters
from chaircodes.lattice import SplittingSequence, chair_lattice, lattice_points_in_box, torus_tiling_oracle

CODE = perfect_code(3, (1, 1, 1))
SQUARE = Chair((3, 3), (2, 2))  # volume 5, so m = 5 is a torus modulus
SQUARE_LATTICE = chair_lattice(SQUARE)


def _code_file(**changes) -> dict:
    data = CODE.to_json_dict()
    data.update(changes)
    return data


def _table_entry(old: str, new: str) -> dict:
    data = CODE.to_json_dict()
    data["table"] = {k: (new if v == old else v) for k, v in data["table"].items()}
    return data


REFUSED = {
    # the three cases that were truncated or accepted silently
    "decode(code, (1.9, 0, 0))": lambda: decode(CODE, (1.9, 0, 0)),
    "SplittingSequence.cyclic(7, (1, 2, 4), (0, 1.0, 2))":
        lambda: SplittingSequence.cyclic(7, (1, 2, 4), (0, 1.0, 2)),
    "ErrorSphere(2, True, (1, True))": lambda: ErrorSphere(2, True, (1, True)),
    # library arguments: bool, float, text
    "decode bool": lambda: decode(CODE, (True, 0, 0)),
    "decode text": lambda: decode(CODE, ("1", 0, 0)),
    "permutation bool": lambda: SplittingSequence.cyclic(7, (1, 2, 4), (0, True, 2)),
    "permutation text": lambda: SplittingSequence.cyclic(7, (1, 2, 4), (0, "1", 2)),
    "divisor bool": lambda: SplittingSequence((True,), ((1, 0),)),
    "residue bool": lambda: SplittingSequence((7,), ((1, True, 4),)),
    "sphere n float": lambda: ErrorSphere(2.0, 1, (1, 1)),
    "sphere n text": lambda: ErrorSphere("2", 1, (1, 1)),
    "box bounds [2.9, 0.5]": lambda: lattice_points_in_box(SQUARE_LATTICE, [2.9, 0.5]),
    "box bounds bool": lambda: lattice_points_in_box(SQUARE_LATTICE, [True, 1]),
    "box bounds text": lambda: lattice_points_in_box(SQUARE_LATTICE, ["2", 1]),
    "torus m=5.7": lambda: torus_tiling_oracle(SQUARE_LATTICE, SQUARE, 5.7),
    "torus m bool": lambda: torus_tiling_oracle(SQUARE_LATTICE, SQUARE, True),
    "torus m text": lambda: torus_tiling_oracle(SQUARE_LATTICE, SQUARE, "5"),
    "resolve_budget(True)": lambda: resolve_budget(True),
    "resolve_budget float": lambda: resolve_budget(12.0),
    "resolve_budget text": lambda: resolve_budget("1_0"),
    # code files: JSON numbers and decimal strings only
    "code file n bool": lambda: LatticeCode.from_json_dict(_code_file(n=True)),
    "code file n float": lambda: LatticeCode.from_json_dict(_code_file(n=3.0)),
    "code file n text": lambda: LatticeCode.from_json_dict(_code_file(n="3.0")),
    "code file magnitude text": lambda: LatticeCode.from_json_dict(_code_file(magnitudes=["1", "1_0", "1"])),
    "code file table signed": lambda: LatticeCode.from_json_dict(_table_entry("1,0,0", "+1,0,0")),
    "code file table spaced": lambda: LatticeCode.from_json_dict(_table_entry("1,0,0", " 1,0,0")),
}


@pytest.mark.parametrize("call", REFUSED.values(), ids=REFUSED.keys())
def test_refused(call):
    with pytest.raises(BadParameters, match="must be an integer"):
        call()


@pytest.mark.parametrize("value", ["1_0", " 12 ", "12.0", "2/1"])
def test_env_budget_refused(monkeypatch, value):
    monkeypatch.setenv("CHAIRCODES_BUDGET", value)
    with pytest.raises(BadParameters, match="^CHAIRCODES_BUDGET must be an integer"):
        resolve_budget()


@pytest.fixture()
def code_path(tmp_path):
    path = tmp_path / "code.json"
    path.write_text(json.dumps(CODE.to_json_dict()))
    return str(path)


CLI_REFUSED = {
    "verify --m 1_9": ["verify", "--l", "2,2,2", "--k", "1,1,1", "--m", "1_9", "--beta", "1,2,4"],
    "verify --m 0_7": ["verify", "--l", "2,2,2", "--k", "1,1,1", "--m", "0_7", "--beta", "1,2,4"],
    "verify --m 7.0": ["verify", "--l", "2,2,2", "--k", "1,1,1", "--m", "7.0", "--beta", "1,2,4"],
    "verify --beta 4/2": ["verify", "--l", "2,2,2", "--k", "1,1,1", "--m", "7", "--beta", "1,4/2,4"],
    "verify --beta 2.0": ["verify", "--l", "2,2,2", "--k", "1,1,1", "--m", "7", "--beta", "1,2.0,4"],
    "decode --received 1.0": ["decode", "--code", "CODE", "--received", "1.0,0,0"],
    "decode --received 2/2": ["decode", "--code", "CODE", "--received", "2/2,0,0"],
    "search --n 0_4": ["search", "--n", "0_4", "--t", "2", "--ell", "1"],
    "search --t 2.0": ["search", "--n", "4", "--t", "2.0", "--ell", "1"],
    "search --ell +1": ["search", "--n", "4", "--t", "2", "--ell", "+1"],
    "search --budget 1_0": ["search", "--n", "4", "--t", "2", "--ell", "1", "--mode", "exhaustive",
                            "--budget", "1_0"],
    "search --budget 1e6": ["search", "--n", "4", "--t", "2", "--ell", "1", "--mode", "exhaustive",
                            "--budget", "1e6"],
    "wom --q 0_3": ["wom", "--l", "2,2", "--k", "1,1", "--q", "0_3"],
    "wom --q 3.0": ["wom", "--l", "2,2", "--k", "1,1", "--q", "3.0"],
}


@pytest.mark.parametrize("argv", CLI_REFUSED.values(), ids=CLI_REFUSED.keys())
def test_cli_refused(capsys, monkeypatch, tmp_path, code_path, argv):
    monkeypatch.chdir(tmp_path)
    rc = main([code_path if a == "CODE" else a for a in argv])
    captured = capsys.readouterr()
    assert (rc, captured.out) == (2, "")
    error = json.loads(captured.err)["error"]
    assert error["type"] == "BadParameters"
    assert "must be an integer" in error["message"]


def test_cli_env_budget_refused(capsys, monkeypatch):
    monkeypatch.setenv("CHAIRCODES_BUDGET", "1_0")
    rc = main(["search", "--n", "4", "--t", "2", "--ell", "1", "--mode", "exhaustive"])
    captured = capsys.readouterr()
    assert (rc, captured.out) == (2, "")
    assert json.loads(captured.err)["error"]["message"] == "CHAIRCODES_BUDGET must be an integer, got '1_0'"


@pytest.mark.parametrize("integer", [int, np.int64], ids=["int", "numpy.int64"])
def test_accepted(integer):
    word = tuple(map(integer, (1, 1, 0)))
    assert decode(CODE, word) == ((0, 0, 0), (1, 1, 0))
    assert all(type(x) is int for part in decode(CODE, word) for x in part)
    assert SplittingSequence.cyclic(integer(7), word, tuple(map(integer, (2, 0, 1)))).permutation == (2, 0, 1)
    assert ErrorSphere(integer(2), integer(1), (integer(1), integer(2))) == ErrorSphere(2, 1, (1, 2))
    assert list(lattice_points_in_box(SQUARE_LATTICE, [integer(2), integer(2)])) == [(k, k) for k in range(-2, 3)]
    assert torus_tiling_oracle(SQUARE_LATTICE, SQUARE, integer(5)).ok
    assert resolve_budget(integer(12)) == 12


def test_accepted_text(monkeypatch):
    monkeypatch.setenv("CHAIRCODES_BUDGET", "12")
    assert resolve_budget() == 12
    assert resolve_budget("0012") == 12
    code = LatticeCode.from_json_dict(_code_file(n="3", t=2, magnitudes=["1", 1, "1"]))
    assert code.sphere == CODE.sphere
    assert code.decode_table == CODE.decode_table
