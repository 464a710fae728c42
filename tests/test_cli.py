import json
import os
import pathlib

import pytest

from knotmf.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_homfly_text(capsys):
    code, out = run_cli(["homfly", "1 1 1"], capsys)
    assert code == 0
    assert "a^-5" in out


def test_homfly_unknot(capsys):
    code, out = run_cli(["homfly", "", "--strands", "1"], capsys)
    assert code == 0
    assert out.strip() == "(-a^-1 + a) / ((q-q^-1))"


def test_homfly_parse_error(capsys):
    assert main(["homfly", "0"]) == 2


def test_homfly_strand_guard(capsys):
    word = " ".join(str(i) for i in range(1, 7))
    assert main(["homfly", word]) == 3
    assert main(["homfly", "1", "--strands", "7"]) == 3


def test_homfly_json_round_trip(capsys):
    code, out = run_cli(["homfly", "1 1", "--format", "json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["braid"] == {"strands": 2, "letters": [1, 1]}
    assert data["components"] == 2
    assert all({"a_exp", "coeff_num", "denom_s_exp"} == set(c)
               for c in data["invariant"])


def test_hecke_command(capsys):
    code, out = run_cli(["hecke", "1 1", "--format", "json"], capsys)
    assert code == 0
    data = json.loads(out)
    perms = {tuple(d["permutation"]) for d in data}
    assert perms == {(1, 2), (2, 1)}


def test_superpoly_guard(capsys):
    assert main(["superpoly", "--jm", "1,1,1,1,1"]) == 3
    assert main(["superpoly", "--jm", "1,1,1,1,1,1", "--mode", "syt"]) == 3
    assert main(["superpoly", "--jm", "1,x"]) == 2


def test_superpoly_unknot(capsys):
    code, out = run_cli(["superpoly", "--jm", "", "--order", "4"], capsys)
    assert code == 0
    assert "1-box closure" in out


def test_tableaux(capsys):
    code, out = run_cli(["tableaux", "4", "--format", "json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["total"] == 10


def test_verify_markov_small(capsys):
    code, out = run_cli(["verify", "markov", "--samples", "4",
                         "--seed", "7"], capsys)
    assert code == 0
    assert json.loads(out)["status"] == "pass"


def test_deterministic_output(capsys):
    _, out1 = run_cli(["verify", "skein", "--samples", "3", "--seed", "5"],
                      capsys)
    _, out2 = run_cli(["verify", "skein", "--samples", "3", "--seed", "5"],
                      capsys)
    assert out1 == out2


@pytest.mark.parametrize("name,args", [
    ("trefoil_homfly.txt", ["homfly", "1 1 1"]),
    ("hopf_homfly.txt", ["homfly", "1 1"]),
    ("figure8_homfly.txt", ["homfly", "1 -2 1 -2"]),
    ("hopf_superpoly.json", ["superpoly", "--jm", "1", "--order", "6",
                             "--format", "json"]),
    ("homfly_4strand.json", ["homfly", "--format", "json", "--strands", "4",
                             "-2 3 -2 3 3"]),
])
def test_golden_files(name, args, capsys):
    code, out = run_cli(args, capsys)
    assert code == 0
    path = GOLDEN / name
    if os.environ.get("KNOTMF_REGOLD") == "1":
        path.write_text(out)
    assert path.read_text() == out, f"golden mismatch for {name}"
