import json
import subprocess
import sys

import pytest


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "spinrest.cli", *args],
        capture_output=True,
        text=True,
        timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_partition_info_text():
    code, out, _ = run_cli("partition", "info", "--lambda", "(4,2)", "--p", "3")
    assert code == 0
    assert "restricted_p_strict: True" in out
    assert "a_p: 0" in out


def test_partition_info_json_schema():
    code, out, _ = run_cli("--format", "json", "partition", "info", "--lambda", "(4,2)", "--p", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "spinrest-v1"
    assert payload["lambda"] == "(4,2)"
    assert payload["h_p_prime"] == 2


def test_residues_json_round_trip():
    code, out, _ = run_cli("--format", "json", "residues", "--lambda", "(4,2)", "--p", "3")
    assert code == 0
    payload = json.loads(out)
    assert [d["epsilon"] for d in payload["residues"]] == [0, 1]
    assert payload["residues"][0]["signature"].count("+") == len(
        payload["residues"][0]["addable"]
    )


def test_branch_command():
    code, out, _ = run_cli("--format", "json", "branch", "--lambda", "(4,1)", "--p", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["tilde"]["0"] == "(3,1)"
    assert payload["char0"] == {"(3,1)": 2, "(4)": 1}
    code, out, _ = run_cli("--format", "json", "branch", "--lambda", "(3,1)", "--p", "3", "--up")
    payload = json.loads(out)
    assert payload["char0"] == {"(4,1)": 1, "(3,2)": 1}


def test_reg_command():
    code, out, _ = run_cli("--format", "json", "reg", "--lambda", "(11,2,1)", "--p", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["regularization"] == "(7,6,1)"
    assert payload["leading_coefficient"] == 1


def test_trp_command():
    code, out, _ = run_cli("--format", "json", "trp", "--n", "6", "--p", "3")
    payload = json.loads(out)
    assert set(payload["labels"]) == {"(4,2)", "(3,2,1)"}


def test_dims_command():
    code, out, _ = run_cli("--format", "json", "dims", "--n", "10", "--p", "3", "--which", "second")
    payload = json.loads(out)
    assert payload["supermodule_dim"] == 96 and payload["type"] == "Q"
    assert payload["module_dim_sym"] == 48


def test_classify_command():
    code, out, _ = run_cli(
        "--format",
        "json",
        "classify",
        "--group",
        "S",
        "--n",
        "6",
        "--p",
        "7",
        "--label",
        "D[(3,2,1);+]",
        "--subgroup",
        "W(3,2)",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["outcome"] == "Irreducible"
    assert "Table I" in payload["clause"]


def test_invariants_command():
    code, out, _ = run_cli(
        "--format", "json", "invariants", "--shape", "(8,2)", "--p", "3", "--subgroup", "W(2,5)"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["dim_M_H"] == 2
    assert payload["dim_dualS_H"] == 1
    assert payload["dim_Z_H"] == 1 and payload["hom_gap"] is True


def test_verify_exit_codes():
    code, out, _ = run_cli("verify", "parity")
    assert code == 0 and "0 violations" in out
    code, out, _ = run_cli("--format", "json", "verify", "js")
    payload = json.loads(out)
    assert payload["ok"] is True and payload["violations"] == []


def test_argument_errors_exit_2():
    code, _, err = run_cli("verify", "nonsense")
    assert code == 2
    code, _, err = run_cli("partition", "info", "--lambda", "(2,3)", "--p", "3")
    assert code == 2
    code, _, err = run_cli("classify", "--group", "S", "--n", "6", "--p", "3", "--label", "D[(4,2);+]", "--subgroup", "W(3,2)")
    assert code == 2  # eps inconsistent with a_p
    code, out, err = run_cli("invariants", "--shape", "(4,2)", "--p", "3", "--subgroup", "W(3,3)")
    assert code == 2 and out == ""
    assert "subgroup W(3,3) acts on 9 points, but n = 6" in err
    for atom in ("prim:M12", "prim:FOO"):
        code, out, err = run_cli(
            "classify", "--group", "S", "--n", "6", "--p", "3", "--label", "D[(4,2);0]", "--subgroup", atom
        )
        assert code == 2 and out == ""
        assert "not a listed primitive atom of degree 6" in err


@pytest.mark.parametrize(
    "spec, form",
    [("S(3,)", "S(b1,...,bk)"), ("S(2,1", "S(b1,...,bk)"), ("W(5)", "W(a,b)"), ("W(a,b)", "W(a,b)"), ("tab2:x", "tab2:ROW")],
)
def test_malformed_subgroup_names_the_spec(spec, form):
    """A malformed spec exits 2 with a message that names it and the expected
    form, not Python's own int() or unpacking text."""
    code, out, err = run_cli("invariants", "--shape", "(3,2)", "--p", "3", "--subgroup", spec)
    assert code == 2 and out == ""
    assert f"cannot parse subgroup {spec!r}: expected {form}" in err


def test_invariants_on_long_words():
    """(64,2) has 66-letter words, past any packed 64-bit key; the values are
    those of the closed-form rank."""
    code, out, err = run_cli("--format", "json", "invariants", "--shape", "(64,2)", "--p", "3", "--subgroup", "W(2,33)")
    assert code == 0, err
    payload = json.loads(out)
    assert (payload["dim_M_H"], payload["dim_dualS_H"]) == (2, 1)


def test_p_beyond_int64_products_exits_2():
    """p = 4294967311 used to give a wrong kernel and a misleading error;
    p = 2^61 - 1 used to hang in trial division.  Both are now refused at
    once, naming the limit."""
    for p in ("4294967311", str(2**61 - 1)):
        code, out, err = run_cli("invariants", "--shape", "(4,2)", "--p", p, "--subgroup", "W(2,3)")
        assert code == 2 and out == ""
        assert "3037000499" in err and "not stable" not in err


def test_composite_p_exits_2_before_any_work():
    """p = 0 used to print numpy's divide-by-zero RuntimeWarning before the
    refusal, and p = 4 was refused only after the tabloids and E were built."""
    for p in ("0", "4"):
        code, out, err = run_cli("invariants", "--shape", "(3,2)", "--p", p, "--subgroup", "S(3,2)")
        assert code == 2 and out == ""
        assert f"p must be prime, got {p}" in err and "RuntimeWarning" not in err


def test_invariants_empty_shape():
    """M^() has one tabloid and S^() is the trivial module."""
    for shape in ("()", "(0)"):
        code, out, err = run_cli("--format", "json", "invariants", "--shape", shape, "--p", "3", "--subgroup", "Sn")
        assert code == 0, err
        payload = json.loads(out)
        assert (payload["dim_M_H"], payload["dim_dualS_H"], payload["dim_Z_H"]) == (1, 1, 0)


def test_reg_huge_odd_prime():
    """p = 2^61 - 1 used to hang in trial division; beyond the exact range of
    the primality test p is refused."""
    code, out, err = run_cli("reg", "--lambda", "(3,1)", "--p", str(2**61 - 1))
    assert code == 0, err
    assert out.startswith("(3,1)^Reg = (3,1)")
    code, out, err = run_cli("reg", "--lambda", "(3,1)", "--p", str(2**127 - 1))
    assert code == 2 and "3317044064679887385961981" in err


def test_invariants_refuses_shapes_beyond_memory():
    """m = 16!/2 tabloids: the tabloid basis alone would need petabytes, more
    than any host has, and the refusal comes before it is built."""
    shape = "(" + ",".join(["2"] + ["1"] * 14) + ")"
    code, out, err = run_cli("invariants", "--shape", shape, "--p", "3", "--subgroup", "W(2,8)")
    assert code == 2 and out == ""
    assert "m = 10461394944000 tabloids" in err and "GB of physical memory" in err


def test_internal_errors_exit_3(monkeypatch, capsys):
    from spinrest import cli

    def overlap(query):
        raise RuntimeError("clauses overlap")

    monkeypatch.setattr(cli, "classify_query", overlap)
    argv = ["classify", "--group", "S", "--n", "6", "--p", "3", "--label", "D[(4,2);0]", "--subgroup", "S(4,2)"]
    code = cli.main(argv)
    assert code == 3
    assert capsys.readouterr().err == "internal error: clauses overlap\n"
