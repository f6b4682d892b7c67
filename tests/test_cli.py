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


@pytest.mark.parametrize("p", ["0", "-3", "2", "4"])
def test_partition_info_checks_p(capsys, p):
    """partition info refuses a p that is not an odd prime with exit 2 and
    the message: p = 0 used to exit 1 with a ZeroDivisionError traceback,
    and p = 2, 4 and -3 printed results."""
    from spinrest import cli

    assert cli.main(["partition", "info", "--lambda", "(4,2)", "--p", p]) == 2
    out, err = capsys.readouterr()
    assert out == "" and f"p must be an odd prime >= 3, got {p}" in err


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


@pytest.mark.parametrize("p", ["0", "-3", "2", "4"])
def test_branch_checks_p(capsys, p):
    """branch refuses a p that is not an odd prime with exit 2 and the
    message: p = 0 and -3 used to print the char-0 restriction, as no
    crystal operator ran to check p."""
    from spinrest import cli

    assert cli.main(["branch", "--lambda", "(4,2)", "--p", p]) == 2
    out, err = capsys.readouterr()
    assert out == "" and f"p must be an odd prime >= 3, got {p}" in err


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


def test_invariants_labels_orbits_once(monkeypatch, capsys):
    """On a two-row shape dim M^H is z_invariant_dim's orbit count, so the
    orbit labels are built once, and the payload is the same as when
    orbit_count built them a second time."""
    from spinrest import cli, specht

    calls = []
    labels = specht._orbit_labels
    monkeypatch.setattr(specht, "_orbit_labels", lambda *args: calls.append(args) or labels(*args))
    argv = ["--format", "json", "invariants", "--shape", "(8,2)", "--p", "3", "--subgroup", "W(2,5)"]
    assert cli.main(argv) == 0
    assert len(calls) == 1
    assert json.loads(capsys.readouterr().out) == {
        "schema": "spinrest-v1",
        "shape": "(8,2)",
        "subgroup": "W(2,5)",
        "p": 3,
        "dim_M_H": 2,
        "dim_dualS_H": 1,
        "dim_Z_H": 1,
        "hom_gap": True,
    }


@pytest.mark.parametrize("shape, subgroup", [("(8,2)", "W(2,5)"), ("(3,2,1)", "S(3,3)")])
def test_invariants_builds_e_once(monkeypatch, capsys, shape, subgroup):
    """One invariants query builds the polytabloid matrix once, also on a
    two-row shape, where dim_Z_H and dim_dualS_H both come from it."""
    from spinrest import cli, specht

    calls = []
    build = specht.polytabloid_matrix
    monkeypatch.setattr(specht, "polytabloid_matrix", lambda *args: calls.append(args) or build(*args))
    assert cli.main(["invariants", "--shape", shape, "--p", "3", "--subgroup", subgroup]) == 0
    assert len(calls) == 1
    assert "dim_dualS_H" in capsys.readouterr().out


def test_invariants_refuses_z_step_beyond_memory(monkeypatch, capsys):
    """(8,8) under the trivial group mod 3 passes the dual-Specht preflight
    (about 33 MB) with 0.1 GB of physical memory, but its 1430 x 12870
    orbit sums, their copy and their rank do not fit: exit 2 with the
    estimate, before E is built."""
    from spinrest import cli, specht

    def unreachable(*args):
        raise AssertionError("the request should have been refused before this call")

    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 25_000}
    monkeypatch.setattr(specht.os, "sysconf", pages.__getitem__)
    monkeypatch.setattr(specht, "polytabloid_matrix", unreachable)
    subgroup = "S(" + ",".join("1" * 16) + ")"
    assert cli.main(["invariants", "--shape", "(8,8)", "--p", "3", "--subgroup", subgroup]) == 2
    out, err = capsys.readouterr()
    want = f"dim Z^H of (8, 8) under {subgroup} needs about 0.4 GB (dim S = 1430, 12870 orbits), more than the 0.1 GB"
    assert out == "" and want in err


def test_invariants_makes_one_lattice_pass(monkeypatch, capsys):
    """One invariants query finds the standard tableaux of its tabloid basis
    once, though both E and the dual-Specht blocks are indexed by them."""
    from spinrest import cli, specht

    calls = []
    lattice = specht._standard_tabloids
    monkeypatch.setattr(specht, "_standard_tabloids", lambda basis: calls.append(basis) or lattice(basis))
    specht.perm_basis.cache_clear()
    assert cli.main(["--format", "json", "invariants", "--shape", "(5,3,2)", "--p", "3", "--subgroup", "W(2,5)"]) == 0
    assert len(calls) == 1
    assert json.loads(capsys.readouterr().out)["dim_dualS_H"] == 0


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


@pytest.mark.parametrize("label", ["D[(3,3,3,1);+]", "D[(4,3,2,1);+]"])
def test_unknown_table_ii_row_exits_2(label):
    """A basic and a non-basic label both refuse an unknown Table II row."""
    code, out, err = run_cli("classify", "--group", "S", "--n", "10", "--p", "3", "--label", label, "--subgroup", "tab2:row9")
    assert code == 2 and out == ""
    assert "tab2:9 is not a Table II row (rows: 1, 2, 3, 4)" in err


@pytest.mark.parametrize(
    "spec, form",
    [
        ("S(3,)", "S(b1,...,bk)"),
        ("S(2,1", "S(b1,...,bk)"),
        ("W(5)", "W(a,b)"),
        ("W(a,b)", "W(a,b)"),
        ("tab2:x", "tab2:N"),
        ("tab2:wwor3", "tab2:N"),
        ("tab2:rrow3", "tab2:N"),
    ],
)
def test_malformed_subgroup_names_the_spec(spec, form):
    """A malformed spec exits 2 with a message that names it and the expected
    form, not Python's own int() or unpacking text."""
    code, out, err = run_cli("invariants", "--shape", "(3,2)", "--p", "3", "--subgroup", spec)
    assert code == 2 and out == ""
    assert f"cannot parse subgroup {spec!r}: expected {form}" in err


_LABEL_FORM = "expected D[(l1,...,lh);eps] or E[...;eps], optionally @p=P"
_CLASSIFY = ("classify", "--group", "S", "--n", "6", "--p", "7", "--subgroup", "W(3,2)", "--label")


@pytest.mark.parametrize(
    "args, message",
    [
        (_CLASSIFY + ("",), f"cannot parse label '': {_LABEL_FORM}"),
        (_CLASSIFY + ("D[(3,2,1)]",), f"cannot parse label 'D[(3,2,1)]': {_LABEL_FORM}"),
        (_CLASSIFY + ("D[(3,2,1);+]@p=3@p=5",), f"cannot parse label 'D[(3,2,1);+]@p=3@p=5': {_LABEL_FORM}"),
        (_CLASSIFY + ("D[(3,2,1);+]@p=x",), f"cannot parse label 'D[(3,2,1);+]@p=x': {_LABEL_FORM}"),
        (("partition", "info", "--p", "3", "--lambda", "(3,a)"), "cannot parse partition '(3,a)': expected (l1,...,lh)"),
        (("partition", "info", "--p", "3", "--lambda", "(3,,2)"), "cannot parse partition '(3,,2)': expected (l1,...,lh)"),
    ],
    ids=["empty-label", "no-eps", "two-p", "p-not-int", "part-not-int", "empty-part"],
)
def test_malformed_label_or_partition_names_the_text(args, message):
    """A malformed label or partition exits 2 with a message that names it and
    the expected form, not a traceback or Python's own int() or unpacking text."""
    code, out, err = run_cli(*args)
    assert code == 2 and out == ""
    assert message in err and "Traceback" not in err


def test_invariants_on_long_words():
    """(64,2) has 66-letter words, past any packed 64-bit key; the values are
    those of the closed-form rank."""
    code, out, err = run_cli("--format", "json", "invariants", "--shape", "(64,2)", "--p", "3", "--subgroup", "W(2,33)")
    assert code == 0, err
    payload = json.loads(out)
    assert (payload["dim_M_H"], payload["dim_dualS_H"]) == (2, 1)


def test_p_beyond_int64_products_exits_2():
    """p = 4294967311 used to give a wrong kernel and a misleading error;
    p = 2^61 - 1 used to hang in trial division.  They and 11863289, the
    first prime above gfp's limit, are refused at once, naming the limit."""
    for p in ("11863289", "4294967311", str(2**61 - 1)):
        code, out, err = run_cli("invariants", "--shape", "(4,2)", "--p", p, "--subgroup", "W(2,3)")
        assert code == 2 and out == ""
        assert "11863279" in err and "not stable" not in err


def test_composite_p_exits_2_before_any_work():
    """p = 0 used to print numpy's divide-by-zero RuntimeWarning before the
    refusal, and p = 4 was refused only after the tabloids and E were built."""
    for p in ("0", "4"):
        code, out, err = run_cli("invariants", "--shape", "(3,2)", "--p", p, "--subgroup", "S(3,2)")
        assert code == 2 and out == ""
        assert f"p must be prime, got {p}" in err and "RuntimeWarning" not in err


@pytest.mark.parametrize(
    "p, label",
    [("0", "D[(3,2,1);+]"), ("1", "D[(3,2,1);+]"), ("2", "D[(3,2,1);+]"), ("-3", "D[(3,2,1);+]")]
    + [("7", f"D[(3,2,1);+]@p={p}") for p in ("0", "1", "2")],
)
def test_classify_checks_p_before_the_label(capsys, p, label):
    """p, from --p or from the label's own @p=P, must be an odd prime before
    the label's partition is tested against it: p = 0 used to answer that
    (3,2,1) is not restricted 0-strict, and p = 2 that eps=+ is invalid."""
    from spinrest import cli

    argv = ["classify", "--group", "S", "--n", "6", "--p", p, "--label", label, "--subgroup", "W(3,2)"]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    want = label.partition("@p=")[2] or p
    assert out == "" and f"p must be an odd prime >= 3, got {want}" in err


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


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--group", "A", "--n", "6", "--p", "7", "--label", "E[(3,2,1);0]", "--subgroup", "I2(1,3)"],
         "classified inside the symmetric cover"),
        (["--group", "S", "--n", "10", "--p", "3", "--label", "D[(4,3,2,1);+]", "--subgroup", "W(5,2)"],
         "only at n = 6, 7, not n = 10"),
    ],
)
def test_sixfold_queries_are_validated(argv, message, capsys):
    """--sixfold is no way around the checks of any other query."""
    from spinrest import cli

    assert cli.main(["classify", *argv, "--sixfold"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


def test_aliases_print_the_canonical_spelling(capsys):
    """An and A(10) are one subgroup: one verdict, one printed spelling."""
    from spinrest import cli

    outputs = []
    for sub in ("A(10)", "An"):
        argv = ["--format", "json", "classify", "--group", "S", "--n", "10", "--p", "3", "--label", "D[(4,3,2,1);+]"]
        assert cli.main([*argv, "--subgroup", sub]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    payload = json.loads(outputs[0])
    assert payload["query"]["subgroup"] == "A(10)" and payload["outcome"] == "Irreducible"


def test_main_builds_the_parser_once(monkeypatch, capsys):
    """Queries in one process share one parser: two main calls build it
    once, and print what the same queries print in processes of their own."""
    import argparse

    from spinrest import cli

    queries = [
        ["--format", "json", "classify", "--group", "S", "--n", "6", "--p", "7", "--label", "D[(3,2,1);+]",
         "--subgroup", "W(3,2)"],
        ["dims", "--n", "9", "--p", "5", "--which", "second"],
    ]
    fresh = [run_cli(*argv)[1] for argv in queries]  # one process, so one parser, each
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    cli.build_parser.cache_clear()
    for argv, want in zip(queries, fresh):
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == want
    assert built.count("spinrest") == 1
