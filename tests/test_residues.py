from collections import Counter

import pytest

from oracles import brute_eps_phi, brute_good_cogood, brute_residue, brute_signature
from spinrest.labels import schur_char0_dim
from spinrest.partitions import is_strict, partitions_of, restricted_p_strict_partitions
from spinrest.residues import (
    addable_nodes,
    build_profile,
    char0_branching_down,
    char0_branching_up,
    down_set,
    eps_vector,
    js_class,
    removable_nodes,
    residue_counts,
    residue_of_column,
    tilde_e,
    tilde_f,
    up_set,
)


def test_residue_of_column_examples():
    assert residue_of_column(1, 5) == 0
    assert [residue_of_column(s, 3) for s in range(1, 7)] == [0, 1, 0, 0, 1, 0]
    assert residue_of_column(3, 5) == 2


def test_residue_of_column_against_brute_decomposition():
    for p in (3, 5, 7, 11):
        for s in range(1, 120):
            assert residue_of_column(s, p) == brute_residue(s, p)


def test_residue_counts_examples():
    assert residue_counts((3, 1), 3) == (3, 1)
    assert residue_counts((), 5) == (0, 0, 0)
    assert residue_counts((4, 2), 3) == (4, 2)


def test_signature_machinery_against_brute_oracle():
    """Signatures, epsilon/phi and good/cogood nodes agree with the
    set-theoretic definition walk for every label with n <= 10."""
    for p in (3, 5):
        ell = (p - 1) // 2
        for n in range(0, 11):
            for lam in restricted_p_strict_partitions(n, p):
                profile = build_profile(lam, p)
                for i in range(ell + 1):
                    word, _ = brute_signature(lam, p, i)
                    got_word = [(e.node, e.sign) for e in profile[i].signature]
                    assert got_word == word, (lam, p, i)
                    eps, phi = brute_eps_phi(lam, p, i)
                    assert (profile[i].epsilon, profile[i].phi) == (eps, phi), (lam, p, i)
                    assert (profile[i].good, profile[i].cogood) == brute_good_cogood(lam, p, i)


def test_pair_type_nodes_only_at_residue_zero():
    for p in (3, 5):
        for n in range(0, 13):
            for lam in restricted_p_strict_partitions(n, p):
                for i in range(1, (p - 1) // 2 + 1):
                    assert all(pr for _, pr in removable_nodes(lam, p, i)), (lam, i)
                    assert all(pr for _, pr in addable_nodes(lam, p, i)), (lam, i)


def test_frozen_eps_anchors():
    # frozen from the brute oracle; (4,1) also matches the restriction
    # multiplicity 3 of the second basic supermodule at n = 5, p = 3
    assert eps_vector((4, 2), 3) == (0, 1)
    assert eps_vector((3, 1), 3) == (2, 0)
    assert eps_vector((4, 1), 3) == (3, 0)
    assert eps_vector((3, 2, 1), 3) == (1, 0)


def test_single_row_profiles():
    """A single row has a unit epsilon vector at the residue of its last
    column; node counts per residue stay at one away from the column-residue
    wrap (at n = p - 1 the two 0-addable columns and their pair coincide)."""
    for p in (5, 7):
        for n in range(2, p):
            profile = build_profile((n,), p)
            i_last = residue_of_column(n, p)
            eps = profile.eps_vector
            assert eps[i_last] == 1
            assert sum(eps) == 1
            for d in profile.data:
                assert len(d.removable) <= 1
                if n != p - 1:
                    assert len(d.addable) <= 1


def test_js_class_examples():
    assert js_class((4, 2), 3) == 1
    assert js_class((3, 1), 3) is None  # eps_0 = 2
    assert js_class((3, 2, 1), 3) == 0


def test_tilde_examples():
    assert tilde_e((3, 1), 3, 0) == (2, 1)
    assert tilde_f((), 3, 0) == (1,)
    assert tilde_e((4, 2), 3, 0) is None
    assert tilde_e((4, 2), 3, 1) == (4, 1)
    assert tilde_f((4, 1), 3, 1) == (4, 2)


def test_tilde_round_trip_small():
    for p in (3, 5):
        for n in range(1, 12):
            for lam in restricted_p_strict_partitions(n, p):
                for i in range((p - 1) // 2 + 1):
                    mu = tilde_e(lam, p, i)
                    if mu is not None:
                        assert tilde_f(mu, p, i) == lam
                    nu = tilde_f(lam, p, i)  # also certifies nu stays restricted
                    if nu is not None:
                        assert tilde_e(nu, p, i) == lam


def test_char0_down_examples():
    rp, r = down_set((4, 1))
    assert rp == [(3, 1)] and set(r) == {(3, 1), (4,)}
    assert char0_branching_down((5,)) == Counter({(4,): 1})
    # a_0 = 1 with last part 1: the truncation once, the rest doubled
    assert char0_branching_down((4, 1)) == Counter({(4,): 1, (3, 1): 2})


def test_char0_up_examples():
    ap, a = up_set((3, 1))
    assert set(ap) == {(4, 1), (3, 2)}
    assert set(a) == {(4, 1), (3, 2)}  # appended (3,1,1) is not strict
    assert char0_branching_up(()) == Counter({(1,): 1})
    assert char0_branching_up((2, 1)) == Counter({(3, 1): 2})


def test_char0_adjointness():
    for n in range(1, 15):
        for lam in partitions_of(n, is_strict):
            _, r = down_set(lam)
            for mu in r:
                _, a = up_set(mu)
                assert lam in a, (lam, mu)
        for lam in partitions_of(n - 1, is_strict):
            _, a = up_set(lam)
            for nu in a:
                _, r = down_set(nu)
                assert lam in r, (lam, nu)


def test_char0_branching_preserves_dimension():
    """Restriction keeps the dimension, induction multiplies it by n + 1;
    ties the multiplicity cases to the characteristic-0 dimension formula."""
    for n in range(1, 13):
        for lam in partitions_of(n, is_strict):
            down = char0_branching_down(lam)
            assert sum(m * schur_char0_dim(mu) for mu, m in down.items()) == schur_char0_dim(lam)
            up = char0_branching_up(lam)
            assert sum(m * schur_char0_dim(nu) for nu, m in up.items()) == (n + 1) * schur_char0_dim(lam)


def test_profile_rejects_bad_input():
    with pytest.raises(ValueError):
        build_profile((7, 1), 3)


def test_profile_json_shape():
    payload = build_profile((4, 2), 3).to_json()
    assert payload["lambda"] == "(4,2)"
    assert [d["epsilon"] for d in payload["residues"]] == [0, 1]
    assert payload["residues"][1]["good"] == [2, 2]
