import pytest

from spinrest.labels import (
    ModuleLabel,
    alpha_n,
    basic_table,
    beta_n,
    char0_module_dim,
    intro_dims,
    labels_for,
    m_n,
    mu_na,
    parse_label,
    schur_char0_dim,
    second_basic_table,
    supermodule_type,
    trp_set,
)
from spinrest.partitions import a_p, is_restricted_p_strict, restricted_p_strict_partitions, size


def test_alpha_examples():
    assert alpha_n(10, 3) == (3, 3, 3, 1)
    assert alpha_n(6, 3) == (3, 2, 1)
    assert alpha_n(9, 3) == (3, 3, 2, 1)
    assert alpha_n(11, 11) == (10, 1)


def test_beta_examples():
    assert beta_n(10, 3) == (4, 3, 2, 1)
    assert beta_n(5, 5) == (3, 2)
    assert beta_n(8, 7) == (5, 2, 1)
    assert beta_n(4, 7) == (3, 1)
    with pytest.raises(ValueError):
        beta_n(4, 3)


def test_alpha_beta_land_in_rp():
    for p in (3, 5, 7):
        for n in range(1, 25):
            assert is_restricted_p_strict(alpha_n(n, p), p)
            if n >= 5 or n >= 3 and n < p:
                assert is_restricted_p_strict(beta_n(n, p), p)


def test_basic_table_examples():
    assert basic_table(10, 3) == (32, "Q")
    assert basic_table(9, 3) == (16, "Q")
    assert basic_table(7, 3) == (8, "M")


def test_second_basic_table_examples():
    assert second_basic_table(10, 3) == (96, "Q")
    assert second_basic_table(10, 7) == (128, "M")
    # module halves at p | (n-1), n even
    n = 10
    assert intro_dims(n, 3, "S", "second") == 2 ** ((n - 4) // 2) * (n - 4) == 48
    assert intro_dims(n, 3, "A", "second") == 48


def test_intro_dims_examples():
    assert intro_dims(10, 3, "S", "basic") == 16
    assert intro_dims(10, 3, "A", "second") == 48
    assert intro_dims(12, 3, "S", "basic") == 32


def test_table_intro_consistency():
    for p in (3, 5, 7):
        for n in range(5, 21):
            for which, (dim, typ) in (
                ("basic", basic_table(n, p)),
                ("second", second_basic_table(n, p)),
            ):
                q = 2 if typ == "Q" else 1
                assert dim == intro_dims(n, p, "S", which) * q
                assert dim == intro_dims(n, p, "A", which) * 2


def test_types_follow_a_p():
    for p in (3, 5, 7):
        for n in range(5, 21):
            assert basic_table(n, p)[1] == supermodule_type(alpha_n(n, p), p)
            assert second_basic_table(n, p)[1] == supermodule_type(beta_n(n, p), p)


def test_schur_dim_anchors():
    assert schur_char0_dim((4, 3, 2, 1)) == 96
    assert schur_char0_dim((3, 2, 1)) == 8
    assert char0_module_dim((3, 2, 1)) == 4
    assert char0_module_dim((4, 3, 2, 1)) == 96
    assert schur_char0_dim((4, 2, 1)) == 28


def test_schur_dim_matches_tables_above_n():
    """With p > n nothing reduces, so the tables must agree with the
    characteristic-0 dimensions of (n) and (n-1, 1)."""

    def next_prime(m):
        q = m + 1
        while any(q % d == 0 for d in range(2, q)):
            q += 1
        return q

    for n in range(5, 13):
        p = next_prime(n)
        assert basic_table(n, p)[0] == schur_char0_dim((n,))
        assert second_basic_table(n, p)[0] == schur_char0_dim((n - 1, 1))


def test_m_n_examples():
    assert m_n(10, 3) == 3
    assert m_n(5, 5) == 1
    assert m_n(1, 7) == 0


def test_trp_examples():
    assert set(trp_set(6, 3)) == {(3, 2, 1), (4, 2)}
    tr7 = set(trp_set(7, 5))
    assert (5, 2) in tr7 and (4, 2, 1) in tr7
    assert tr7 == {(5, 2), (6, 1), (4, 3), (4, 2, 1)}
    for p in (3, 5, 7):
        for n in range(1, 21):
            tr = trp_set(n, p)
            assert all(is_restricted_p_strict(lam, p) and size(lam) == n for lam in tr)
            assert len(tr) == m_n(n, p) + 1, (n, p)


def test_mu_examples():
    assert mu_na(16, 5, 3) == (6, 5, 3, 2)
    for p in (3, 5, 7):
        for n in range(5, 18):
            assert mu_na(n, 0, p) == alpha_n(n, p)
            assert mu_na(n, 1, p) == beta_n(n, p)
    with pytest.raises(ValueError):
        mu_na(12, 5, 5)  # 2a = 10 > 12 - 1 - 5


def test_mu_values_live_in_trp():
    for p in (3, 5):
        for n in range(p + 1, 18):
            tr = set(trp_set(n, p))
            for a in range(0, m_n(n, p) + 1):
                try:
                    mu = mu_na(n, a, p)
                except ValueError:
                    continue
                assert mu in tr, (n, a, p)


def test_module_label_validation():
    lab = ModuleLabel("S", (4, 3, 2, 1), "0", 7)
    assert str(lab) == "D[(4,3,2,1);0]@p=7"
    assert parse_label("D[(4,3,2,1);0]@p=7", 3) == lab
    assert parse_label("E[(4,2);+]", 3) == ModuleLabel("A", (4, 2), "+", 3)
    with pytest.raises(ValueError):
        ModuleLabel("S", (4, 3, 2, 1), "+", 7)  # a_p = 0 forces eps = 0
    with pytest.raises(ValueError):
        ModuleLabel("A", (4, 3, 2, 1), "0", 7)  # flipped rule on the alternating side


def test_labels_for_counts():
    assert len(labels_for((4, 3, 2, 1), 7, "S")) == 1
    assert len(labels_for((4, 3, 2, 1), 7, "A")) == 2
    assert len(labels_for((3, 2, 1), 7, "S")) == 2
