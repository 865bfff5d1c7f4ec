"""Catalog entries: instantiation, constraints, witness spot checks."""

from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from aalg import linalg
from aalg.catalog import (CatalogError, ENTRIES, LCB_LIST, LCK_LIST, LCHK_LIST,
                          instantiate, verify_entry, witness_structures)
from aalg.forms import KForm, wedge
from aalg.almost_abelian import is_kahler_data, is_lck_data


def test_registry_contents():
    assert set(LCK_LIST) == {"g1", "g2", "g3", "g4", "g5", "g6"}
    assert len(LCB_LIST) == 19  # l1..l17 plus two nilpotent entries
    assert len(LCHK_LIST) == 12  # 2 for m=1, 4 for m=2, 6 for m=3
    for extra in ("h3R", "aff2+2R", "b2", "s4", "s6", "s8"):
        assert extra in ENTRIES


def test_lazy_catalog_attributes():
    """ENTRIES and LCHK_LIST are built once, from one parse of the manifest,
    and keep the manifest's order; other names are still missing."""
    import aalg.catalog
    assert aalg.catalog.ENTRIES is ENTRIES is aalg.catalog._entries()
    assert aalg.catalog.LCHK_LIST is LCHK_LIST
    assert aalg.catalog._entries.cache_info().misses == 1
    assert LCHK_LIST == ("lchk-m1-hk", "lchk-m1",
                         "lchk-m2-hk1", "lchk-m2-hk2", "lchk-m2-1", "lchk-m2-2",
                         "lchk-m3-hk1", "lchk-m3-hk2", "lchk-m3-hk3",
                         "lchk-m3-1", "lchk-m3-2", "lchk-m3-3")
    with pytest.raises(AttributeError, match="has no attribute 'MISSING'"):
        aalg.catalog.MISSING


def test_instantiate_g1_constants():
    L = instantiate(ENTRIES["g1"], {"p": F(2)})
    ad = L.ad_basis(5)
    assert [ad[i][i] for i in range(5)] == [F(1), F(2), F(2), F(2), F(2)]


def test_instantiate_l6_no_params():
    L = instantiate(ENTRIES["l6"], {})
    ad = L.ad_basis(5)
    assert [ad[i][i] for i in range(5)] == [F(1), F(1), F(0), F(0), F(0)]


def test_constraint_violation():
    with pytest.raises(CatalogError) as err:
        instantiate(ENTRIES["g1"], {"p": F(0)})
    assert err.value.code == "CONSTRAINT_VIOLATION"
    with pytest.raises(CatalogError):
        instantiate(ENTRIES["l1"], {"p": F(1), "q": F(1)})  # p = q excluded
    with pytest.raises(CatalogError):
        instantiate(ENTRIES["g1"], {})  # unbound


def test_float_parameters_rejected():
    """Floats never enter an exact entry's structure constants."""
    with pytest.raises(TypeError):
        instantiate(ENTRIES["g1"], {"p": 0.5})


def test_unimodular_loci():
    assert instantiate(ENTRIES["g1"], {"p": F(-1, 4)}).is_unimodular()
    assert not instantiate(ENTRIES["g1"], {"p": F(1)}).is_unimodular()
    assert instantiate(ENTRIES["g2"], {"p": F(-1), "q": F(1, 4)}).is_unimodular()
    assert instantiate(ENTRIES["l1"], {"p": F(1), "q": F(-3, 2)}).is_unimodular()
    assert instantiate(ENTRIES["l14"], {"p": F(0)}).is_unimodular()
    assert not instantiate(ENTRIES["l14"], {"p": F(1)}).is_unimodular()
    assert instantiate(ENTRIES["n1"], {}).is_unimodular()
    assert instantiate(ENTRIES["s6"], {"a": F(1), "c": F(1)}).is_unimodular()
    assert not instantiate(ENTRIES["b2"], {}).is_unimodular()


# small rationals, closed under negation, so that forms like p - q and p + q vanish
POOL = tuple(F(x) for x in ("-2", "-3/2", "-1", "-1/2", "-1/4", "0", "1/4", "1/2", "1", "3/2", "2"))
PARAMETRISED = tuple(name for name, entry in ENTRIES.items() if entry.params)


@st.composite
def bindings(draw):
    """An entry and a binding from the pool; for an entry whose locus is a
    form, half of the bindings are moved onto it by its last parameter."""
    entry = ENTRIES[draw(st.sampled_from(PARAMETRISED))]
    params = {p: draw(st.sampled_from(POOL)) for p in entry.params}
    locus = entry.unimodular
    if not isinstance(locus, bool) and draw(st.booleans()):
        c, p = next((c, p) for c, p in reversed(locus.terms) if p is not None)
        params[p] -= locus(params) / c
    return entry, params


@settings(max_examples=300, deadline=None)
@given(bindings())
def test_constraints_and_loci_on_every_binding(drawn):
    """A binding that zeroes a nonzero form is refused, naming the first
    such form; any other binding is unimodular exactly on the locus the
    manifest claims."""
    entry, params = drawn
    zeroed = [form for form in entry.nonzero if form(params) == 0]
    if zeroed:
        with pytest.raises(CatalogError) as err:
            instantiate(entry, params)
        assert err.value.code == "CONSTRAINT_VIOLATION"
        assert f"violate {zeroed[0]} != 0" in str(err.value)
        return
    locus = entry.unimodular
    want = locus if isinstance(locus, bool) else locus(params) == 0
    assert instantiate(entry, params).is_unimodular() == want


def test_lck_witnesses_decompose_lambda_u():
    """For the LCK list, A = lambda Id + U with U skew and lambda = trA/4."""
    for name in LCK_LIST:
        entry = ENTRIES[name]
        for params in entry.samples:
            for label, H, d, claims in witness_structures(entry, instantiate(entry, params)):
                m = d.m
                lam = linalg.trace(d.A_matrix) / m
                u = linalg.mat_sub(d.A_matrix,
                                   linalg.mat_scale(lam, linalg.idmat(m)))
                assert linalg.mat_eq(linalg.transpose(u), linalg.mat_scale(-1, u))
                assert lam != 0  # non-Kahler: A not skew
                assert is_lck_data(d) and not is_kahler_data(d)


def test_lcb_witnesses_not_balanced():
    for name in LCB_LIST:
        entry = ENTRIES[name]
        L = instantiate(entry, entry.samples[0])
        for label, H, d, claims in witness_structures(entry, L):
            assert H.is_lcb_direct()
            assert not H.is_balanced_direct()


def test_aff2_kahler_and_lck_same_j():
    """Kahler g and non-Kahler LCK g' compatible with one J."""
    ws = witness_structures(ENTRIES["aff2+2R"], instantiate(ENTRIES["aff2+2R"], {}))
    assert [label for label, *_ in ws] == ["kahler", "lck-nonkahler"]
    (_, Hk, dk, _), (_, Hp, dp, _) = ws
    assert linalg.mat_eq(Hk.J.matrix, Hp.J.matrix)
    assert Hk.is_kahler_direct()
    assert Hp.is_lck_direct() and not Hp.is_kahler_direct()
    # d omega' = (f2 + f4) ^ omega' exactly
    theta = KForm(1, 4, {(1,): F(1), (3,): F(1)})
    assert Hp.lee_form() == theta
    assert Hp.domega() == wedge(theta, Hp.omega)


def test_b2_two_witnesses():
    ws = witness_structures(ENTRIES["b2"], instantiate(ENTRIES["b2"], {}))
    (_, Hb, db, _), (_, Hp, dp, _) = ws
    assert Hb.is_balanced_direct() and not Hb.is_kahler_direct()
    assert Hp.is_lcb_direct() and not Hp.is_balanced_direct() and not Hp.is_lck_direct()
    assert Hp.lee_form() == KForm(1, 6, {(4,): F(1), (5,): F(1)})


def test_s2n_witnesses_skt_and_lcb():
    for name in ("s4", "s6", "s8"):
        entry = ENTRIES[name]
        for params in entry.samples:
            for label, H, d, claims in witness_structures(entry, instantiate(entry, params)):
                assert H.is_skt_direct() and H.is_lcb_direct()
                assert all(x == 0 for x in d.v)


def test_verify_entry_reports_not_checked():
    rep = verify_entry(ENTRIES["g1"], ENTRIES["g1"].samples)
    assert rep["ok"]
    assert any("no-Kahler" in s for s in rep["not_checked"])


@pytest.mark.parametrize("name, pairs", [
    ("l7", ((1, 2), (3, 4), (5, 6))),   # not g-orthogonal for l7's metric
    ("g4", ((1, 6), (2, 3), (4, 5))),   # not integrable on g4
], ids=["l7", "g4"])
def test_wrong_document_j_fails_verification(name, pairs):
    """The witness reads J from the document: a wrong pairing there makes
    the entry fail verification instead of passing unchecked."""
    entry = ENTRIES[name]
    bad = replace(entry, document=replace(entry.document, j_spec=("pairs", pairs)))
    rep = verify_entry(bad, bad.samples[:1])
    assert not rep["ok"]
    assert any("witness build failed" in f for f in rep["failures"])


def test_lchk_entry_admissibility():
    from aalg.catalog import _restrict_last
    from aalg.lchk import lchk_admissible
    L = instantiate(ENTRIES["lchk-m2-2"], {"p": F(1, 2)})
    verdict = lchk_admissible(_restrict_last(L))
    assert verdict.admissible and not verdict.hyperkahler
    L = instantiate(ENTRIES["lchk-m3-hk3"], {"p": F(2)})
    verdict = lchk_admissible(_restrict_last(L))
    assert verdict.admissible and verdict.hyperkahler


def test_verify_entry_builds_each_sample_once(monkeypatch):
    """verify_entry hands the algebra it built to witness_structures: one
    to_algebra per sample, and no ideal search for an entry whose only
    witness is an LCHK claim."""
    from aalg import catalog, lie
    calls = {"to_algebra": 0, "find_codim1_abelian_ideal": 0}

    def count(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    count(catalog, "to_algebra")
    count(lie, "find_codim1_abelian_ideal")
    g1 = ENTRIES["g1"]
    assert verify_entry(g1, g1.samples)["ok"]
    assert calls["to_algebra"] == len(g1.samples) + len(catalog._off_locus_samples(g1))
    lchk = ENTRIES["lchk-m3-hk1"]
    calls["find_codim1_abelian_ideal"] = 0
    assert verify_entry(lchk, lchk.samples[:1])["ok"]
    assert calls["find_codim1_abelian_ideal"] == 0


def test_verify_entry_reports_package_errors_and_raises_programming_errors(monkeypatch):
    """A ValueError the package raises (here a DataError from extract_data)
    becomes a failure line; a TypeError is a bug and propagates."""
    from aalg import catalog
    from aalg.almost_abelian import DataError

    def raising(exc):
        def extract_data(H, ideal):
            raise exc
        return extract_data

    g1 = ENTRIES["g1"]
    monkeypatch.setattr(catalog, "extract_data", raising(DataError("J_NOT_COMPATIBLE", "x")))
    rep = verify_entry(g1, g1.samples[:1])
    assert not rep["ok"]
    assert any("witness build failed: J_NOT_COMPATIBLE" in f for f in rep["failures"])
    monkeypatch.setattr(catalog, "extract_data", raising(TypeError("a bug")))
    with pytest.raises(TypeError, match="a bug"):
        verify_entry(g1, g1.samples[:1])
