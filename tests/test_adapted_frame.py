"""The adapted frame from a few products, against the Fraction loops it
replaced.

``ref_extract_data``, ``ref_metric`` and ``ref_abelian_ideal_defect`` are
the entry-by-entry versions: the coframe is the inverse of the frame
matrix, each image is a bracket and a matrix-vector product, g is an n^3
triple sum, and each pair of ideal vectors is bracketed.  On every catalog
sample, on s_4 .. s_16 and on random data of every shape moved by a random
shear (searched and declared ideals), the exact results must be equal in
every field, repr included, with coframe . frame = Id; float copies must
agree within 1e-12 of each field's scale; rejections must carry the same
DataError code.  Then the products extraction makes are pinned, and the
facts the construction fixes are checked on the same kinds of input: J_1
is the standard pairing, exact and float, and skt_to_lcb's one solve
splits v as the Gram projection did.
"""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from aalg import linalg
from aalg.almost_abelian import (DataError, HermitianData, adapted_J_matrix, build_algebra,
                                 extract_data, is_skt_data, skt_to_lcb, standard_j1)
from aalg.catalog import ENTRIES, _s2n_entry, entry_document, instantiate
from aalg.documents import to_complex_structure, to_ideal, to_metric
from aalg.hermitian import (ComplexStructure, HermitianError, HermitianStructure, Metric,
                            nijenhuis)
from aalg.lie import LieAlgebra, LieAlgebraError, abelian_ideal, abelian_ideal_defect
from aalg.scalars import FLOAT, is_zero, one, sqrt_scalar, zero

from conftest import ALL_SHAPES, adjoint, random_data, random_shear, transported


# -- references: the Fraction loops -----------------------------------------------

def ref_abelian_ideal_defect(L, vectors):
    vecs = [list(v) for v in vectors]
    for a in range(len(vecs)):
        for b in range(a + 1, len(vecs)):
            if not linalg.is_zero_vector(linalg.mat_vec(L.ad(vecs[a]), vecs[b])):
                return "not abelian"
    kernel = linalg.nullspace(vecs) if vecs else linalg.idmat(L.dim, L.kind)
    if len(vecs) != L.dim - 1 or len(kernel) != 1:
        return "not a hyperplane"
    xi = kernel[0]
    if any(not is_zero(linalg.dot(xi, vec)) for vec in L.brackets.values()):
        return "not an ideal"
    return None


def gdot(g, u, v):
    """Inner product u^t G v."""
    return linalg.dot(u, linalg.mat_vec(g, v))


def ref_metric(d):
    w = (d.d_outer,) + d.d_inner + (d.d_outer,)
    c = d.coframe
    n2 = len(w)
    return Metric.from_matrix([[sum(w[t] * c[t][i] * c[t][j] for t in range(n2))
                                for j in range(n2)] for i in range(n2)])


def ref_extract_data(L, ideal, J, g):
    n2 = L.dim
    kind = L.kind
    try:
        vecs = [list(v) for v in abelian_ideal(L, ideal)]
    except LieAlgebraError as exc:
        raise DataError(exc.code, exc.message) from None
    if nijenhuis(J, L):
        raise DataError("J_NOT_COMPATIBLE", "J is not integrable")
    gm = g.matrix
    jm = J.matrix
    perp = linalg.nullspace([linalg.mat_vec(gm, v) for v in vecs])
    if len(perp) != 1:
        raise DataError("IDEAL_NOT_ABELIAN", "orthogonal complement is not a line")
    b2n = perp[0]
    for x in b2n:
        if not is_zero(x):
            if x < 0:
                b2n = [-t for t in b2n]
            break
    b1 = [-x for x in linalg.mat_vec(jm, b2n)]
    d_outer = gdot(gm, b2n, b2n)
    scale = sqrt_scalar(d_outer)
    if scale is not None and not is_zero(scale - 1):
        b2n = [x / scale for x in b2n]
        b1 = [x / scale for x in b1]
        d_outer = one(kind)
    xi = linalg.mat_vec(gm, perp[0])
    xiJ = linalg.mat_vec(linalg.transpose(jm), xi)
    n1_basis = linalg.nullspace([xi, xiJ])
    if len(n1_basis) != n2 - 2:
        raise DataError("J_NOT_COMPATIBLE", "n intersect Jn has wrong dimension")
    pairs = []
    used = []

    def project_out(x):
        out = list(x)
        for w, gw, dw in used:
            c = linalg.dot(out, gw) / dw
            out = linalg.vec_sub(out, [c * x for x in w])
        return out

    for cand in n1_basis:
        if len(used) == n2 - 2:
            break
        u = project_out(cand)
        if linalg.is_zero_vector(u):
            continue
        du = gdot(gm, u, u)
        s = sqrt_scalar(du)
        if s is not None and not is_zero(s - 1):
            u = [x / s for x in u]
            du = one(kind)
        ju = linalg.mat_vec(jm, u)
        pairs.append((u, ju, du))
        used += [(w, linalg.mat_vec(gm, w), du) for w in (u, ju)]
    if 2 * len(pairs) != n2 - 2:
        raise DataError("J_NOT_COMPATIBLE", "could not build a J-paired frame")
    frame = [b1] + [w for (u, ju, _) in pairs for w in (u, ju)] + [b2n]
    d_inner = [d for (_, _, d) in pairs for _ in (0, 1)]
    m = n2 - 2
    full = linalg.transpose(frame)
    full_inv = linalg.inverse(full)
    img = [linalg.mat_vec(full_inv, linalg.mat_vec(L.ad(b2n), w)) for w in frame[:-1]]
    a = img[0][0]
    v = [img[0][1 + t] for t in range(m)]
    if not is_zero(img[0][n2 - 1]):
        raise DataError("IDEAL_NOT_ABELIAN", "[e_2n, e_1] leaves the ideal")
    A = [[img[1 + s][1 + t] for s in range(m)] for t in range(m)]
    for s in range(m):
        if not (is_zero(img[1 + s][0]) and is_zero(img[1 + s][n2 - 1])):
            raise DataError("J_NOT_COMPATIBLE", "ad does not preserve the block form")
    j1 = linalg.zeros(m, m, kind)
    jcols = [linalg.mat_vec(full_inv, linalg.mat_vec(jm, frame[1 + s])) for s in range(m)]
    for s in range(m):
        if not (is_zero(jcols[s][0]) and is_zero(jcols[s][n2 - 1])):
            raise DataError("J_NOT_COMPATIBLE", "J does not preserve n_1")
        for t in range(m):
            j1[t][s] = jcols[s][1 + t]
    if not linalg.mat_eq(linalg.mat_mul(A, j1), linalg.mat_mul(j1, A)):
        raise DataError("J_NOT_COMPATIBLE", "A does not commute with J1")
    return HermitianData(
        n=n2 // 2, a=a, v=tuple(v), A=tuple(tuple(row) for row in A),
        J1=tuple(tuple(row) for row in j1), frame=tuple(tuple(w) for w in frame),
        coframe=tuple(tuple(row) for row in full_inv), d_outer=d_outer,
        d_inner=tuple(d_inner), kind=kind)


# -- comparison -------------------------------------------------------------------

FIELDS = ("n", "a", "v", "A", "J1", "frame", "coframe", "d_outer", "d_inner", "kind")


def extract(L, ideal, J, g):
    return extract_data(HermitianStructure(L, J, g), ideal)


def outcome(extract, L, ideal, J, g):
    try:
        return extract(L, ideal, J, g)
    except DataError as exc:
        return exc.code


def flat(x):
    return [y for z in x for y in flat(z)] if isinstance(x, tuple) else [x]


def assert_same(L, ideal, J, g):
    """Exact: every field equal, repr included, coframe . frame = Id and
    the same metric; a float copy within 1e-12 of each field's scale;
    a rejection raises the same code."""
    got, want = outcome(extract, L, ideal, J, g), outcome(ref_extract_data, L, ideal, J, g)
    if isinstance(want, str):
        assert got == want
        return
    for name in FIELDS:
        assert repr(getattr(got, name)) == repr(getattr(want, name)), name
    n2 = L.dim
    assert linalg.mat_mul(got.coframe, linalg.transpose(got.frame)) == linalg.idmat(n2)
    assert got.metric() == ref_metric(got) == g
    assert repr(got.metric()) == repr(ref_metric(want))
    fl = [float_copy(L), float_ideal(ideal),
          ComplexStructure.from_matrix([[float(x) for x in row] for row in J.matrix]),
          Metric.from_matrix([[float(x) for x in row] for row in g.matrix])]
    got_f, want_f = extract(*fl), ref_extract_data(*fl)
    for name in FIELDS[1:-1]:
        xs, ys = flat(getattr(got_f, name)), flat(getattr(want_f, name))
        scale = max([1.0] + [abs(y) for y in ys])
        assert all(abs(x - y) <= 1e-12 * scale for x, y in zip(xs, ys, strict=True)), name
    mf, rf = got_f.metric().g, ref_metric(got_f).g
    scale = max(abs(y) for y in flat(rf))
    assert all(abs(x - y) <= 1e-12 * scale for x, y in zip(flat(mf), flat(rf)))


def float_copy(L):
    return LieAlgebra(L.dim, {k: [float(x) for x in v] for k, v in L.brackets.items()},
                      kind=FLOAT)


def float_ideal(ideal):
    if ideal is None:
        return None
    return tuple(tuple(float(x) for x in v) for v in ideal)


def assert_same_defects(L, vectors):
    fl = float_copy(L)
    fvecs = [[float(x) for x in v] for v in vectors]
    assert abelian_ideal_defect(L, vectors) == ref_abelian_ideal_defect(L, vectors)
    assert abelian_ideal_defect(fl, fvecs) == ref_abelian_ideal_defect(fl, fvecs)


# -- the cases --------------------------------------------------------------------

CATALOG = [(name, i) for name, entry in ENTRIES.items() if entry.document.j_spec is not None
           for i in range(len(entry.samples))]


@pytest.mark.parametrize("name,sample", CATALOG)
def test_catalog_samples(name, sample):
    entry = ENTRIES[name]
    L = instantiate(entry, entry.samples[sample])
    J = to_complex_structure(entry.document)
    ideal = to_ideal(entry.document)
    metrics = [to_metric(entry.document)] + [Metric.from_matrix(w.metric)
                                             for w in entry.witnesses if w.metric]
    for g in metrics:
        if g is not None:
            assert_same(L, ideal, J, g)
    if ideal is not None:
        assert_same_defects(L, ideal)


@pytest.mark.parametrize("n", range(2, 9))
def test_s2n(n):
    entry = _s2n_entry(n)
    for params in entry.samples:
        doc = entry_document(entry, params)
        L = instantiate(entry, params)
        assert_same(L, None, to_complex_structure(doc), to_metric(doc))
        assert_same_defects(L, abelian_ideal(L, None))


def declared_ideal(s):
    """span(e_1 .. e_{2n-1}) of the adapted basis, in the basis of columns
    of s: the first 2n-1 columns of s^-1."""
    cols = linalg.transpose(linalg.inverse(s))[:-1]
    return tuple(map(tuple, cols))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32), st.integers(2, 6), st.sampled_from(ALL_SHAPES), st.booleans())
def test_sheared_random_data(seed, n, shape, declare):
    rng = random.Random(seed)
    d = random_data(rng, n, shape)
    s = random_shear(rng, 2 * n)
    L, J, g = transported(*build_algebra(d.a, list(d.v), d.A_matrix, d.J1_matrix), s)
    ideal = declared_ideal(s) if declare else None
    assert_same(L, ideal, J, g)
    vecs = [list(v) for v in declared_ideal(s)]
    assert_same_defects(L, vecs)
    # a transversal in place of one vector, a repeated vector, one too few
    k = rng.randrange(len(vecs))
    moved = vecs[:k] + [list(linalg.transpose(linalg.inverse(s))[-1])] + vecs[k + 1:]
    for bad in (moved, vecs[:-1] + vecs[:1], vecs[1:]):
        assert_same_defects(L, bad)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32), st.integers(2, 5))
def test_rejections_carry_the_same_code(seed, n):
    """A non-integrable J (a random pairing) and a declared subspace that is
    not an abelian ideal are rejected with the reference's codes."""
    rng = random.Random(seed)
    d = random_data(rng, n, rng.choice(ALL_SHAPES))
    L, J, g = build_algebra(d.a, list(d.v), d.A_matrix, d.J1_matrix)
    idx = list(range(2 * n))
    rng.shuffle(idx)
    Jp = ComplexStructure.from_pairs(2 * n, list(zip(idx[::2], idx[1::2])))
    assert_same(L, None, Jp, g)
    e = linalg.idmat(2 * n)
    bad = tuple(tuple(e[i]) for i in range(1, 2 * n))
    assert outcome(extract, L, bad, J, g) == outcome(ref_extract_data, L, bad, J, g)


def test_an_incompatible_metric_is_rejected():
    """The coframe is read off a g-orthogonal frame, so g must be
    J-invariant: the structure rejects a metric that is not as
    J_NOT_COMPATIBLE, before any extraction."""
    d = random_data(random.Random(5), 3, "generic")
    L, J, _ = build_algebra(d.a, list(d.v), d.A_matrix, d.J1_matrix)
    g = Metric.from_matrix([[F(2) if i == j == 0 else F(int(i == j)) for j in range(6)]
                            for i in range(6)])
    with pytest.raises(HermitianError) as err:
        HermitianStructure(L, J, g)
    assert err.value.code == "J_NOT_COMPATIBLE"
    assert str(err.value) == "J_NOT_COMPATIBLE: g(J., J.) != g"


def test_s12_extraction_makes_a_few_products(monkeypatch):
    """On s_12, with the ideal cached by the reference run and the
    structure (its cleared G, J and J^t G, and the integrability of J)
    built before, extraction takes no inverse and no ad_x, reads
    neither g nor J, and clears operands to integers 11 times: once for
    the ideal, once per product with G, J and G J (b_2n and the five
    pairs), twice for the two null spaces, once for C and F (ad_{b_2n} is
    b_2n times the algebra's cleared table), and once for [A, J_1].  The
    reference clears them 71 times: each image is a bracket ad_{b_2n} w and
    a matrix-vector product."""
    doc = entry_document(_s2n_entry(6), {"a": F(-2), "c": F(1, 2)})
    L = instantiate(_s2n_entry(6), {"a": F(-2), "c": F(1, 2)})
    J, g = to_complex_structure(doc), to_metric(doc)
    want = ref_extract_data(L, None, J, g)
    H = HermitianStructure(L, J, g)
    assert H.integrable
    calls = {"inverse": 0, "ad": 0, "_numerators": 0}

    def count(owner, name):
        real = getattr(owner, name)

        def counted(*args):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(owner, name, counted)

    count(linalg, "inverse")
    count(linalg, "_numerators")
    count(LieAlgebra, "ad")
    read = []
    for cls in (Metric, ComplexStructure):
        monkeypatch.setattr(cls, "matrix", property(
            lambda self, real=cls.matrix.fget: read.append(self) or real(self)))
    assert extract_data(H, None) == want
    assert calls == {"inverse": 0, "ad": 0, "_numerators": 11} and read == []


# -- facts read off the construction: J_1 and the SKT split -------------------------

def ref_vprime(d):
    """The g-orthogonal projection of v onto ker (A - a)^*, through the Gram
    matrix of a kernel basis: the reference for skt_to_lcb's one solve."""
    s = [[d.d_inner[i] if i == j else zero(d.kind) for j in range(d.m)] for i in range(d.m)]
    kernel = linalg.nullspace(linalg.mat_shift(adjoint(d), -d.a))
    if not kernel:
        return [zero(d.kind)] * d.m
    gram = [[gdot(s, u, w) for w in kernel] for u in kernel]
    coeffs = linalg.mat_vec(linalg.inverse(gram), [gdot(s, u, list(d.v)) for u in kernel])
    return linalg.mat_vec(linalg.transpose(kernel), coeffs)


def construction_cases():
    """(label, L, ideal, J, g) of every catalog sample with a J (each of its
    metrics) and of sheared random data of every shape at dims 4 .. 12,
    with searched and declared ideals."""
    out = []
    for name, sample in CATALOG:
        entry = ENTRIES[name]
        L = instantiate(entry, entry.samples[sample])
        metrics = [to_metric(entry.document)] + [Metric.from_matrix(w.metric)
                                                 for w in entry.witnesses if w.metric]
        out += [(f"{name}/{sample}", L, to_ideal(entry.document),
                 to_complex_structure(entry.document), g) for g in metrics if g is not None]
    for n in range(2, 7):
        for k, shape in enumerate(ALL_SHAPES):
            rng = random.Random(100 * n + k)
            d = random_data(rng, n, shape)
            s = random_shear(rng, 2 * n)
            L, J, g = transported(*build_algebra(d.a, list(d.v), d.A_matrix, d.J1_matrix), s)
            out += [(f"dim{2 * n}-{shape}", L, ideal, J, g)
                    for ideal in (None, declared_ideal(s))]
    return out


def float_case(L, ideal, J, g):
    return (float_copy(L), float_ideal(ideal),
            ComplexStructure.from_matrix([[float(x) for x in row] for row in J.matrix]),
            Metric.from_matrix([[float(x) for x in row] for row in g.matrix]))


@pytest.fixture(scope="module")
def extracted():
    """(label, exact data, float data, J) of every construction case."""
    return [(label, extract(L, ideal, J, g), extract(*float_case(L, ideal, J, g)), J)
            for label, L, ideal, J, g in construction_cases()]


def test_j1_is_the_standard_pairing(extracted):
    """The frame is built in (u, Ju) pairs, so J_1 is standard_j1 entry for
    entry, on exact and float inputs alike; on the exact ones C J F, the
    matrix of J in the frame, says the same."""
    for label, d, df, J in extracted:
        assert repr(d.J1_matrix) == repr(standard_j1(d.m)), label
        assert repr(df.J1_matrix) == repr(standard_j1(df.m, FLOAT)), label
        cjf = linalg.mat_mul(d.coframe, linalg.mat_mul(J.matrix, linalg.transpose(d.frame)))
        assert [row[1:-1] for row in cjf[1:-1]] == standard_j1(d.m), label
        assert adapted_J_matrix(d) == J.matrix, label


def split(d, out):
    """(x, v') of skt_to_lcb: x_t is the coefficient of u_t in b_1 - b_1'."""
    shift = linalg.vec_sub(d.frame[0], out.frame[0])
    return [linalg.dot(d.coframe[1 + t], shift) for t in range(d.m)], list(out.v)


def test_skt_split_is_the_projection(extracted):
    """On every SKT case skt_to_lcb splits v = (A - a)x + v' with
    (A - a)^* v' = 0: v' is the Gram projection and x the particular
    solution of (A - a)x = v - v' with its free coordinates at 0, exactly;
    float copies agree with the float Gram projection within 1e-12."""
    skt = [(label, d, df) for label, d, df, _ in extracted if is_skt_data(d)]
    assert len(skt) >= 20
    for label, d, df in skt:
        x, vprime = split(d, skt_to_lcb(d))
        assert repr(vprime) == repr(ref_vprime(d)), label
        shifted = linalg.mat_shift(d.A_matrix, -d.a)
        assert linalg.is_zero_vector(linalg.mat_vec(linalg.mat_shift(adjoint(d), -d.a),
                                                    vprime)), label
        assert linalg.mat_vec(shifted, x) == linalg.vec_sub(list(d.v), vprime), label
        assert x == linalg.solve_general(shifted, linalg.vec_sub(list(d.v), vprime)), label
        assert is_skt_data(df), label
        xf, vf = split(df, skt_to_lcb(df))
        scale = max([1.0] + [abs(y) for y in df.v])
        assert all(abs(p - q) <= 1e-12 * scale
                   for p, q in zip(vf, ref_vprime(df), strict=True)), label
        residual = linalg.vec_sub(linalg.mat_vec(linalg.mat_shift(df.A_matrix, -df.a), xf),
                                  linalg.vec_sub(list(df.v), vf))
        assert all(abs(r) <= 1e-12 * scale for r in residual), label
