"""The (a, v, A) data layer on its integer view, against the Fraction
bodies it replaced.

``HermitianData.cleared`` holds a, v, A, J_1, the frame norms, the
numerators of A* and the coframe as integers, once per data; the
predicates, the closed Lee and Bismut-Ricci forms, |v|^2 and the SKT -> LCB
split read it.  The ``ref_*`` functions below are the former bodies: A*
built entry by entry as Fractions, the closed forms as sums of ``wedge``
and ``KForm.scale``, the split system from Fraction rows and the
commutation and J^2 = -Id tests from ``mat_mul``.  On every shape of
random data at dims 2 .. 14, on sheared data extracted in a scaled
metric (frame norms that are not rational squares) and on float copies of
both, the outputs must be the same objects in repr: equal and of the same
type for exact data, and bit for bit, signed zeros included, for floats.
Then the Fraction operations the view leaves are pinned.
"""

import random
from fractions import Fraction as F

import pytest

from aalg import linalg
from aalg.almost_abelian import (DATA_PREDICATES, DataError, HermitianData, _adapted_j,
                                 build_algebra, data_from_parts, extract_data,
                                 lee_form_closed, rho_b_closed, skt_to_lcb, standard_j1)
from aalg.forms import KForm, wedge
from aalg.hermitian import ComplexStructure, HermitianError, HermitianStructure, Metric
from aalg.lie import LieAlgebra
from aalg.scalars import EXACT, FLOAT, coerce, is_zero, one, zero

from conftest import ALL_SHAPES, adjoint, random_data, random_shear, transported


# -- references: the Fraction bodies ---------------------------------------------

def ref_is_kahler(d):
    if not linalg.is_zero_vector(list(d.v)):
        return False
    return linalg.mat_eq(adjoint(d), linalg.mat_scale(-1, d.A_matrix))


def ref_is_lck(d):
    if d.n <= 2 and linalg.is_zero_matrix(d.A_matrix):
        return True
    if not linalg.is_zero_vector(list(d.v)):
        return False
    lam = linalg.trace(d.A_matrix) / d.m
    u = linalg.mat_shift(d.A_matrix, -lam)
    ustar = linalg.mat_shift(adjoint(d), -lam)
    return linalg.mat_eq(ustar, linalg.mat_scale(-1, u))


def ref_is_balanced(d):
    return linalg.is_zero_vector(list(d.v)) and is_zero(linalg.trace(d.A_matrix))


def ref_is_skt(d):
    am = d.A_matrix
    astar = adjoint(d)
    if not linalg.is_zero_matrix(linalg.mat_sub(linalg.mat_mul(am, astar),
                                                linalg.mat_mul(astar, am))):
        return False
    half = coerce(1, d.kind) / 2
    s = linalg.mat_scale(half, linalg.mat_add(am, astar))
    return linalg.is_zero_matrix(linalg.mat_mul(s, linalg.mat_shift(s, d.a * half)))


def ref_is_lcb(d):
    return linalg.is_zero_vector(linalg.mat_vec(adjoint(d), list(d.v)))


REF_PREDICATES = {"kahler": ref_is_kahler, "lck": ref_is_lck, "balanced": ref_is_balanced,
                  "skt": ref_is_skt, "lcb": ref_is_lcb}


def ref_v_norm_sq(d):
    return sum(d.d_inner[i] * d.v[i] * d.v[i] for i in range(d.m))


def ref_covector(d, x, last):
    comps = ([zero(d.kind)] + [d.d_inner[t] * x[t] / d.d_outer for t in range(d.m)]
             + [last])
    return linalg.mat_vec(linalg.transpose(d.coframe), comps)


def ref_lee_form_closed(d):
    jv = linalg.mat_vec(d.J1_matrix, list(d.v))
    return KForm.from_vector(ref_covector(d, jv, -linalg.trace(d.A_matrix)))


def ref_rho_b_closed(d):
    b_first = KForm.from_vector(d.coframe[0])
    b_last = KForm.from_vector(d.coframe[-1])
    half = coerce(1, d.kind) / 2
    coeff = -(d.a * d.a - half * d.a * linalg.trace(d.A_matrix)
              + ref_v_norm_sq(d) / d.d_outer)
    out = wedge(b_first, b_last).scale(coeff)
    atv = linalg.mat_vec(adjoint(d), list(d.v))
    lowered = ref_covector(d, atv, zero(d.kind))
    return out - wedge(KForm.from_vector(lowered), b_last)


def ref_skt_to_lcb(d):
    if not ref_is_skt(d):
        raise DataError("PRECONDITION", "input data is not SKT")
    m = d.m
    kind = d.kind
    z = [zero(kind)] * m
    system = ([row + e for row, e in zip(linalg.mat_shift(d.A_matrix, -d.a),
                                         linalg.idmat(m, kind))]
              + [z + row for row in linalg.mat_shift(adjoint(d), -d.a)])
    split = linalg.solve_general(system, list(d.v) + z)
    x, vprime = split[:m], split[m:]
    jx = linalg.mat_vec(d.J1_matrix, x)
    inner = d.frame[1:-1]
    lift = linalg.transpose(inner)
    frame = ((tuple(linalg.vec_sub(d.frame[0], linalg.mat_vec(lift, x))),) + inner
             + (tuple(linalg.vec_sub(d.frame[-1], linalg.mat_vec(lift, jx))),))
    e = linalg.idmat(m + 2, kind)
    for t in range(m):
        e[1 + t][0], e[1 + t][-1] = x[t], jx[t]
    coframe = tuple(map(tuple, linalg.mat_mul(e, d.coframe)))
    return HermitianData(
        n=d.n, a=d.a, v=tuple(vprime), A=d.A, J1=d.J1, frame=frame,
        coframe=coframe, d_outer=one(kind), d_inner=d.d_inner, kind=kind)


def ref_complex_structure(j):
    j = linalg.as_matrix(j)
    if not linalg.is_zero_matrix(linalg.mat_shift(linalg.mat_mul(j, j), 1)):
        raise HermitianError("NOT_COMPLEX", "J^2 != -Id")
    return ComplexStructure(tuple(tuple(row) for row in j))


def ref_build_algebra(a, v, A, J1):
    m = len(A)
    kind = linalg.matrix_kind(A) if m else (linalg.vector_kind(v) or EXACT)
    a = coerce(a, kind)
    v = linalg.as_vector(v, kind)
    A = linalg.as_matrix(A, kind)
    J1 = linalg.as_matrix(J1, kind)
    if not linalg.mat_eq(linalg.mat_mul(A, J1), linalg.mat_mul(J1, A)):
        raise DataError("COMMUTATION", "A does not commute with J1")
    D = [[a] + [-zero(kind)] * m] + [[v[t]] + A[t] for t in range(m)]
    return (LieAlgebra.semidirect(D), ref_complex_structure(_adapted_j(J1, kind)),
            Metric.identity(m + 2, kind))


# -- cases ------------------------------------------------------------------------

# A = [[1/2, 1], [0, 1/2]] as a complex matrix on n_1 = C^2, a = -2: S has the
# eigenvalues 0 and 1 = -a/2, so S(S + a/2) = 0, but A is not normal
NOT_NORMAL = data_from_parts(-2, [0] * 4, [[F(1, 2), 0, 1, 0], [0, F(1, 2), 0, 1],
                                          [0, 0, F(1, 2), 0], [0, 0, 0, F(1, 2)]],
                             standard_j1(4))


def float_data(d):
    """The float copy of data on the standard frame."""
    return data_from_parts(float(d.a), [float(x) for x in d.v],
                           [[float(x) for x in row] for row in d.A],
                           [[float(x) for x in row] for row in d.J1])


def standard_cases():
    """Every shape at dims 4 .. 14 and dimension 2 (n_1 = 0) on the
    standard frame, with the float copies of the first (data_from_parts
    reads the kind off A)."""
    exact = [data_from_parts(a, [], [], []) for a in (F(0), F(1), F(-3, 2))]
    exact += [random_data(random.Random(100 * n + k), n, shape)
              for n in range(2, 8) for k, shape in enumerate(ALL_SHAPES)]
    exact.append(NOT_NORMAL)
    return exact + [float_data(d) for d in exact if d.m]


def margin_cases():
    """Float data a few tenths of eps from LCK (A = Id + 2 J_1 + delta on
    the first pair) and from SKT (a = -2, S with the eigenvalues delta and
    1 = -a/2): m (A* + A) - 2 tr(A) Id and T(T + a) = 4 S(S + a/2) are the
    former residuals scaled m and 4 times, so they compare within m eps and
    4 eps."""
    out = []
    for delta in (2e-10, 3e-10, 5e-10, 9e-10, 2e-9):
        lck = linalg.mat_add(linalg.idmat(6, FLOAT), linalg.mat_scale(2.0, standard_j1(6, FLOAT)))
        skt = linalg.mat_scale(3.0, standard_j1(6, FLOAT))
        skt[2][2] = skt[3][3] = 1.0
        for a, A in ((0.0, lck), (-2.0, skt)):
            A[0][0] += delta
            A[1][1] += delta
            out.append(data_from_parts(a, [0.0] * 6, A, standard_j1(6, FLOAT)))
    return out


def extracted(d, rng, factor):
    """d built and moved by a random shear, in its metric and in that metric
    times factor, extracted with the searched and the moved ideal, exact
    and as float copies."""
    s = random_shear(rng, 2 * d.n)
    L, J, g = transported(*build_algebra(d.a, list(d.v), d.A_matrix, d.J1_matrix), s)
    fl = LieAlgebra(L.dim, {key: [float(x) for x in vec]
                            for key, vec in L.brackets.items()}, kind=FLOAT)
    moved = tuple(tuple(row) for row in linalg.transpose(linalg.inverse(s))[:-1])
    out = []
    for gm in (g.matrix, linalg.mat_scale(factor, g.matrix)):
        for ideal in (None, moved):
            out.append(extract_data(HermitianStructure(L, J, Metric.from_matrix(gm)), ideal))
            fj, fg = ([[float(x) for x in row] for row in m] for m in (J.matrix, gm))
            fideal = ideal and tuple(tuple(float(x) for x in vec) for vec in ideal)
            out.append(extract_data(HermitianStructure(
                fl, ComplexStructure.from_matrix(fj), Metric.from_matrix(fg)), fideal))
    return out


def sheared_cases():
    """Every shape at dims 4 .. 12, extracted in a scaled metric by 2 or 3:
    frame norms that are not rational squares, and float frame norms within
    the tolerance of 1 but not 1.  Then two dim-4 data whose first rho^B
    coefficient a^2 - a tr A / 2 + |v|^2 is 0, so that float copies carry
    it as round-off, which the former KForm.scale dropped, and NOT_NORMAL."""
    out = []
    for n in range(2, 7):
        for k, shape in enumerate(ALL_SHAPES):
            rng = random.Random(100 * n + k)
            out += extracted(random_data(rng, n, shape), rng, 2 + k % 2)
    for a, v, p, q in [(1, 2, 5, 1), (F(1, 10), F(1, 5), F(1, 2), 3)]:
        d = data_from_parts(a, [v, 0], [[p, -q], [q, p]], standard_j1(2))
        out += extracted(d, random.Random(5), 2)
    return out + extracted(NOT_NORMAL, random.Random(6), 3)


CASES = standard_cases() + margin_cases() + sheared_cases()


def form_key(form):
    """A form's coefficients, repr included: insertion order, types and the
    float bits, signed zeros too."""
    return form.degree, form.dim, form.kind, repr(form.coeffs)


def test_the_cases_cover_scaled_and_near_unit_frames():
    exact = [d for d in CASES if d.kind == EXACT]
    floats = [d for d in CASES if d.kind == FLOAT]
    assert any(d.d_outer != 1 for d in exact) and any(x != 1 for d in exact for x in d.d_inner)
    assert any(d.d_outer != 1.0 for d in floats) and any(x != 1.0 for d in floats
                                                          for x in d.d_inner)
    assert {d.n for d in CASES} == set(range(1, 8))


@pytest.mark.parametrize("name", sorted(DATA_PREDICATES))
def test_predicates_match_the_fraction_bodies(name):
    verdicts = [DATA_PREDICATES[name](d) for d in CASES]
    assert verdicts == [REF_PREDICATES[name](d) for d in CASES]
    assert True in verdicts and False in verdicts


def test_closed_forms_and_v_norm_match_the_fraction_bodies():
    for d in CASES:
        assert repr(d.v_norm_sq()) == repr(ref_v_norm_sq(d)), d
        assert form_key(lee_form_closed(d)) == form_key(ref_lee_form_closed(d)), d
        assert form_key(rho_b_closed(d)) == form_key(ref_rho_b_closed(d)), d


def test_skt_to_lcb_matches_the_fraction_system():
    """v', frame and coframe (every field) of skt_to_lcb equal the Fraction
    system's, exact and float; non-SKT data is refused by both."""
    done = 0
    for d in CASES:
        if not ref_is_skt(d):
            with pytest.raises(DataError):
                skt_to_lcb(d)
            continue
        assert repr(skt_to_lcb(d)) == repr(ref_skt_to_lcb(d)), d
        done += 1
    assert done >= 20


def test_build_algebra_matches_the_product_checks():
    for d in standard_cases():
        got = build_algebra(d.a, list(d.v), d.A_matrix, d.J1_matrix)
        want = ref_build_algebra(d.a, list(d.v), d.A_matrix, d.J1_matrix)
        assert repr(got[0].brackets) == repr(want[0].brackets)
        assert repr(got[1:]) == repr(want[1:])


@pytest.mark.parametrize("kind", [EXACT, FLOAT])
def test_rejections_match_the_product_checks(kind):
    """A that does not commute with J_1 is COMMUTATION, and a J_1 with
    J_1^2 != -Id makes J^2 != -Id: NOT_COMPLEX, in both routes."""
    j1 = standard_j1(4, kind)
    A = linalg.zeros(4, 4, kind)
    A[0][0] = one(kind)
    v = [zero(kind)] * 4
    for build in (build_algebra, ref_build_algebra):
        with pytest.raises(DataError) as err:
            build(zero(kind), v, A, j1)
        assert err.value.code == "COMMUTATION"
        with pytest.raises(HermitianError) as err:
            build(zero(kind), v, linalg.idmat(4, kind), linalg.idmat(4, kind))
        assert err.value.code == "NOT_COMPLEX"
    for bad in (linalg.idmat(4, kind), _adapted_j(linalg.mat_scale(2, j1), kind)):
        for make in (ComplexStructure.from_matrix, ref_complex_structure):
            with pytest.raises(HermitianError) as err:
                make(bad)
            assert err.value.code == "NOT_COMPLEX"


# -- cost: the Fraction operations left once the view is cleared -----------------

FRACTION_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                "__truediv__", "__rtruediv__", "__floordiv__", "__rfloordiv__", "__mod__",
                "__rmod__", "__divmod__", "__rdivmod__", "__pow__", "__rpow__", "__neg__",
                "__pos__", "__abs__")


def fraction_ops(monkeypatch, fn, d):
    """The Fraction operator calls of fn(d), counted by hooks on Fraction's
    arithmetic methods."""
    calls = []
    with monkeypatch.context() as mp:
        for name in FRACTION_OPS:
            op = vars(F).get(name)
            if op is not None:
                mp.setattr(F, name, lambda *args, op=op: calls.append(1) or op(*args))
        fn(d)
    return len(calls)


def test_cleared_data_costs_no_fraction_operation_per_entry(monkeypatch):
    """On exact data whose view is cleared, each predicate makes no Fraction
    operation and rho_b_closed a number that does not grow with n (those of
    its first coefficient), in the standard frame at dims 4 .. 12 and in
    scaled frames."""
    cases = [random_data(random.Random(n), n, "generic") for n in range(2, 7)]
    cases += [d for d in CASES if d.kind == EXACT and d.d_outer != 1]
    counts = {}
    for d in cases:
        d.cleared
        for name, predicate in DATA_PREDICATES.items():
            assert fraction_ops(monkeypatch, predicate, d) == 0, (name, d)
        counts.setdefault(fraction_ops(monkeypatch, rho_b_closed, d), set()).add(2 * d.n)
    assert len(counts) == 1 and min(counts) <= 8, counts
    assert counts[min(counts)] >= {4, 6, 8, 10, 12}
