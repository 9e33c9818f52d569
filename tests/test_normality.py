import cmath
import json

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from commutant_lab import (
    Case1,
    Case2,
    Case4,
    DiffOp,
    ExpPoly,
    adjoint_coeffs,
    commute_conditions,
    interior_points,
    is_normal,
    is_selfadjoint,
    make_pair,
    reportio,
)
from conftest import CallableCoeff, selfadjoint_matrix_defect


def coeffs_close(f, g, tol=1e-12):
    y = interior_points()
    return float(np.max(np.abs(np.asarray(f(y)) - np.asarray(g(y))))) <= tol


def legendre_op():
    return DiffOp(
        a=ExpPoly.polynomial((-1.0, 0.0, 1.0)),
        b=ExpPoly.polynomial((0.0, 2.0)),
        c=ExpPoly.zero(),
    )


# ---------------------------------------------------------------------------
# adjoint


def test_adjoint_selfadjoint_triple():
    op = legendre_op()
    adj = adjoint_coeffs(op)
    assert coeffs_close(op.a, adj.a)
    assert coeffs_close(op.b, adj.b)
    assert coeffs_close(op.c, adj.c)


def test_adjoint_conjugates_leading_coefficient():
    op = DiffOp(
        a=ExpPoly.polynomial((-1j, 0.0, 1j)),
        b=ExpPoly.polynomial((0.0, 2j)),
        c=ExpPoly.zero(),
    )
    adj = adjoint_coeffs(op)
    assert coeffs_close(adj.a, ExpPoly.polynomial((1j, 0.0, -1j)))


def test_adjoint_b_formula():
    op = DiffOp(
        a=ExpPoly.polynomial((-1.0, 0.0, 1.0)),
        b=ExpPoly.polynomial((0.0, 3.0)),
        c=ExpPoly.zero(),
    )
    adj = adjoint_coeffs(op)
    assert coeffs_close(adj.b, ExpPoly.polynomial((0.0, 1.0)))  # 2*2y - 3y


@settings(max_examples=20, deadline=None)
@given(
    c0=st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
    c1=st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
)
def test_adjoint_is_involution(c0, c1):
    op = DiffOp(
        a=ExpPoly.polynomial((-1.0, 0.0, 1.0)) + ExpPoly.exponential(0.5j, (0.1,)),
        b=ExpPoly.polynomial((c0, 2.0)),
        c=ExpPoly.polynomial((c1, 0.3j)),
    )
    twice = adjoint_coeffs(adjoint_coeffs(op))
    assert coeffs_close(op.a, twice.a, 1e-13)
    assert coeffs_close(op.b, twice.b, 1e-13)
    assert coeffs_close(op.c, twice.c, 1e-13)


# ---------------------------------------------------------------------------
# self-adjointness


def test_selfadjoint_examples(sinc_pair, case2_pair):
    ok, _ = is_selfadjoint(sinc_pair.op)
    assert ok
    ok2, res2 = is_selfadjoint(case2_pair.op)
    assert not ok2
    assert res2["re_b_minus_aprime"] > 1e-3


def test_imaginary_c_breaks_selfadjointness(sinc_pair):
    op = sinc_pair.op
    bad = DiffOp(a=op.a, b=op.b, c=op.c + ExpPoly.polynomial((0.0, 1j)))
    ok, res = is_selfadjoint(bad)
    assert not ok
    assert res["im_c_minus_half_im_bprime"] == pytest.approx(1 - 1e-2, abs=1e-6)


def test_verdicts_match_matrix_defect(sinc_pair, case2_pair, case4_pair):
    ops = [
        sinc_pair.op,
        case4_pair.op,
        case2_pair.op,
        make_pair(Case2(lam=2.0, alpha=1.0, beta=0.0)).op,
        make_pair(Case4(beta=0.7, p=(1.0, 0.0, 0.0))).op,
    ]
    for op in ops:
        ok, _ = is_selfadjoint(op)
        defect = selfadjoint_matrix_defect(op)
        assert ok == (defect <= 1e-8)


# ---------------------------------------------------------------------------
# commutation system


def test_operator_commutes_with_itself(sinc_pair):
    res = commute_conditions(sinc_pair.op, sinc_pair.op)
    assert max(res.values()) <= 1e-12


def test_scaled_shifted_commutes(sinc_pair):
    op = sinc_pair.op
    D = DiffOp(a=2.0 * op.a, b=2.0 * op.b, c=2.0 * op.c + ExpPoly.constant(4.0))
    res = commute_conditions(sinc_pair.op, D)
    assert max(res.values()) <= 1e-12


def test_constant_b_shift_breaks_commutation(sinc_pair):
    op = sinc_pair.op
    D = DiffOp(a=op.a, b=op.b + ExpPoly.constant(0.1), c=op.c)
    res = commute_conditions(sinc_pair.op, D)
    assert max(res["eq3"], res["eq4"]) >= 1e-3


def test_self_commutation_evaluates_each_coefficient_once(sinc_pair):
    # commute_conditions(op, op) reuses L's values for D; a copy of op, which
    # is evaluated again, gives the same residuals
    op = sinc_pair.op
    copy = DiffOp(a=op.a, b=op.b, c=op.c)
    assert commute_conditions(op, op) == commute_conditions(op, copy)


def test_identities_are_the_commutator_coefficients():
    # sympy's LD - DL for symbolic coefficients: eq1 is half its u'''
    # coefficient, eq2 its u'' coefficient less eq1', eq3 and eq4 its u' and
    # u coefficients, and none divides by a
    y = sympy.Symbol("y")
    a, b, c, A, B, C, u = (sympy.Function(name)(y) for name in "abcABCu")
    U = sympy.symbols("u0:5")
    d = lambda f, k=1: f.diff(y, k)

    def apply(p, q, r, f):
        return p * d(f, 2) + q * d(f) + r * f

    comm = apply(a, b, c, apply(A, B, C, u)) - apply(A, B, C, apply(a, b, c, u))
    coeff = [sympy.expand(comm.xreplace({d(u, k): U[k] for k in range(5)})).coeff(s) for s in U]
    eq1 = a * d(A) - A * d(a)
    stated = {
        "eq1": eq1,
        "eq2": 2 * a * d(B) + b * d(A) - 2 * A * d(b) - B * d(a),
        "eq3": a * d(B, 2) + 2 * a * d(C) + b * d(B) - A * d(b, 2) - 2 * A * d(c) - B * d(b),
        "eq4": a * d(C, 2) + b * d(C) - A * d(c, 2) - B * d(c),
    }
    derived = {"eq1": coeff[3] / 2, "eq2": coeff[2] - d(eq1), "eq3": coeff[1], "eq4": coeff[0]}
    assert coeff[4] == 0
    for k in stated:
        assert sympy.expand(derived[k] - stated[k]) == 0, k

    # commute_conditions evaluates them, here for a first-order L
    polys = {
        a: (0.0,), b: (0.3j, 1.0, -0.5), c: (0.2, -1j),
        A: (-1.0, 0.4j, 1.0), B: (0.1, 2.0), C: (0.7j, 0.0, 0.3),
    }
    L, D = (DiffOp(*(ExpPoly.polynomial(polys[f]) for f in fs)) for fs in ((a, b, c), (A, B, C)))
    res = commute_conditions(L, D)
    sub = {f: sum(coef * y**j for j, coef in enumerate(cs)) for f, cs in polys.items()}
    yv = interior_points()
    for k, expr in derived.items():
        vals = sympy.lambdify(y, expr.subs(sub).doit(), "numpy")(yv) + 0 * yv
        assert res[k] == pytest.approx(float(np.max(np.abs(vals))), rel=1e-12, abs=1e-15), k


# ---------------------------------------------------------------------------
# normality


def normal_fixture() -> DiffOp:
    """a = 1-y^2, b0 = -2y, gamma = 1, b1 = sqrt(a), c1 = -2y/sqrt(a),
    c0 = -1/2 - y^2/(2(1-y^2)): satisfies every displayed condition."""
    s = lambda y: np.sqrt(1 - y**2)
    b = CallableCoeff(
        (
            lambda y: -2 * y + s(y),
            lambda y: -2 - y / s(y),
            lambda y: -1 / s(y) ** 3,
        )
    )
    c = CallableCoeff(
        (
            lambda y: -0.5 - y**2 / (2 * (1 - y**2)) - 2 * y / s(y),
            lambda y: -y / (1 - y**2) ** 2 - 2 / s(y) ** 3,
            lambda y: -(1 + 3 * y**2) / (1 - y**2) ** 3 - 6 * y / s(y) ** 5,
        )
    )
    return DiffOp(a=ExpPoly.polynomial((1.0, 0.0, -1.0)), b=b, c=c)


def test_selfadjoint_operator_is_normal(sinc_pair):
    # by the zeroth-order-skew conditions, which hold for it
    rep = is_normal(sinc_pair.op)
    assert rep.selfadjoint and rep.normal
    for name in ("im_a_zero", "b1_sqrt_a", "c1_imag_const"):
        assert rep.condition_residuals[name] <= 1e-10, name


def test_normal_not_selfadjoint_fixture():
    rep = is_normal(normal_fixture())
    assert not rep.selfadjoint
    assert rep.normal
    for name in (
        "im_a_zero",
        "a_positive",
        "b1_sqrt_a",
        "re_b0_eq_aprime",
        "c1_imag_const",
        "c0_real_const",
    ):
        assert rep.condition_residuals[name] <= 1e-10, name


def test_imaginary_linear_c_not_normal(sinc_pair):
    op = sinc_pair.op
    bad = DiffOp(a=op.a, b=op.b, c=op.c + ExpPoly.polynomial((0.0, 1j)))
    rep = is_normal(bad)
    assert not rep.selfadjoint and not rep.normal


def test_imaginary_constant_c_shift_is_normal(sinc_pair):
    # L + i*const is normal but not self-adjoint (zeroth-order skew part)
    op = sinc_pair.op
    shifted = DiffOp(a=op.a, b=op.b, c=op.c + ExpPoly.constant(2j))
    rep = is_normal(shifted)
    assert not rep.selfadjoint
    assert rep.normal


# S = i(1 - y^2) d/dy - i y is self-adjoint
S = DiffOp(a=ExpPoly.zero(), b=ExpPoly.polynomial((1j, 0.0, -1j)), c=ExpPoly.polynomial((0.0, -1j)))


@pytest.mark.parametrize(
    "op, selfadjoint, normal",
    [
        (make_pair(Case2(lam=1.0, alpha=0.0, beta=1.0)).op, False, True),
        (make_pair(Case4(beta=1.0, p=(0.0, 0.0, 0.0))).op, False, True),
        (DiffOp(a=S.a, b=S.b, c=S.c + ExpPoly.constant(2j)), False, True),
        (DiffOp(a=S.a, b=cmath.exp(0.7j) * S.b, c=cmath.exp(0.7j) * S.c), False, True),
        (make_pair(Case4(beta=1j, p=(0.0, 0.0, 0.0))).op, True, True),
        (make_pair(Case2(lam=1.0 + 0.5j, alpha=0.0, beta=1.0)).op, False, False),
        (DiffOp(a=S.a, b=S.b, c=S.c + ExpPoly.polynomial((0.0, 1j))), False, False),
    ],
    ids=["case2-alpha0", "case4-p0", "S+2i", "phase-S", "case4-p0-beta-i", "case2-complex-lambda", "S+iy"],
)
def test_first_order_verdicts(op, selfadjoint, normal):
    # a = 0: normal iff L commutes with L*; the first two are skew-adjoint
    rep = is_normal(op)
    assert (rep.selfadjoint, rep.normal) == (selfadjoint, normal)


CUBIC = make_pair(Case4(beta=0.0, p=(0.0, 1.0, 0.0))).op  # a = y^3 - y


@pytest.mark.parametrize(
    "op, selfadjoint, normal",
    [
        (CUBIC, True, True),
        (make_pair(Case4(beta=1j, p=(0.0, 1.0, 0.0))).op, True, True),
        (make_pair(Case1(m=0, alpha=1j, beta=-1j)).op, True, True),  # a = -2 sin(pi y)
        # L0 + i*y with L0 self-adjoint and second order: [L, L*] = -2i[L0, y]
        (DiffOp(a=CUBIC.a, b=CUBIC.b, c=CUBIC.c + ExpPoly.polynomial((0.0, 1j))), False, False),
    ],
    ids=["case4-cubic", "case4-cubic-beta-i", "case1-sine", "cubic+iy"],
)
def test_real_a_with_an_interior_zero_is_judged_by_the_definition(op, selfadjoint, normal):
    # a vanishes at the interior point y = 0, where the conditions divide by
    # a: L is normal iff it commutes with L*
    assert float(np.min(np.abs(op.a(interior_points())))) == 0.0
    rep = is_normal(op)
    assert (rep.selfadjoint, rep.normal) == (selfadjoint, normal)
    assert all(np.isfinite(list(rep.condition_residuals.values())))


def test_normal_verdict_scalar_invariant():
    op = normal_fixture()
    for w in (2.0, -3.0, 1 + 2j, 0.5j):
        scaled = DiffOp(a=w * op.a, b=w * op.b, c=w * op.c)
        rep = is_normal(scaled)
        assert rep.normal, w
        assert not rep.selfadjoint


@pytest.mark.parametrize(
    "op",
    [
        legendre_op(),
        normal_fixture(),
        DiffOp(a=ExpPoly.zero(), b=ExpPoly.polynomial((0.0, 1j)), c=ExpPoly.zero()),
    ],
    ids=["selfadjoint", "normal", "a-zero"],
)
def test_report_carries_selfadjoint_check(op):
    # the normality command reads these from is_normal's report, where they
    # carry a selfadjoint_ prefix whatever the order of L
    rep = is_normal(op)
    assert (rep.selfadjoint, rep.selfadjoint_residuals) == is_selfadjoint(op)


def test_report_serialization():
    rep = is_normal(normal_fixture())
    obj = json.loads(reportio.dumps(rep))
    assert obj["normal"] is True
    assert "condition_residuals" in obj
