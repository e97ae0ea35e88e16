import itertools
import random

import pytest

from leafnorm import multivector
from leafnorm.errors import ContextMismatch, NonHomogeneous, WrongDegree
from leafnorm.multivector import (
    DiffForm, Multivector, cotangent_bracket, d_scalar,
    exterior_derivative, hamiltonian, interior_form, is_poisson,
    _sort_block, lie_derivative, pairing, poisson_bracket, schouten, sharp,
)
from leafnorm.rational import ChartContext, Poly, Q, RatFunc


CTX = ChartContext(base=["x1", "x2"], fiber=["y1", "y2", "y3"])
# generator indices: 0,1 -> d/dx1, d/dx2 ; 2,3,4 -> d/dy1..d/dy3


def coeff(p):
    return RatFunc.from_poly(p)


def vec(i, f=None, ctx=CTX):
    f = RatFunc.one(ctx) if f is None else f
    return Multivector(ctx, {(i,): f})


def so3_linear(ctx=CTX):
    y1 = coeff(Poly.var(ctx, "y1"))
    y2 = coeff(Poly.var(ctx, "y2"))
    y3 = coeff(Poly.var(ctx, "y3"))
    return Multivector.from_terms(ctx, [((3, 4), y1), ((4, 2), y2), ((2, 3), y3)])


def _cycle_parity_sign(block):
    """Sign of the permutation that sorts a block of distinct indices,
    found among all permutations and signed by its cycle count."""
    target = tuple(sorted(block))
    n = len(block)
    perm = next(q for q in itertools.permutations(range(n))
                if tuple(target[j] for j in q) == block)
    seen, cycles = set(), 0
    for i in range(n):
        if i not in seen:
            cycles += 1
            while i not in seen:
                seen.add(i)
                i = perm[i]
    return -1 if (n - cycles) % 2 else 1


def test_sort_block_matches_brute_force_parity():
    for n in range(6):
        for block in itertools.product(range(5), repeat=n):
            if len(set(block)) < n:
                assert _sort_block(block) == (None, 0)
            else:
                assert _sort_block(block) == (tuple(sorted(block)),
                                              _cycle_parity_sign(block))


def test_sort_block_of_two_increasing_blocks_is_the_shuffle_sign():
    blocks = [c for k in range(6) for c in itertools.combinations(range(5), k)]
    for a in blocks:
        for b in blocks:
            if set(a) & set(b):
                assert _sort_block(a + b) == (None, 0)
                continue
            crossings = sum(1 for x in a for y in b if x > y)
            assert _sort_block(a + b) == (tuple(sorted(a + b)),
                                          -1 if crossings % 2 else 1)


def test_schouten_two_functions():
    f = Multivector.scalar(coeff(Poly.var(CTX, "x1")))
    g = Multivector.scalar(coeff(Poly.var(CTX, "x1") ** 2))
    assert schouten(f, g).is_zero()


def test_schouten_so3_jacobi():
    pl = so3_linear()
    assert schouten(pl, pl).is_zero()
    assert is_poisson(pl).ok


def test_schouten_leibniz_example():
    # hand Leibniz oracle: [dx1^dx2-wedge, x1 d/dx1] = d/dx1 ^ d/dx2
    u = Multivector(CTX, {(0, 1): RatFunc.one(CTX)})
    z = vec(0, coeff(Poly.var(CTX, "x1")))
    assert schouten(u, z) == u


def test_schouten_vector_fields_is_lie_bracket():
    x1 = Poly.var(CTX, "x1")
    y1 = Poly.var(CTX, "y1")
    a = vec(0, coeff(x1 * y1))
    b = vec(2, coeff(x1))
    # [a, b] = a(x1) d/dy1 - b(x1 y1) d/dx1 with only matching derivatives
    got = schouten(a, b)
    expect = vec(2, coeff(y1 * x1)) - vec(0, coeff(x1 * x1))
    assert got == expect


def test_schouten_sums_over_the_operands_generators(monkeypatch):
    # two of the chart's five generators occur: each half of the bracket
    # runs over those two and no other
    calls = []
    half = multivector._d_half

    def spy(u, v, gens):
        calls.append(list(gens))
        return half(u, v, gens)

    monkeypatch.setattr(multivector, "_d_half", spy)
    x1 = Poly.var(CTX, "x1")
    y1 = Poly.var(CTX, "y1")
    got = schouten(vec(0, coeff(x1 * y1)), vec(2, coeff(x1)))
    assert got == vec(2, coeff(y1 * x1)) - vec(0, coeff(x1 * x1))
    assert calls == [[0, 2], [0, 2]]


def test_schouten_requires_homogeneous():
    mixed = vec(0) + Multivector(CTX, {(0, 1): RatFunc.one(CTX)})
    with pytest.raises(NonHomogeneous):
        schouten(mixed, vec(1))


def test_cross_context_operations_rejected():
    other = ChartContext(base=["a"], fiber=["b"])
    with pytest.raises(ContextMismatch):
        schouten(vec(0), Multivector.basis(other, 0))
    with pytest.raises(ContextMismatch):
        sharp(so3_linear(), DiffForm.basis(other, 0))


def random_homogeneous(rng, ctx, deg, cdeg=2):
    gens = list(range(ctx.p + ctx.q))
    items = []
    for _ in range(2):
        key = tuple(sorted(rng.sample(gens, deg))) if deg else ()
        p = Poly.const(ctx, rng.randint(-3, 3))
        for _ in range(rng.randint(0, cdeg)):
            p = p * Poly.var(ctx, rng.choice(ctx.vars))
        items.append((key, RatFunc.from_poly(p)))
    return Multivector.from_terms(ctx, items)


def test_schouten_graded_antisymmetry_and_jacobi_random():
    ctx = ChartContext(base=["x1", "x2", "x3"], fiber=["y1", "y2", "y3"])
    rng = random.Random(41)
    for _ in range(30):
        du, dv, dw = (rng.randint(0, 2) for _ in range(3))
        u = random_homogeneous(rng, ctx, du)
        v = random_homogeneous(rng, ctx, dv)
        w = random_homogeneous(rng, ctx, dw)
        su, sv, sw = du - 1, dv - 1, dw - 1
        anti = schouten(u, v) + schouten(v, u).scale(Q(-1) ** (su * sv))
        assert anti.is_zero()
        jac = schouten(u, schouten(v, w)) \
            - schouten(schouten(u, v), w) \
            - schouten(v, schouten(u, w)).scale(Q(-1) ** (su * sv))
        assert jac.is_zero()


def test_schouten_leibniz_random():
    # [u, v ^ w] = [u, v] ^ w + (-1)^(deg u * |v|) v ^ [u, w]
    rng = random.Random(43)
    for _ in range(30):
        du, dv, dw = rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2)
        u = random_homogeneous(rng, CTX, du)
        v = random_homogeneous(rng, CTX, dv)
        w = random_homogeneous(rng, CTX, dw)
        lhs = schouten(u, v.wedge(w))
        rhs = schouten(u, v).wedge(w) + \
            v.wedge(schouten(u, w)).scale(Q(-1) ** ((du - 1) * dv))
        assert (lhs - rhs).is_zero()


# --- Cartan calculus ---------------------------------------------------------

def test_exterior_derivative_basic():
    x1 = coeff(Poly.var(CTX, "x1"))
    omega = DiffForm(CTX, {(1,): x1})  # x1 dx2
    assert exterior_derivative(omega) == DiffForm(CTX, {(0, 1): RatFunc.one(CTX)})


def test_d_squared_zero():
    f = coeff(Poly.var(CTX, "x1") * Poly.var(CTX, "x2") * Poly.var(CTX, "y1"))
    assert exterior_derivative(d_scalar(f)).is_zero()
    rng = random.Random(47)
    for _ in range(10):
        size = rng.randint(0, 2)
        key = tuple(sorted(rng.sample(range(5), size)))
        p = Poly.var(CTX, rng.choice(CTX.vars)) * Poly.var(CTX, rng.choice(CTX.vars))
        omega = DiffForm(CTX, {key: coeff(p)})
        assert exterior_derivative(exterior_derivative(omega)).is_zero()


def test_lie_derivative_example():
    x1 = coeff(Poly.var(CTX, "x1"))
    omega = DiffForm(CTX, {(1,): x1})  # x1 dx2
    got = lie_derivative(vec(0), omega)
    assert got == DiffForm(CTX, {(1,): RatFunc.one(CTX)})


def test_cartan_formula_consistency_random():
    rng = random.Random(53)
    for _ in range(10):
        x = vec(rng.randrange(5), coeff(Poly.var(CTX, rng.choice(CTX.vars))))
        key = tuple(sorted(rng.sample(range(5), rng.randint(1, 2))))
        omega = DiffForm(CTX, {key: coeff(Poly.var(CTX, rng.choice(CTX.vars)))})
        lhs = lie_derivative(x, omega)
        rhs = interior_form(x, exterior_derivative(omega)) + \
            exterior_derivative(interior_form(x, omega))
        assert lhs == rhs


# --- Poisson operations -------------------------------------------------------

def test_sharp_canonical_pairing():
    pi = Multivector(CTX, {(0, 1): RatFunc.one(CTX)})
    alpha = DiffForm(CTX, {(0,): RatFunc.one(CTX)})
    assert sharp(pi, alpha) == vec(1)
    assert sharp(pi, DiffForm.zero(CTX)).is_zero()


def test_sharp_so3():
    pl = so3_linear()
    dy1 = DiffForm(CTX, {(2,): RatFunc.one(CTX)})
    y2 = coeff(Poly.var(CTX, "y2"))
    y3 = coeff(Poly.var(CTX, "y3"))
    assert sharp(pl, dy1) == vec(3, y3) - vec(4, y2)


def test_sharp_defines_pi_of_alpha_beta():
    rng = random.Random(59)
    pl = so3_linear()
    for _ in range(10):
        i, j = rng.randrange(5), rng.randrange(5)
        a = DiffForm(CTX, {(i,): coeff(Poly.var(CTX, rng.choice(CTX.vars)))})
        b = DiffForm(CTX, {(j,): RatFunc.one(CTX)})
        assert pairing(sharp(pl, a), b) == pairing(pl, a.wedge(b))


def test_hamiltonian_and_bracket():
    pi = Multivector(CTX, {(0, 1): RatFunc.one(CTX)})
    x1 = coeff(Poly.var(CTX, "x1"))
    x2 = coeff(Poly.var(CTX, "x2"))
    assert poisson_bracket(pi, x1, x2) == RatFunc.one(CTX)
    f = coeff(Poly.var(CTX, "x1") * Poly.var(CTX, "y1"))
    assert poisson_bracket(pi, f, f).is_zero()
    pl = so3_linear()
    y1 = coeff(Poly.var(CTX, "y1"))
    y2 = coeff(Poly.var(CTX, "y2"))
    y3 = coeff(Poly.var(CTX, "y3"))
    assert poisson_bracket(pl, y1, y2) == y3
    assert hamiltonian(pi, x1) == vec(1)


def test_cotangent_bracket_examples():
    pi = Multivector(CTX, {(0, 1): RatFunc.one(CTX)})
    x1 = coeff(Poly.var(CTX, "x1"))
    df = d_scalar(x1 * x1 + coeff(Poly.var(CTX, "y1")))
    assert cotangent_bracket(pi, df, df).is_zero()
    dx1 = DiffForm(CTX, {(0,): RatFunc.one(CTX)})
    dx2 = DiffForm(CTX, {(1,): RatFunc.one(CTX)})
    assert cotangent_bracket(pi, dx1, dx2).is_zero()
    pl = so3_linear()
    dy1 = DiffForm(CTX, {(2,): RatFunc.one(CTX)})
    dy2 = DiffForm(CTX, {(3,): RatFunc.one(CTX)})
    dy3 = DiffForm(CTX, {(4,): RatFunc.one(CTX)})
    assert cotangent_bracket(pl, dy1, dy2) == dy3


def _poisson_catalog():
    const = Multivector(CTX, {(0, 1): RatFunc.one(CTX)})
    linear = so3_linear()
    x1 = coeff(Poly.var(CTX, "x1"))
    product = Multivector(CTX, {(0, 1): RatFunc.one(CTX)}) + so3_linear()
    return [const, linear, product]


def test_jacobi_via_brackets_independent_of_schouten():
    rng = random.Random(61)
    for pi in _poisson_catalog():
        assert is_poisson(pi).ok
        for _ in range(5):
            f, g, h = (coeff(Poly.var(CTX, rng.choice(CTX.vars)) *
                             Poly.var(CTX, rng.choice(CTX.vars)))
                       for _ in range(3))
            total = poisson_bracket(pi, f, poisson_bracket(pi, g, h)) + \
                poisson_bracket(pi, g, poisson_bracket(pi, h, f)) + \
                poisson_bracket(pi, h, poisson_bracket(pi, f, g))
            assert total.is_zero()


def test_exact_forms_bracket_matches_d_of_poisson_bracket():
    rng = random.Random(67)
    for pi in _poisson_catalog():
        for _ in range(5):
            f = coeff(Poly.var(CTX, rng.choice(CTX.vars)) *
                      Poly.var(CTX, rng.choice(CTX.vars)))
            g = coeff(Poly.var(CTX, rng.choice(CTX.vars)))
            lhs = cotangent_bracket(pi, d_scalar(f), d_scalar(g))
            rhs = d_scalar(poisson_bracket(pi, f, g))
            assert lhs == rhs


def test_is_poisson_flags_non_jacobi():
    # {y1,y2} = y1, {y2,y3} = y2 violates Jacobi
    y1 = coeff(Poly.var(CTX, "y1"))
    y2 = coeff(Poly.var(CTX, "y2"))
    pi = Multivector.from_terms(CTX, [((2, 3), y1), ((3, 4), y2)])
    chk = is_poisson(pi)
    assert not chk.ok
    assert not chk.residual.is_zero()
    with pytest.raises(WrongDegree):
        is_poisson(vec(0))
