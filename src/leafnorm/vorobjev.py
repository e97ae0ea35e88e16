"""Correspondence between horizontally non-degenerate bivectors and Dirac
elements, with the structure equations, the chain map, jets, the Moser path
and the induced algebroid.

Conventions (see docs/conventions.md): the horizontal block is read off as
A^ij = theta(dx^i, dx^j), B^ia = theta(dx^i, dy^a), C^ab = theta(dy^a, dy^b).
The horizontal lift is hor_i = d/dx^i + (A^-1 B)_i^a d/dy^a, the two-form
component has matrix F = A^-1, and the vertical component is C + B^T A^-1 B.
With these signs the leaf form is omega_S = -gamma|_S = (theta|_S)^-1 and
assemble inverts decompose exactly.
"""

from itertools import combinations

from .errors import (
    DegenerateFPart,
    InvalidElement,
    LeafCheckFailed,
    NotDivisibleByT,
    NotFirstOrder,
    NotHorizontallyNondegenerate,
    Record,
    SingularMatrix,
    Verdict,
)
from .linalg import MatrixRF, matrix_inverse
from .multivector import (
    DiffForm,
    Multivector,
    _operand,
    _sort_block,
    exterior_derivative,
    schouten,
    sharp,
)
from .omega import (
    MixedElement,
    base_form_of,
    ds_n,
    dilation,
    euler_field,
    gamma_S,
    is_homogeneous,
    jet_n,
    ltimes_bracket,
    p_S,
)
from .rational import RatFunc

__all__ = [
    "DiracElement", "HorizontalData", "HorizontalCheck", "horizontal_blocks",
    "is_horizontally_nondegenerate", "decompose", "assemble",
    "structure_equations", "tau", "tau_inverse", "chain_map_residual",
    "LeafCheck", "leaf_check", "first_jet_model", "MoserPath", "moser_path",
    "moser_at", "moser_gamma_dot", "gamma_dot_1", "linearization_cocycle",
    "AlgebroidData", "algebroid_from_jet",
    "GradedDifferential", "graded_differential",
]


class DiracElement(Record):
    """One element of bidegrees (0,2), (1,1) and (2,0): the vertical
    bivector, the connection and the two-form component, stored in that
    order; its parts are views by bidegree."""

    __slots__ = ("mixed",)

    def __init__(self, mixed):
        v, conn, f = (mixed.bidegree_part(i, 2 - i) for i in range(3))
        if len(v.terms) + len(conn.terms) + len(f.terms) != len(mixed.terms):
            raise InvalidElement("element has terms outside bidegrees "
                                 "(0,2), (1,1) and (2,0)")
        if any(J for (_, J, _) in v.terms):
            raise InvalidElement("vertical part must be of bidegree (0,2)")
        if p_S(conn) != gamma_S(mixed.context):
            raise InvalidElement(
                "connection part does not project to the identity")
        # sums and brackets add the terms that meet on a key in iteration
        # order, which decides their gcd work: one order, v, conn, f
        super().__init__(v + conn + f)

    v_part = property(lambda self: self.mixed.bidegree_part(0, 2))
    conn_part = property(lambda self: self.mixed.bidegree_part(1, 1))
    f_part = property(lambda self: self.mixed.bidegree_part(2, 0))

    @property
    def context(self):
        return self.mixed.context

    def dirac_residual(self):
        return ltimes_bracket(self.mixed, self.mixed)

    def is_dirac(self):
        return self.dirac_residual().is_zero()

    def __str__(self):
        return "(v = %s, conn = %s, f = %s)" % (
            self.v_part, self.conn_part, self.f_part)


class HorizontalData(Record):
    """The three blocks of a degree-2 multivector on the chart."""

    __slots__ = ("A", "B", "C")


def _antisymmetric(ctx, n, entries):
    """The n x n antisymmetric matrix with the given ((i, j), c) entries."""
    m = MatrixRF.zero(ctx, n, n)
    for (i, j), c in entries:
        m.entries[i][j] = c
        m.entries[j][i] = -c
    return m


def _upper(m):
    """The ((i, j), entry) pairs above the diagonal of a square matrix."""
    return [((i, j), m.entries[i][j])
            for i in range(m.rows) for j in range(i + 1, m.rows)]


def horizontal_blocks(theta):
    """Read the blocks off a degree-2 multivector (uniquely)."""
    _operand(theta, Multivector, "block decomposition needs a bivector", 2)
    ctx = theta.context
    p, q = ctx.p, ctx.q
    A = []
    B = MatrixRF.zero(ctx, p, q)
    C = []
    for (i, j), c in theta.terms.items():
        if j < p:
            A.append(((i, j), c))
        elif i < p:
            B.entries[i][j - p] = c
        else:
            C.append(((i - p, j - p), c))
    return HorizontalData(_antisymmetric(ctx, p, A), B,
                          _antisymmetric(ctx, q, C))


class HorizontalCheck(Verdict):
    __slots__ = ("ok", "det", "nonzero_at_leaf")


def is_horizontally_nondegenerate(theta):
    """det A != 0 as a rational function; also reports support at the leaf."""
    blocks = horizontal_blocks(theta)
    det = blocks.A.det()
    if det.is_zero():
        return HorizontalCheck(False, det, False)
    at_leaf = 0 in det.num.fiber_parts()
    return HorizontalCheck(True, det, at_leaf)


def decompose(theta):
    """Dirac element of a horizontally non-degenerate bivector."""
    ctx = theta.context
    blocks, ainv, w = _frames(theta)
    p, q = ctx.p, ctx.q
    items = [(((i,), (), (p + a,)), w.entries[i][a])
             for i in range(p) for a in range(q)]
    vmat = blocks.C + blocks.B.transpose() * ainv * blocks.B
    items += [(((), (), (p + a, p + b)), c) for (a, b), c in _upper(vmat)]
    items += [((ij, (), ()), c) for ij, c in _upper(ainv)]
    return DiracElement(gamma_S(ctx) + MixedElement.from_terms(ctx, items))


def _dual(gamma):
    """gamma's terms without horizontal lifts as one bivector, with dx^i read
    as d/dx^i: its blocks are (F, W, V)."""
    return Multivector(gamma.context, {
        I + K: c for (I, J, K), c in gamma.mixed.terms.items() if not J})


def assemble(gamma):
    """The bivector of a Dirac element (exact inverse of decompose)."""
    ctx = gamma.context
    p, q = ctx.p, ctx.q
    blocks = horizontal_blocks(_dual(gamma))
    try:
        A = matrix_inverse(blocks.A)
    except SingularMatrix:
        raise DegenerateFPart("two-form component is degenerate as a "
                              "rational-function matrix") from None
    B = A * blocks.B
    C = blocks.C + blocks.B.transpose() * B
    items = _upper(A)
    for i in range(p):
        for a in range(q):
            items.append(((i, p + a), B.entries[i][a]))
    items += [((p + a, p + b), c) for (a, b), c in _upper(C)]
    return Multivector.from_terms(ctx, items)


def structure_equations(gamma):
    """The four residuals whose joint vanishing is [gamma, gamma] = 0."""
    v, conn, f = gamma.v_part, gamma.conn_part, gamma.f_part
    r1 = ltimes_bracket(v, v)
    r2 = ltimes_bracket(conn, v)
    half = RatFunc.half(gamma.context)
    r3 = ltimes_bracket(conn, conn).scale(half) + ltimes_bracket(v, f)
    r4 = ltimes_bracket(conn, f)
    return r1, r2, r3, r4


# ---------------------------------------------------------------------------
# the chain map tau
# ---------------------------------------------------------------------------

def _expand(gens, c, repl):
    """c * g_1 ^ ... ^ g_k with every g replaced by the linear combination
    repl[g] = ((h, coeff or None for 1), ...); generators missing from repl
    stay.  Returns (strictly increasing tuple, coefficient) pairs."""
    parts = [((), c)]
    for g in gens:
        new_parts = []
        for tup, cc in parts:
            for h, ch in repl.get(g, ((g, None),)):
                merged, s = _sort_block(tup + (h,))
                if merged is None:
                    continue
                v = cc if ch is None else cc * ch
                new_parts.append((merged, v if s > 0 else -v))
        parts = new_parts
    return parts


def _images(matrix, offset):
    """Row g of the matrix, negated, as the image of generator g: minus
    matrix[g][k] times generator offset + k over the nonzero entries."""
    return {g: tuple((offset + k, -e) for k, e in enumerate(row)
                     if not e.is_zero())
            for g, row in enumerate(matrix.entries)}


def _nondegenerate_blocks(theta):
    blocks = horizontal_blocks(theta)
    if blocks.A.det().is_zero():
        raise NotHorizontallyNondegenerate(
            "horizontal block is singular as a rational function")
    return blocks


def _frames(theta):
    blocks = _nondegenerate_blocks(theta)
    ainv = matrix_inverse(blocks.A)
    w = ainv * blocks.B
    return blocks, ainv, w


def tau(theta, u):
    """tau_theta(u): multivectors to form-valued verticals, wedge of
    (-F^#, id_V) applied in the connection frame."""
    ctx = theta.context
    p = ctx.p
    blocks, ainv, w = _frames(theta)
    # coordinate basis -> connection frame: d/dx_i = hor_i - sum W[i][a] d/dy_a
    to_frame = {g: ((g, None),) + r for g, r in _images(w, p).items()}
    framed = Multivector.from_terms(ctx, [
        part for key, c in u.terms.items()
        for part in _expand(key, c, to_frame)])
    # map hor_i -> -sum_j F[i][j] dx^j, keep verticals; forms precede verticals
    to_forms = _images(ainv, 0)
    items = []
    for key, c in framed.terms.items():
        vert = tuple(g for g in key if g >= p)
        for tup, cc in _expand([g for g in key if g < p], c, to_forms):
            items.append(((tup, (), vert), cc))
    return MixedElement.from_terms(ctx, items)


def tau_inverse(theta, e):
    """Inverse of tau on form-valued verticals: dx^j -> -theta^#(dx^j), which
    is -sum A[j][i] d/dx^i - sum B[j][a] d/dy^a; verticals stay, written
    after the forms."""
    blocks = _nondegenerate_blocks(theta)
    if any(J for (_, J, _) in e.terms):
        raise InvalidElement("tau inverse expects an element with no "
                             "horizontal lift terms")
    fiber = _images(blocks.B, theta.context.p)
    images = {j: r + fiber[j] for j, r in _images(blocks.A, 0).items()}
    return Multivector.from_terms(theta.context, [
        part for (I, _, K), c in e.terms.items()
        for part in _expand(I + K, c, images)])


def chain_map_residual(theta, u):
    """tau([theta, u]) - [gamma, tau(u)]; vanishes when theta is Poisson."""
    gamma = decompose(theta)
    lhs = tau(theta, schouten(theta, u))
    rhs = ltimes_bracket(gamma.mixed, tau(theta, u))
    return lhs - rhs


# ---------------------------------------------------------------------------
# leaves, jets, the Moser path
# ---------------------------------------------------------------------------

class LeafCheck(Verdict):
    __slots__ = ("ok", "omega")


def leaf_check(gamma):
    """S is a symplectic leaf iff gamma|_S is pure (2,0); then
    omega_S = -gamma|_S, verified closed and non-degenerate."""
    g0 = ds_n(gamma.mixed, 0)
    if any(J or K for (_, J, K) in g0.terms):
        return LeafCheck(False, None)
    omega = base_form_of(-g0)
    if not exterior_derivative(omega).is_zero():
        return LeafCheck(False, omega)
    ctx = omega.context
    if _antisymmetric(ctx, ctx.p, omega.terms.items()).det().is_zero():
        return LeafCheck(False, omega)
    return LeafCheck(True, omega)


def first_jet_model(gamma):
    """j^1_S(gamma) = gamma|_S + d^1_S(gamma), verified to be Dirac."""
    if not leaf_check(gamma).ok:
        raise LeafCheckFailed("the zero section is not a symplectic leaf")
    out = DiracElement(jet_n(gamma.mixed, 1))
    if not out.is_dirac():
        raise InvalidElement("first jet fails the Dirac equation")
    return out


class MoserPath(Record):
    """The family gamma_t = gamma|_S + (t phi_t(gamma) - gamma|_S)/t."""

    __slots__ = ("gamma_t", "param", "base_context")

    @property
    def context(self):
        return self.gamma_t.context


def moser_path(gamma):
    if not leaf_check(gamma).ok:
        raise LeafCheckFailed("the zero section is not a symplectic leaf")
    base_ctx = gamma.context
    # the path parameter: the first of t, t1, t2, ... that the chart lacks
    param, k = "t", 0
    while param in base_ctx.vars:
        k += 1
        param = "t%d" % k
    ctx_t = base_ctx.with_param(param)
    t = RatFunc.var(ctx_t, param)
    tphi = dilation(gamma.mixed.cast(ctx_t), t).scale(t)
    g0 = ds_n(gamma.mixed, 0).cast(ctx_t)
    diff = tphi - g0
    t_index = ctx_t.var_index(param)
    items = []
    for key, c in diff.terms.items():
        c2 = c / t
        # the denominator vanishes at t = 0 when t divides each of its terms
        if all(m[t_index] for m, _ in c2.den.exponents()):
            raise NotDivisibleByT(
                "path coefficient is singular at %s = 0" % param)
        items.append((key, c2))
    path = g0 + MixedElement.from_terms(ctx_t, items)
    return MoserPath(DiracElement(path), param, base_ctx)


def moser_at(path, value):
    """Evaluate the path at a rational parameter value, back on the chart."""
    at = {path.param: value}
    g = path.gamma_t.mixed.map_coeffs(lambda c: c.substitute(at))
    return DiracElement(g.cast(path.base_context))


def moser_gamma_dot(path):
    """Derivative of the path in the formal parameter."""
    param = path.param
    return path.gamma_t.mixed.map_coeffs(lambda c: c.derivative(param))


def gamma_dot_1(gamma):
    """-omega_S - F + pi^v + [Euler, gamma]; the Moser velocity at t = 1."""
    if not leaf_check(gamma).ok:
        raise LeafCheckFailed("the zero section is not a symplectic leaf")
    g0 = ds_n(gamma.mixed, 0)
    e = euler_field(gamma.context)
    return g0 - gamma.f_part + gamma.v_part + ltimes_bracket(e, gamma.mixed)


def linearization_cocycle(theta, omega):
    """theta - wedge^2 theta^#(omega), verified closed for d_theta."""
    ctx = theta.context
    total = Multivector.zero(ctx)
    for (i, j), c in omega.terms.items():
        total = total + sharp(theta, DiffForm.basis(ctx, i)).wedge(
            sharp(theta, DiffForm.basis(ctx, j))).scale(c)
    cocycle = theta - total
    if not schouten(theta, cocycle).is_zero():
        raise InvalidElement("linearization cocycle is not d_pi-closed")
    return cocycle


# ---------------------------------------------------------------------------
# the induced algebroid on TS + E*
# ---------------------------------------------------------------------------

def _pair(form, lifts):
    """A base k-form on a k-vector of horizontal lifts: the sum, over the
    form's terms c dx^I, of c times the coefficient of the lift d/dx^I."""
    return sum((c * lifts.terms[((), I, ())]
                for (I, _, _), c in form.terms.items()
                if ((), I, ()) in lifts.terms), RatFunc.zero(form.context))


class AlgebroidData(Record):
    """Bracket, anchor and verification helpers for the first-jet algebroid.

    A section X + alpha of TS + E* is a MixedElement: X is its horizontal
    lifts ((), (i,), ()), alpha its scalar term, the fiber-linear function
    sum_a eps_a y_a that it defines.
    """

    __slots__ = ("context", "v_part", "conn_part", "sigma")

    # -- frame -----------------------------------------------------------

    def frame(self):
        """The unit sections, base directions first."""
        ctx = self.context
        one = RatFunc.one(ctx)
        return [MixedElement(ctx, {((), (i,), ()): one})
                for i in range(ctx.p)] + \
            [MixedElement.scalar(RatFunc.var(ctx, y)) for y in ctx.fiber]

    def _parts(self, s):
        """(X, alpha) of a section X + alpha: an element of this chart made
        of lifts and a scalar, equal to its first derivative along S, so
        that X is free of the fiber and alpha fiber-linear."""
        if s.context != self.context or any(
                I or K or len(J) > 1 or not c.is_fiber_polynomial()
                for (I, J, K), c in s.terms.items()) or ds_n(s, 1) != s:
            raise InvalidElement("not a section of TS + E* on this chart")
        return s.horizontal_part(), s.vertical_part()

    def anchor_apply(self, s, f):
        """X(f) for the section s = X + alpha."""
        x, _ = self._parts(s)
        return ltimes_bracket(x, MixedElement.scalar(f)).scalar_value()

    # -- bracket ------------------------------------------------------------

    def bracket(self, s1, s2):
        x1, a1 = self._parts(s1)
        x2, a2 = self._parts(s2)
        # E* part, assembled as a fiber-linear function; [Gamma, alpha] is the
        # covariant differential, so its evaluation on X is [X, alpha]_A (the
        # Leibniz rule for the anchor pins this reading)
        h = MixedElement.scalar(
            _pair(self.sigma, x1.wedge(x2))
            + _pair(ltimes_bracket(self.conn_part, a2), x1)
            - _pair(ltimes_bracket(self.conn_part, a1), x2))
        # [alpha, beta]_A = [beta, [pi^v, alpha]]
        h = h + ltimes_bracket(a2, ltimes_bracket(self.v_part, a1))
        # the data is first order, so h must be exactly fiber-linear
        if ds_n(h, 1) != h:
            raise NotFirstOrder("bracket left the fiber-linear sections")
        # TS part: the bracket of trivial lifts is the Lie bracket on the base
        return ltimes_bracket(x1, x2) + h

    # -- verification -----------------------------------------------------------

    def jacobi_residual(self, s1, s2, s3):
        return self.bracket(self.bracket(s1, s2), s3) + \
            self.bracket(self.bracket(s2, s3), s1) + \
            self.bracket(self.bracket(s3, s1), s2)

    def jacobi_residuals(self):
        return [self.jacobi_residual(*triple)
                for triple in combinations(self.frame(), 3)]

    def leibniz_residual(self, s1, s2, f):
        lhs = self.bracket(s1, s2.scale(f))
        rhs = self.bracket(s1, s2).scale(f) + s2.scale(self.anchor_apply(s1, f))
        return lhs - rhs


def algebroid_from_jet(gamma1):
    """Algebroid data of a first-order Dirac element on TS + E*."""
    if jet_n(gamma1.mixed, 1) != gamma1.mixed:
        raise NotFirstOrder("element carries terms beyond first order")
    sigma = ds_n(gamma1.f_part, 1)
    return AlgebroidData(gamma1.context, gamma1.v_part, gamma1.conn_part,
                         sigma)


# ---------------------------------------------------------------------------
# the graded differential on gr_l
# ---------------------------------------------------------------------------

class GradedDifferential(Record):
    """u |-> [delta, u] restricted to the homogeneity-l part of Omega_E."""

    __slots__ = ("delta", "level")

    def __call__(self, u):
        if not is_homogeneous(u, self.level):
            raise InvalidElement(
                "argument is not homogeneous of degree %d" % self.level)
        return ltimes_bracket(self.delta, u)


def graded_differential(delta, level):
    if level < 0:
        raise ValueError("grading level must be >= 0")
    return GradedDifferential(delta, level)
