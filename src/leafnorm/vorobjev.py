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

from .errors import (
    ContextMismatch,
    DegenerateFPart,
    InvalidElement,
    LeafCheckFailed,
    NotDivisibleByT,
    NotFirstOrder,
    NotHorizontallyNondegenerate,
    WrongDegree,
)
from .linalg import MatrixRF, matrix_inverse
from .multivector import (
    DiffForm,
    Multivector,
    _merge_sorted,
    exterior_derivative,
    schouten,
)
from .omega import (
    MixedElement,
    base_form_of,
    ds_n,
    dilation,
    euler_field,
    gamma_S,
    jet_n,
    ltimes_bracket,
    p_S,
)
from .rational import Poly, Q, RatFunc

__all__ = [
    "DiracElement", "HorizontalData", "HorizontalCheck", "horizontal_blocks",
    "is_horizontally_nondegenerate", "decompose", "assemble",
    "structure_equations", "tau", "tau_inverse", "chain_map_residual",
    "LeafCheck", "leaf_check", "first_jet_model", "MoserPath", "moser_path",
    "moser_at", "moser_gamma_dot", "gamma_dot_1", "linearization_cocycle",
    "AlgebroidSection", "AlgebroidData", "algebroid_from_jet",
    "GradedDifferential", "graded_differential",
]


class DiracElement:
    """Triple (vertical bivector, connection, two-form component)."""

    __slots__ = ("v_part", "conn_part", "f_part", "_dirac_checked")

    def __init__(self, v_part, conn_part, f_part):
        ctx = conn_part.context
        if v_part.context != ctx or f_part.context != ctx:
            raise ContextMismatch("components live on different charts")
        for (I, J, K) in v_part.terms:
            if I or J or len(K) != 2:
                raise InvalidElement("vertical part must be of bidegree (0,2)")
        for (I, J, K) in f_part.terms:
            if J or K or len(I) != 2:
                raise InvalidElement("two-form part must be of bidegree (2,0)")
        if p_S(conn_part) != gamma_S(ctx):
            raise InvalidElement(
                "connection part does not project to the identity")
        for (I, J, K) in conn_part.terms:
            if not J and (len(I) != 1 or len(K) != 1):
                raise InvalidElement("connection part must be of bidegree (1,1)")
        self.v_part = v_part
        self.conn_part = conn_part
        self.f_part = f_part
        self._dirac_checked = None

    @classmethod
    def from_mixed(cls, g):
        """Split an element into its (0,2), (1,1) and (2,0) parts."""
        return cls(g.bidegree_part(0, 2), g.bidegree_part(1, 1),
                   g.bidegree_part(2, 0))

    @property
    def context(self):
        return self.conn_part.context

    def as_mixed(self):
        return self.v_part + self.conn_part + self.f_part

    def dirac_residual(self):
        g = self.as_mixed()
        return ltimes_bracket(g, g)

    def is_dirac(self):
        if self._dirac_checked is None:
            self._dirac_checked = self.dirac_residual().is_zero()
        return self._dirac_checked

    def __eq__(self, other):
        return (isinstance(other, DiracElement)
                and self.v_part == other.v_part
                and self.conn_part == other.conn_part
                and self.f_part == other.f_part)

    __hash__ = None

    def __str__(self):
        return "(v = %s, conn = %s, f = %s)" % (
            self.v_part, self.conn_part, self.f_part)

    __repr__ = __str__


class HorizontalData:
    """The three blocks of a degree-2 multivector on the chart."""

    __slots__ = ("A", "B", "C")

    def __init__(self, A, B, C):
        if not A.is_antisymmetric() or not C.is_antisymmetric():
            raise InvalidElement("A and C blocks must be antisymmetric")
        self.A = A
        self.B = B
        self.C = C


def _antisymmetric(ctx, n, entries):
    """The n x n antisymmetric matrix with the given ((i, j), c) entries."""
    z = RatFunc.zero(ctx)
    m = [[z for _ in range(n)] for _ in range(n)]
    for (i, j), c in entries:
        m[i][j] = c
        m[j][i] = -c
    return MatrixRF(ctx, m)


def _upper(m):
    """The ((i, j), entry) pairs above the diagonal of a square matrix."""
    return [((i, j), m.entries[i][j])
            for i in range(m.rows) for j in range(i + 1, m.rows)]


def horizontal_blocks(theta):
    """Read the blocks off a degree-2 multivector (uniquely)."""
    if theta.degree() not in (None, 2):
        raise WrongDegree("block decomposition needs a bivector")
    ctx = theta.context
    p, q = ctx.p, ctx.q
    z = RatFunc.zero(ctx)
    A = []
    B = [[z for _ in range(q)] for _ in range(p)]
    C = []
    for (i, j), c in theta.terms.items():
        if j < p:
            A.append(((i, j), c))
        elif i < p:
            B[i][j - p] = c
        else:
            C.append(((i - p, j - p), c))
    return HorizontalData(_antisymmetric(ctx, p, A), MatrixRF(ctx, B, q),
                          _antisymmetric(ctx, q, C))


class HorizontalCheck:
    __slots__ = ("ok", "det", "nonzero_at_leaf")

    def __init__(self, ok, det, nonzero_at_leaf):
        self.ok = ok
        self.det = det
        self.nonzero_at_leaf = nonzero_at_leaf

    def __bool__(self):
        return self.ok


def is_horizontally_nondegenerate(theta):
    """det A != 0 as a rational function; also reports support at the leaf."""
    blocks = horizontal_blocks(theta)
    det = blocks.A.det()
    if det.is_zero():
        return HorizontalCheck(False, det, False)
    at_leaf = not det.num.eval_fiber_zero().is_zero()
    return HorizontalCheck(True, det, at_leaf)


def decompose(theta):
    """Dirac element of a horizontally non-degenerate bivector."""
    ctx = theta.context
    blocks, ainv, w = _frames(theta)
    p, q = ctx.p, ctx.q
    conn_items = []
    for i in range(p):
        for a in range(q):
            conn_items.append((((i,), (), (p + a,)), w.entries[i][a]))
    conn = gamma_S(ctx) + MixedElement.from_terms(ctx, conn_items)
    vmat = blocks.C + blocks.B.transpose() * ainv * blocks.B
    v_part = MixedElement.from_terms(ctx, [
        (((), (), (p + a, p + b)), c) for (a, b), c in _upper(vmat)])
    f_part = MixedElement.from_terms(ctx, [
        ((ij, (), ()), c) for ij, c in _upper(ainv)])
    return DiracElement(v_part, conn, f_part)


def assemble(gamma):
    """The bivector of a Dirac element (exact inverse of decompose)."""
    ctx = gamma.context
    p, q = ctx.p, ctx.q
    F = _antisymmetric(ctx, p, ((I, c) for (I, _, _), c
                                in gamma.f_part.terms.items()))
    if F.det().is_zero():
        raise DegenerateFPart(
            "two-form component is degenerate as a rational-function matrix")
    A = matrix_inverse(F)
    z = RatFunc.zero(ctx)
    W = [[z for _ in range(q)] for _ in range(p)]
    for (I, J, K), c in gamma.conn_part.terms.items():
        if J:
            continue
        W[I[0]][K[0] - p] = c
    W = MatrixRF(ctx, W, q)
    B = A * W
    vmat = _antisymmetric(ctx, q, (((K[0] - p, K[1] - p), c) for (_, _, K), c
                                   in gamma.v_part.terms.items()))
    C = vmat - B.transpose() * F * B
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
    r3 = ltimes_bracket(conn, conn).scale(Q(1, 2)) + ltimes_bracket(v, f)
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
                merged, s = _merge_sorted(tup, (h,))
                if merged is None:
                    continue
                v = cc if ch is None else cc * ch
                new_parts.append((merged, v if s > 0 else -v))
        parts = new_parts
    return parts


def _replacements(matrix, offset, keep):
    """Row g of the matrix as a replacement of generator g: the sum of
    matrix[g][k] times generator offset + k over the nonzero entries, plus g
    itself when keep is set."""
    table = {}
    for g, row in enumerate(matrix.entries):
        repl = [(g, None)] if keep else []
        for k, e in enumerate(row):
            if not e.is_zero():
                repl.append((offset + k, e))
        table[g] = tuple(repl)
    return table


def _substitute_vec_gens(mv, repl):
    """Expand generators of a multivector through linear replacements."""
    return Multivector.from_terms(mv.context, [
        part for key, c in mv.terms.items() for part in _expand(key, c, repl)])


def _frames(theta):
    blocks = horizontal_blocks(theta)
    if blocks.A.det().is_zero():
        raise NotHorizontallyNondegenerate(
            "horizontal block is singular as a rational function")
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
    framed = _substitute_vec_gens(u, _replacements(-w, p, True))
    # map hor_i -> -sum_j F[i][j] dx^j, keep verticals; forms precede verticals
    to_forms = _replacements(-ainv, 0, False)
    items = []
    for key, c in framed.terms.items():
        vert = tuple(g for g in key if g >= p)
        for tup, cc in _expand([g for g in key if g < p], c, to_forms):
            items.append(((tup, (), vert), cc))
    return MixedElement.from_terms(ctx, items)


def tau_inverse(theta, e):
    """Inverse of tau on form-valued verticals: dx^j -> -sum A[j][i] hor_i."""
    ctx = theta.context
    p = ctx.p
    blocks, ainv, w = _frames(theta)
    to_frame = _replacements(-blocks.A, 0, False)
    items = []
    for (I, J, K), c in e.terms.items():
        if J:
            raise InvalidElement("tau inverse expects an element with no "
                                 "horizontal lift terms")
        for tup, cc in _expand(I, c, to_frame):
            merged, s = _merge_sorted(tup, K)
            if merged is None:
                continue
            items.append((merged, cc if s > 0 else -cc))
    framed = Multivector.from_terms(ctx, items)
    # hor_i = d/dx_i + sum W[i][a] d/dy_a
    return _substitute_vec_gens(framed, _replacements(w, p, True))


def chain_map_residual(theta, u):
    """tau([theta, u]) - [gamma, tau(u)]; vanishes when theta is Poisson."""
    gamma = decompose(theta)
    lhs = tau(theta, schouten(theta, u))
    rhs = ltimes_bracket(gamma.as_mixed(), tau(theta, u))
    return lhs - rhs


# ---------------------------------------------------------------------------
# leaves, jets, the Moser path
# ---------------------------------------------------------------------------

class LeafCheck:
    __slots__ = ("ok", "omega")

    def __init__(self, ok, omega):
        self.ok = ok
        self.omega = omega

    def __bool__(self):
        return self.ok


def leaf_check(gamma):
    """S is a symplectic leaf iff gamma|_S is pure (2,0); then
    omega_S = -gamma|_S, verified closed and non-degenerate."""
    g0 = ds_n(gamma.as_mixed(), 0)
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
    out = DiracElement.from_mixed(jet_n(gamma.as_mixed(), 1))
    if not out.is_dirac():
        raise InvalidElement("first jet fails the Dirac equation")
    return out


class MoserPath:
    """The family gamma_t = gamma|_S + (t phi_t(gamma) - gamma|_S)/t."""

    __slots__ = ("gamma_t", "param", "context", "base_context")

    def __init__(self, gamma_t, param, base_context):
        self.gamma_t = gamma_t
        self.param = param
        self.context = gamma_t.context
        self.base_context = base_context


def moser_path(gamma, param="t", truncation_order=None):
    if not leaf_check(gamma).ok:
        raise LeafCheckFailed("the zero section is not a symplectic leaf")
    base_ctx = gamma.context
    g = gamma.as_mixed()
    if truncation_order is not None:
        g = jet_n(g, truncation_order)
    ctx_t = base_ctx.with_param(param)
    t = RatFunc.var(ctx_t, param)
    g_t = g.cast(ctx_t)
    tphi = dilation(g_t, t).scale(t)
    g0 = ds_n(g, 0).cast(ctx_t)
    diff = tphi - g0
    t_index = ctx_t.var_index(param)
    items = []
    for key, c in diff.terms.items():
        c2 = c / t
        den0 = Poly(ctx_t, {m: v for m, v in c2.den.terms.items()
                            if not m[t_index]})
        if den0.is_zero():
            raise NotDivisibleByT(
                "path coefficient is singular at %s = 0" % param)
        items.append((key, c2))
    path = g0 + MixedElement.from_terms(ctx_t, items)
    return MoserPath(DiracElement.from_mixed(path), param, base_ctx)


def moser_at(path, value):
    """Evaluate the path at a rational parameter value, back on the chart."""
    g = path.gamma_t.as_mixed().substitute({path.param: Q(value)})
    return DiracElement.from_mixed(g.restrict(path.base_context))


def moser_gamma_dot(path):
    """Derivative of the path in the formal parameter."""
    param = path.param
    return path.gamma_t.as_mixed().map_coeffs(lambda c: c.derivative(param))


def gamma_dot_1(gamma):
    """-omega_S - F + pi^v + [Euler, gamma]; the Moser velocity at t = 1."""
    if not leaf_check(gamma).ok:
        raise LeafCheckFailed("the zero section is not a symplectic leaf")
    g = gamma.as_mixed()
    g0 = ds_n(g, 0)
    e = euler_field(gamma.context)
    return g0 - gamma.f_part + gamma.v_part + ltimes_bracket(e, g)


def linearization_cocycle(theta, omega):
    """theta - wedge^2 theta^#(omega), verified closed for d_theta."""
    from .multivector import sharp
    ctx = theta.context
    total = Multivector.zero(ctx)
    for (i, j), c in omega.terms.items():
        di = DiffForm(ctx, {(i,): RatFunc.one(ctx)})
        dj = DiffForm(ctx, {(j,): RatFunc.one(ctx)})
        total = total + sharp(theta, di).wedge(sharp(theta, dj)).scale(c)
    cocycle = theta - total
    if not schouten(theta, cocycle).is_zero():
        raise InvalidElement("linearization cocycle is not d_pi-closed")
    return cocycle


# ---------------------------------------------------------------------------
# the induced algebroid on TS + E*
# ---------------------------------------------------------------------------

class AlgebroidSection:
    """Section X + alpha of TS + E*: base vector coefficients and the
    coefficients of the fiber-linear function representing alpha."""

    __slots__ = ("x", "eps")

    def __init__(self, x, eps):
        self.x = list(x)
        self.eps = list(eps)

    def __add__(self, other):
        return AlgebroidSection([a + b for a, b in zip(self.x, other.x)],
                                [a + b for a, b in zip(self.eps, other.eps)])

    def __sub__(self, other):
        return AlgebroidSection([a - b for a, b in zip(self.x, other.x)],
                                [a - b for a, b in zip(self.eps, other.eps)])

    def scale(self, f):
        return AlgebroidSection([a * f for a in self.x],
                                [a * f for a in self.eps])

    def is_zero(self):
        return all(a.is_zero() for a in self.x) and \
            all(a.is_zero() for a in self.eps)

    def __eq__(self, other):
        return (isinstance(other, AlgebroidSection)
                and self.x == other.x and self.eps == other.eps)

    __hash__ = None

    def __repr__(self):
        return "AlgebroidSection(x=%r, eps=%r)" % (self.x, self.eps)


class AlgebroidData:
    """Bracket, anchor and verification helpers for the first-jet algebroid."""

    def __init__(self, context, v_part, conn_part, sigma):
        self.context = context
        self.v_part = v_part
        self.conn_part = conn_part
        self.sigma = sigma

    # -- frame -----------------------------------------------------------

    def zero_section(self):
        ctx = self.context
        z = RatFunc.zero(ctx)
        return AlgebroidSection([z] * ctx.p, [z] * ctx.q)

    def frame(self):
        ctx = self.context
        out = []
        for i in range(ctx.p):
            s = self.zero_section()
            s.x[i] = RatFunc.one(ctx)
            out.append(s)
        for a in range(ctx.q):
            s = self.zero_section()
            s.eps[a] = RatFunc.one(ctx)
            out.append(s)
        return out

    def anchor(self, s):
        return list(s.x)

    def anchor_apply(self, s, f):
        ctx = self.context
        out = RatFunc.zero(ctx)
        for i in range(ctx.p):
            out = out + s.x[i] * f.derivative(ctx.base[i])
        return out

    # -- bracket ------------------------------------------------------------

    def _alpha_scalar(self, s):
        ctx = self.context
        total = RatFunc.zero(ctx)
        for a in range(ctx.q):
            total = total + s.eps[a] * RatFunc.var(ctx, ctx.fiber[a])
        return MixedElement.scalar(total)

    def _eval_one_form(self, elem, s):
        """Contract the (1,0) part of elem with the TS part of s."""
        ctx = self.context
        out = RatFunc.zero(ctx)
        for (I, J, K), c in elem.terms.items():
            if J or K or len(I) != 1:
                continue
            out = out + c * s.x[I[0]]
        return out

    def _sigma_eval(self, s1, s2):
        ctx = self.context
        out = RatFunc.zero(ctx)
        for (I, _, _), c in self.sigma.terms.items():
            i, j = I
            out = out + c * (s1.x[i] * s2.x[j] - s1.x[j] * s2.x[i])
        return out

    def bracket(self, s1, s2):
        ctx = self.context
        # TS part: the Lie bracket on the base
        xout = []
        for j in range(ctx.p):
            acc = RatFunc.zero(ctx)
            for i in range(ctx.p):
                acc = acc + s1.x[i] * s2.x[j].derivative(ctx.base[i])
                acc = acc - s2.x[i] * s1.x[j].derivative(ctx.base[i])
            xout.append(acc)
        # E* part, assembled as a fiber-linear function
        a1 = self._alpha_scalar(s1)
        a2 = self._alpha_scalar(s2)
        h = MixedElement.scalar(self._sigma_eval(s1, s2))
        # [alpha, beta]_A = [beta, [pi^v, alpha]]
        h = h + ltimes_bracket(a2, ltimes_bracket(self.v_part, a1))
        # [Gamma, alpha] is the covariant differential, so its evaluation on X
        # is [X, alpha]_A; the Leibniz rule for the anchor pins this reading
        g1 = ltimes_bracket(self.conn_part, a1)
        g2 = ltimes_bracket(self.conn_part, a2)
        h = h + MixedElement.scalar(self._eval_one_form(g2, s1))
        h = h - MixedElement.scalar(self._eval_one_form(g1, s2))
        hc = h.scalar_value()
        eps = [hc.derivative(name) for name in ctx.fiber]
        # the data is first order, so h must be exactly fiber-linear
        rebuilt = RatFunc.zero(ctx)
        for a, name in enumerate(ctx.fiber):
            rebuilt = rebuilt + eps[a] * RatFunc.var(ctx, name)
        if rebuilt != hc:
            raise NotFirstOrder("bracket left the fiber-linear sections")
        return AlgebroidSection(xout, eps)

    # -- verification -----------------------------------------------------------

    def jacobi_residual(self, s1, s2, s3):
        return self.bracket(self.bracket(s1, s2), s3) + \
            self.bracket(self.bracket(s2, s3), s1) + \
            self.bracket(self.bracket(s3, s1), s2)

    def jacobi_residuals(self):
        frame = self.frame()
        out = []
        n = len(frame)
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    out.append(self.jacobi_residual(frame[i], frame[j],
                                                    frame[k]))
        return out

    def leibniz_residual(self, s1, s2, f):
        lhs = self.bracket(s1, s2.scale(f))
        rhs = self.bracket(s1, s2).scale(f) + s2.scale(self.anchor_apply(s1, f))
        return lhs - rhs


def algebroid_from_jet(gamma1):
    """Algebroid data of a first-order Dirac element on TS + E*."""
    g = gamma1.as_mixed()
    if jet_n(g, 1) != g:
        raise NotFirstOrder("element carries terms beyond first order")
    sigma = ds_n(gamma1.f_part, 1)
    return AlgebroidData(gamma1.context, gamma1.v_part, gamma1.conn_part,
                         sigma)


# ---------------------------------------------------------------------------
# the graded differential on gr_l
# ---------------------------------------------------------------------------

class GradedDifferential:
    """u |-> [delta, u] restricted to the homogeneity-l part of Omega_E."""

    __slots__ = ("delta", "level")

    def __init__(self, delta, level):
        self.delta = delta
        self.level = level

    def __call__(self, u):
        from .omega import is_homogeneous
        if not is_homogeneous(u, self.level):
            raise InvalidElement(
                "argument is not homogeneous of degree %d" % self.level)
        return ltimes_bracket(self.delta, u)


def graded_differential(delta, level):
    if level < 0:
        raise ValueError("grading level must be >= 0")
    return GradedDifferential(delta, level)
