"""Seeded `.lnf` programs for the benchmark workloads, each with its known answers.

`generate(name, seed, root)` returns a `Workload`: the program text the engine
receives, and one `Expect` per command saying what the report must contain.
The answers follow from how each program is built, never from running it:

* so3x2_casimir: f is a Casimir of so(3)+so(3), so the bivector is Poisson
  and every verdict is true.
* so3x2_noncasimir: one so(3) block carries unequal weights, so f is not a
  Casimir; jacobi, dirac, structure_eqs and the order-2 jet are false, while
  the first jet (which only sees f on the leaf) is true.
* obstruction_batch: each period model, identity and point is drawn so that
  affine, ratio_constancy, int_identity and monodromy answers are known.

The same (name, seed) always gives byte-identical text.
"""

import os
import random
from dataclasses import dataclass
from typing import Optional, Tuple

WORKLOADS = ("sphere_pipeline", "so3x2_casimir", "so3x2_noncasimir",
             "obstruction_batch")

SPHERE_PROGRAM = os.path.join("src", "leafnorm", "programs",
                              "sphere_pipeline.lnf")


@dataclass(frozen=True)
class Expect:
    """Known answer for one command of a program.

    `ok` is the verdict (or True for value commands that must not fail);
    `value` is the exact value string, or None when only success is known.
    `monodromy` holds (periods, transverse names, point) for a value that is
    checked symbolically against the derivatives of the periods.
    `target` names the bivector of a jacobi/dirac/structure_eqs verdict.
    """
    cmd: str
    ok: bool
    value: Optional[str] = None
    monodromy: Optional[Tuple] = None
    target: Optional[str] = None


@dataclass(frozen=True)
class Workload:
    text: str
    expects: Tuple[Expect, ...]


def generate(name, seed, root="."):
    if name == "sphere_pipeline":
        return _sphere_pipeline(root)
    rng = random.Random("%s:%d" % (name, seed))
    if name == "so3x2_casimir":
        return _so3x2(rng, casimir=True)
    if name == "so3x2_noncasimir":
        return _so3x2(rng, casimir=False)
    if name == "obstruction_batch":
        return _obstruction_batch(rng)
    raise ValueError("unknown workload %r" % name)


# --- sphere_pipeline: the shipped program, verbatim ------------------------------

def _sphere_pipeline(root):
    with open(os.path.join(root, SPHERE_PROGRAM), encoding="utf-8") as fh:
        text = fh.read()
    periods = ("PI/(1 + r^2)", "PI*r")
    expects = (
        Expect("check jacobi", True, target="p"),
        Expect("check jacobi", True, target="p0"),
        Expect("decompose", True),
        Expect("check dirac", True, target="p"),
        Expect("structure_eqs", True, target="p"),
        Expect("jet", True),
        Expect("moser", True),
        Expect("chain_map", True),
        Expect("monodromy", True, monodromy=(periods, ("r",), None)),
        Expect("ratio_constancy", True, value="(0,1): non-constant"),
        Expect("int_identity", True, value="infeasible"),
        Expect("affine", True, value="false"),
        Expect("emit", True),
    )
    return Workload(text, expects)


# --- so(3) x so(3) over a 2-dimensional base -------------------------------------

_SO3X2_LINEAR = ("y3*d/dy1^d/dy2 + y1*d/dy2^d/dy3 + y2*d/dy3^d/dy1 + "
                 "y6*d/dy4^d/dy5 + y4*d/dy5^d/dy6 + y5*d/dy6^d/dy4")


def _block(ys, weights):
    if len(set(weights)) == 1:
        w = weights[0]
        body = " + ".join("%s^2" % y for y in ys)
        return "(%s)" % body if w == 1 else "%d*(%s)" % (w, body)
    return " + ".join("%s^2" % y if w == 1 else "%d*%s^2" % (w, y)
                      for y, w in zip(ys, weights))


def _so3x2(rng, casimir):
    a = rng.randint(1, 3)
    b = rng.randint(1, 3)
    wa, wb = [a] * 3, [b] * 3
    if not casimir:
        # unequal weights inside one block break the Casimir property
        uneven = [rng.randint(1, 3) for _ in range(3)]
        while len(set(uneven)) == 1:
            uneven[rng.randrange(3)] = rng.randint(1, 3)
        if rng.random() < 0.5:
            wa = uneven
        else:
            wb = uneven
    f = "(1 + %s + %s)" % (_block(("y1", "y2", "y3"), wa),
                           _block(("y4", "y5", "y6"), wb))
    i, j = rng.sample(range(1, 7), 2)
    c = rng.randint(1, 3)
    field = ("y%d*d/dy%d" % (i, j)) if c == 1 else ("%d*y%d*d/dy%d" % (c, i, j))
    lines = [
        "# so(3)+so(3) fibers over a 2-dimensional base; f %s a Casimir."
        % ("is" if casimir else "is not"),
        "chart { base:[u, v]; fiber:[y1, y2, y3, y4, y5, y6]; }",
        "let p = (1 + u^2 + v^2)^2/4 * %s * d/du^d/dv + %s;"
        % (f, _SO3X2_LINEAR),
        "let w = %s;" % field,
        "check jacobi(p);",
        "decompose(p);",
        "check dirac(p);",
        "structure_eqs(p);",
    ]
    if casimir:
        lines += ["jet(p, 1);", "jet(p, 2);", "jet(p, 3);", "chain_map(p, w);"]
        expects = (
            Expect("check jacobi", True, target="p"),
            Expect("decompose", True),
            Expect("check dirac", True, target="p"),
            Expect("structure_eqs", True, target="p"),
            Expect("jet", True), Expect("jet", True), Expect("jet", True),
            Expect("chain_map", True),
        )
    else:
        lines += ["jet(p, 1);", "jet(p, 2);"]
        expects = (
            Expect("check jacobi", False, target="p"),
            Expect("decompose", True),
            Expect("check dirac", False, target="p"),
            Expect("structure_eqs", False, target="p"),
            Expect("jet", True),
            Expect("jet", False),
        )
    return Workload("\n".join(lines) + "\n", expects)


# --- obstruction_batch: many small period-model and identity commands ------------

OBSTRUCTION_MODELS = 150
OBSTRUCTION_IDENTITIES = 150


def _signed(rng, lo, hi):
    return rng.choice((-1, 1)) * rng.randint(lo, hi)


def _lin(terms):
    """Render sum c_i * x_i (x_i == "" for a constant) as DSL text."""
    out = ""
    for c, x in terms:
        mag = abs(c)
        body = str(mag) if not x else (x if mag == 1 else "%d*%s" % (mag, x))
        if not out:
            out = body if c > 0 else "-" + body
        else:
            out += (" + " if c > 0 else " - ") + body
    return out


def _family(rng, kind):
    """A transverse function of (r, s) of one of four shapes.

    Gradients of different shapes are never proportional, and only the
    "affine" shape is affine in (r, s); that fixes ratio_constancy and affine.
    """
    if kind == "rational_r":
        k = rng.randint(1, 3)
        return "(%s)/(1 + %s)" % (_lin([(_signed(rng, 1, 4), ""),
                                        (_signed(rng, 1, 4), "r")]),
                                  _lin([(k, "r^2")]))
    if kind == "rational_s":
        k = rng.randint(1, 3)
        return "(%s)/(1 + %s)" % (_lin([(_signed(rng, 1, 4), "s")]),
                                  _lin([(k, "s^2")]))
    if kind == "affine":
        return "(%s)" % _lin([(_signed(rng, 1, 4), "r"),
                              (_signed(rng, 1, 4), "s")])
    return "(%s)" % _lin([(_signed(rng, 1, 4), "r*s")])


_KINDS = ("rational_r", "rational_s", "affine", "bilinear")


def _period_model(rng, n, first):
    """n periods whose first shape is `first`; None makes an affine model."""
    if first is None:
        kinds = ["affine"] * n
    else:
        kinds = [first]
        for _ in range(n - 1):
            # reuse a shape so that some pairs are proportional
            kinds.append(rng.choice(kinds) if rng.random() < 0.4
                         else rng.choice(_KINDS))
    # dict, not set: iteration order must not depend on string hashing
    base = {k: _family(rng, k) for k in dict.fromkeys(kinds)}
    periods = []
    for k in kinds:
        scale = _signed(rng, 1, 5)
        offset = rng.randint(0, 3)
        coef = {1: "PI", -1: "-PI"}.get(scale, "%d*PI" % scale)
        body = "%s*%s" % (coef, base[k])
        if offset:
            body += " + PI" if offset == 1 else " + %d*PI" % offset
        periods.append(body)
    pairs = ["(%d,%d): %s" % (i, j, "constant" if kinds[i] == kinds[j]
                              else "non-constant")
             for i in range(n) for j in range(i + 1, n)]
    affine = "true" if all(k == "affine" for k in kinds) else "false"
    return periods, "; ".join(pairs), affine


# A Q-linearly independent pool (unique partial fractions), so the integer
# coefficients of an identity over any subset are determined exactly.
_BASIS_POOL = ("1", "r", "s", "r*s", "1/(1 + K*r^2)", "r/(1 + K*r^2)",
               "1/(1 + L*s^2)", "s/(1 + L*s^2)")


def _identity(rng, size, feasible):
    k, l = rng.randint(1, 3), rng.randint(1, 3)
    basis = [g.replace("K", str(k)).replace("L", str(l))
             for g in rng.sample(_BASIS_POOL, size)]
    ms = [_signed(rng, 1, 6) for _ in basis]
    terms = [(m, "(%s)" % g) for m, g in zip(ms, basis)]
    text = _lin(terms)
    if not feasible:
        # a half-integer coefficient: the unique rational solution is not integral
        text += " + 1/2*(%s)" % basis[rng.randrange(len(basis))]
    value = "m = (%s)" % ", ".join(str(m) for m in ms) if feasible \
        else "infeasible"
    return "int_identity(%s; %s);" % (text, ", ".join(basis)), value


def _shuffled(rng, cycle, n):
    """n items that repeat `cycle` in turn, in a drawn order."""
    items = [cycle[i % len(cycle)] for i in range(n)]
    rng.shuffle(items)
    return items


def _point(rng):
    def q():
        num, den = _signed(rng, 1, 5), rng.randint(1, 4)
        return str(num) if den == 1 else "%d/%d" % (num, den)
    return q(), q()


def _obstruction_batch(rng):
    lines = ["# period models in (r, s) with affine, ratio, monodromy and "
             "integer-identity checks",
             "chart { base:[]; fiber:[]; params:[r, s, PI]; }"]
    commands = []
    # every seed gets the same mix of shapes, so the cost of a program hardly
    # depends on its seed; the order and the coefficients are drawn
    sizes = _shuffled(rng, (2, 3), OBSTRUCTION_MODELS)
    firsts = _shuffled(rng, (None,) * 3 + _KINDS * 2, OBSTRUCTION_MODELS)
    for i in range(OBSTRUCTION_MODELS):
        periods, ratio, affine = _period_model(rng, sizes[i], firsts[i])
        name = "m%d" % i
        lines.append("let %s = period_model(%s);" % (name, ", ".join(periods)))
        sym = tuple(periods)
        pt = _point(rng)
        commands += [
            ("monodromy(%s);" % name,
             Expect("monodromy", True, monodromy=(sym, ("r", "s"), None))),
            ("monodromy(%s, [%s, %s]);" % ((name,) + pt),
             Expect("monodromy", True, monodromy=(sym, ("r", "s"), pt))),
            ("ratio_constancy(%s);" % name,
             Expect("ratio_constancy", True, value=ratio)),
            ("affine(%s);" % name, Expect("affine", True, value=affine)),
        ]
    shapes = _shuffled(rng, [(size, feasible) for size in (2, 3, 4)
                             for feasible in (True, False)],
                       OBSTRUCTION_IDENTITIES)
    for size, feasible in shapes:
        text, value = _identity(rng, size, feasible)
        commands.append((text, Expect("int_identity", True, value=value)))
    rng.shuffle(commands)
    lines += [c for c, _ in commands]
    return Workload("\n".join(lines) + "\n", tuple(e for _, e in commands))
