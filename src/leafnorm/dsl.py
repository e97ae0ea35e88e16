"""Text DSL: charts, bindings, verification commands.

Grammar (one chart per program, bindings before commands):

    program   := chart_decl binding* command*
    chart_decl:= "chart" "{" "base:" idlist ";" "fiber:" idlist ";"
                 ("params:" idlist ";")? "}"
    idlist    := "[" (ID ("," ID)*)? "]"
    binding   := "let" ID "=" rhs ";"
    rhs       := catalog | expr
    catalog   := "so3" ["(" ")"] | "heisenberg3" ["(" ")"]
               | "sphere_so3" "(" ("true"|"false") ")"
               | "product" "(" ID "," ID ")"
               | "period_model" "(" expr ("," expr)* ")"
    command   := "check" ("jacobi"|"dirac") "(" ID ")" ";"
               | "decompose" "(" ID ")" ";" | "structure_eqs" "(" ID ")" ";"
               | "jet" "(" ID "," INT ")" ";" | "moser" "(" ID ")" ";"
               | "chain_map" "(" ID "," ID ")" ";"
               | "monodromy" "(" ID ("," point)? ")" ";"
               | "ratio_constancy" "(" ID ")" ";" | "affine" "(" ID ")" ";"
               | "int_identity" "(" expr ";" expr ("," expr)* ")" ";"
               | "emit" "(" ID ")" ";"
    point     := "[" expr ("," expr)* "]"

Expressions are rational arithmetic (integer literals only; rationals are
quotients) over identifiers and the basis symbols `d/dX` (contravariant) and
`dx[X]` (covariant); `^` is the wedge of basis factors and the integer power
of scalars.  `#` starts a line comment.
"""

from dataclasses import dataclass
from typing import Optional, Tuple

from .errors import ChartRedeclared, DslSyntaxError, UnknownIdentifier

__all__ = [
    "tokenize", "parse", "print_program", "Program", "ChartDecl", "Binding",
    "ENum", "EVar", "EBasisVec", "EBasisForm", "ENeg", "EBin", "Catalog",
    "CmdCheckJacobi", "CmdCheckDirac", "CmdDecompose", "CmdStructureEqs",
    "CmdJet", "CmdMoser", "CmdChainMap", "CmdMonodromy", "CmdRatioConstancy",
    "CmdAffine", "CmdIntIdentity", "CmdEmit",
]


# --- AST -----------------------------------------------------------------------

@dataclass(frozen=True)
class ENum:
    value: int


@dataclass(frozen=True)
class EVar:
    name: str


@dataclass(frozen=True)
class EBasisVec:
    name: str


@dataclass(frozen=True)
class EBasisForm:
    name: str


@dataclass(frozen=True)
class ENeg:
    arg: "object"


@dataclass(frozen=True)
class EBin:
    op: str
    left: "object"
    right: "object"


@dataclass(frozen=True)
class Catalog:
    name: str
    args: Tuple


@dataclass(frozen=True)
class ChartDecl:
    base: Tuple[str, ...]
    fiber: Tuple[str, ...]
    params: Tuple[str, ...]


@dataclass(frozen=True)
class Binding:
    name: str
    rhs: "object"


@dataclass(frozen=True)
class CmdCheckJacobi:
    target: str


@dataclass(frozen=True)
class CmdCheckDirac:
    target: str


@dataclass(frozen=True)
class CmdDecompose:
    target: str


@dataclass(frozen=True)
class CmdStructureEqs:
    target: str


@dataclass(frozen=True)
class CmdJet:
    target: str
    order: int


@dataclass(frozen=True)
class CmdMoser:
    target: str


@dataclass(frozen=True)
class CmdChainMap:
    target: str
    argument: str


@dataclass(frozen=True)
class CmdMonodromy:
    target: str
    point: Optional[Tuple]


@dataclass(frozen=True)
class CmdRatioConstancy:
    target: str


@dataclass(frozen=True)
class CmdAffine:
    target: str


@dataclass(frozen=True)
class CmdIntIdentity:
    func: "object"
    basis: Tuple


@dataclass(frozen=True)
class CmdEmit:
    target: str


@dataclass(frozen=True)
class Program:
    chart: ChartDecl
    bindings: Tuple[Binding, ...]
    commands: Tuple


CATALOG_NAMES = ("so3", "heisenberg3", "sphere_so3", "product", "period_model")


# --- lexer ------------------------------------------------------------------------

_PUNCT = "{}[]();,="
_OPS = "+-*/^"

# Deepest expression tree, and deepest parenthesis nesting, the parser
# accepts.  Parsing, evaluation and printing recurse once per level, and at
# this depth all three stay well inside Python's default recursion limit.
MAX_DEPTH = 100


class Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col

    def __repr__(self):
        return "Token(%s, %r, %d:%d)" % (self.kind, self.text, self.line,
                                         self.col)


def _ident_start(c):
    return c.isalpha() or c == "_"


def _ident_char(c):
    return c.isalnum() or c == "_"


def tokenize(source):
    tokens = []
    i = 0
    line = 1
    col = 1
    n = len(source)
    while i < n:
        c = source[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and source[i] != "\n":
                i += 1
            continue
        # the contravariant basis symbol d/dX
        if source.startswith("d/d", i) and i + 3 < n and \
                _ident_start(source[i + 3]):
            j = i + 3
            while j < n and _ident_char(source[j]):
                j += 1
            tokens.append(Token("DDVAR", source[i + 3:j], line, col))
            col += j - i
            i = j
            continue
        if c.isdigit():
            j = i
            while j < n and source[j].isdigit():
                j += 1
            tokens.append(Token("INT", source[i:j], line, col))
            col += j - i
            i = j
            continue
        if _ident_start(c):
            j = i
            while j < n and _ident_char(source[j]):
                j += 1
            tokens.append(Token("IDENT", source[i:j], line, col))
            col += j - i
            i = j
            continue
        if c in _PUNCT or c in _OPS or c == ":":
            tokens.append(Token(c, c, line, col))
            i += 1
            col += 1
            continue
        raise DslSyntaxError("unexpected character %r" % c, line, col)
    tokens.append(Token("EOF", "", line, col))
    return tokens


# --- parser -------------------------------------------------------------------------

class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.bound = set()
        # the '-', '^' and '(' levels open on the way down, so that hostile
        # nesting stops before the recursion gets deep
        self.ops = 0
        self.parens = 0

    def peek(self, ahead=0):
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self):
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def expect(self, kind, what=None):
        tok = self.peek()
        if tok.kind != kind:
            raise DslSyntaxError(
                "expected %s, found %r" % (what or kind, tok.text or "end of "
                                           "input"), tok.line, tok.col)
        return self.next()

    def expect_word(self, word):
        tok = self.peek()
        if tok.kind != "IDENT" or tok.text != word:
            raise DslSyntaxError("expected %r, found %r"
                                 % (word, tok.text or "end of input"),
                                 tok.line, tok.col)
        return self.next()

    # -- program -----------------------------------------------------------

    def program(self):
        chart = self.chart_decl()
        bindings = []
        commands = []
        while self.peek().kind != "EOF":
            tok = self.peek()
            if tok.kind == "IDENT" and tok.text == "chart":
                raise ChartRedeclared("only one chart per program",
                                      tok.line, tok.col)
            if tok.kind == "IDENT" and tok.text == "let":
                if commands:
                    raise DslSyntaxError(
                        "bindings must precede commands", tok.line, tok.col)
                bindings.append(self.binding())
            else:
                commands.append(self.command())
        return Program(chart, tuple(bindings), tuple(commands))

    def chart_decl(self):
        self.expect_word("chart")
        self.expect("{")
        self.expect_word("base")
        self.expect(":")
        base = self.idlist()
        self.expect(";")
        self.expect_word("fiber")
        self.expect(":")
        fiber = self.idlist()
        self.expect(";")
        params = ()
        if self.peek().kind == "IDENT" and self.peek().text == "params":
            self.next()
            self.expect(":")
            params = self.idlist()
            self.expect(";")
        self.expect("}")
        return ChartDecl(base, fiber, params)

    def idlist(self):
        self.expect("[")
        names = []
        if self.peek().kind != "]":
            names.append(self.expect("IDENT", "identifier").text)
            while self.peek().kind == ",":
                self.next()
                names.append(self.expect("IDENT", "identifier").text)
        self.expect("]")
        return tuple(names)

    def binding(self):
        self.expect_word("let")
        name = self.expect("IDENT", "binding name").text
        self.expect("=")
        rhs = self.rhs()
        self.expect(";")
        self.bound.add(name)
        return Binding(name, rhs)

    def rhs(self):
        tok = self.peek()
        if tok.kind == "IDENT" and tok.text in CATALOG_NAMES:
            return self.catalog()
        return self.expr()

    def catalog(self):
        tok = self.next()
        name = tok.text
        if name in ("so3", "heisenberg3"):
            if self.peek().kind == "(":
                self.next()
                self.expect(")")
            return Catalog(name, ())
        self.expect("(")
        if name == "sphere_so3":
            flag = self.expect("IDENT", "true or false")
            if flag.text not in ("true", "false"):
                raise DslSyntaxError("expected true or false, found %r"
                                     % flag.text, flag.line, flag.col)
            self.expect(")")
            return Catalog(name, (flag.text == "true",))
        if name == "product":
            a = self._bound_name()
            self.expect(",")
            b = self._bound_name()
            self.expect(")")
            return Catalog(name, (a, b))
        # period_model
        exprs = [self.expr()]
        while self.peek().kind == ",":
            self.next()
            exprs.append(self.expr())
        self.expect(")")
        return Catalog(name, tuple(exprs))

    def _bound_name(self):
        tok = self.expect("IDENT", "bound name")
        if tok.text not in self.bound:
            raise UnknownIdentifier("name %r is not bound" % tok.text,
                                    tok.line, tok.col)
        return tok.text

    # -- commands -------------------------------------------------------------

    def command(self):
        tok = self.expect("IDENT", "command")
        word = tok.text
        if word == "check":
            sub = self.expect("IDENT", "jacobi or dirac")
            if sub.text == "jacobi":
                out = CmdCheckJacobi(self._paren_name())
            elif sub.text == "dirac":
                out = CmdCheckDirac(self._paren_name())
            else:
                raise DslSyntaxError("expected jacobi or dirac after check, "
                                     "found %r" % sub.text, sub.line, sub.col)
        elif word == "decompose":
            out = CmdDecompose(self._paren_name())
        elif word == "structure_eqs":
            out = CmdStructureEqs(self._paren_name())
        elif word == "jet":
            self.expect("(")
            name = self._bound_name()
            self.expect(",")
            order = int(self.expect("INT", "jet order").text)
            self.expect(")")
            out = CmdJet(name, order)
        elif word == "moser":
            out = CmdMoser(self._paren_name())
        elif word == "chain_map":
            self.expect("(")
            name = self._bound_name()
            self.expect(",")
            arg = self._bound_name()
            self.expect(")")
            out = CmdChainMap(name, arg)
        elif word == "monodromy":
            self.expect("(")
            name = self._bound_name()
            point = None
            if self.peek().kind == ",":
                self.next()
                self.expect("[")
                entries = [self.expr()]
                while self.peek().kind == ",":
                    self.next()
                    entries.append(self.expr())
                self.expect("]")
                point = tuple(entries)
            self.expect(")")
            out = CmdMonodromy(name, point)
        elif word == "ratio_constancy":
            out = CmdRatioConstancy(self._paren_name())
        elif word == "affine":
            out = CmdAffine(self._paren_name())
        elif word == "int_identity":
            self.expect("(")
            func = self.expr()
            self.expect(";")
            basis = [self.expr()]
            while self.peek().kind == ",":
                self.next()
                basis.append(self.expr())
            self.expect(")")
            out = CmdIntIdentity(func, tuple(basis))
        elif word == "emit":
            out = CmdEmit(self._paren_name())
        else:
            raise DslSyntaxError("unknown command %r" % word, tok.line,
                                 tok.col)
        self.expect(";")
        return out

    def _paren_name(self):
        self.expect("(")
        name = self._bound_name()
        self.expect(")")
        return name

    # -- expressions --------------------------------------------------------------

    def expr(self):
        # a tree with at most MAX_DEPTH tokens is at most that deep, so only
        # longer expressions pay for the walk
        tok = self.peek()
        start = self.pos
        node = self._sum()
        if self.pos - start > MAX_DEPTH and _depth(node) > MAX_DEPTH:
            self._too_deep(tok)
        return node

    def _too_deep(self, tok):
        raise DslSyntaxError("expression nested deeper than %d levels"
                             % MAX_DEPTH, tok.line, tok.col)

    def _sum(self):
        node = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.next().kind
            node = EBin(op, node, self.term())
        return node

    def term(self):
        node = self.unary()
        while self.peek().kind in ("*", "/"):
            op = self.next().kind
            node = EBin(op, node, self.unary())
        return node

    def unary(self):
        tok = self.peek()
        while tok.kind == "+":
            self.next()
            tok = self.peek()
        if tok.kind != "-":
            return self.power()
        self.next()
        self.ops += 1
        if self.ops > MAX_DEPTH:
            self._too_deep(tok)
        node = ENeg(self.unary())
        self.ops -= 1
        return node

    def power(self):
        node = self.atom()
        while self.peek().kind == "^":
            tok = self.next()
            self.ops += 1
            if self.ops > MAX_DEPTH:
                self._too_deep(tok)
            node = EBin("^", node, self.unary())
            self.ops -= 1
        return node

    def atom(self):
        tok = self.peek()
        if tok.kind == "INT":
            self.next()
            return ENum(int(tok.text))
        if tok.kind == "DDVAR":
            self.next()
            return EBasisVec(tok.text)
        if tok.kind == "IDENT":
            if tok.text == "dx" and self.peek(1).kind == "[":
                self.next()
                self.next()
                name = self.expect("IDENT", "variable name").text
                self.expect("]")
                return EBasisForm(name)
            self.next()
            return EVar(tok.text)
        if tok.kind == "(":
            self.next()
            self.parens += 1
            if self.parens > MAX_DEPTH:
                self._too_deep(tok)
            node = self._sum()
            self.parens -= 1
            self.expect(")")
            return node
        raise DslSyntaxError("unexpected token %r"
                             % (tok.text or "end of input"),
                             tok.line, tok.col)


def _depth(node):
    """Depth of an expression tree, found without recursion."""
    depth = 0
    stack = [(node, 0)]
    while stack:
        node, d = stack.pop()
        depth = max(depth, d)
        if isinstance(node, EBin):
            stack += [(node.left, d + 1), (node.right, d + 1)]
        elif isinstance(node, ENeg):
            stack.append((node.arg, d + 1))
    return depth


def parse(source):
    """Parse DSL text into a Program; positions are carried by errors."""
    return _Parser(tokenize(source)).program()


# --- pretty printer -----------------------------------------------------------------

def _pexpr(e):
    if isinstance(e, ENum):
        return str(e.value)
    if isinstance(e, EVar):
        return e.name
    if isinstance(e, EBasisVec):
        return "d/d%s" % e.name
    if isinstance(e, EBasisForm):
        return "dx[%s]" % e.name
    if isinstance(e, ENeg):
        return "(-%s)" % _pexpr(e.arg)
    if isinstance(e, EBin):
        return "(%s %s %s)" % (_pexpr(e.left), e.op, _pexpr(e.right))
    raise TypeError("not an expression node: %r" % (e,))


def _prhs(rhs):
    if isinstance(rhs, Catalog):
        if rhs.name in ("so3", "heisenberg3"):
            return rhs.name
        if rhs.name == "sphere_so3":
            return "sphere_so3(%s)" % ("true" if rhs.args[0] else "false")
        if rhs.name == "product":
            return "product(%s, %s)" % rhs.args
        return "period_model(%s)" % ", ".join(_pexpr(e) for e in rhs.args)
    return _pexpr(rhs)


def _pcmd(cmd):
    if isinstance(cmd, CmdCheckJacobi):
        return "check jacobi(%s);" % cmd.target
    if isinstance(cmd, CmdCheckDirac):
        return "check dirac(%s);" % cmd.target
    if isinstance(cmd, CmdDecompose):
        return "decompose(%s);" % cmd.target
    if isinstance(cmd, CmdStructureEqs):
        return "structure_eqs(%s);" % cmd.target
    if isinstance(cmd, CmdJet):
        return "jet(%s, %d);" % (cmd.target, cmd.order)
    if isinstance(cmd, CmdMoser):
        return "moser(%s);" % cmd.target
    if isinstance(cmd, CmdChainMap):
        return "chain_map(%s, %s);" % (cmd.target, cmd.argument)
    if isinstance(cmd, CmdMonodromy):
        if cmd.point is None:
            return "monodromy(%s);" % cmd.target
        return "monodromy(%s, [%s]);" % (
            cmd.target, ", ".join(_pexpr(e) for e in cmd.point))
    if isinstance(cmd, CmdRatioConstancy):
        return "ratio_constancy(%s);" % cmd.target
    if isinstance(cmd, CmdAffine):
        return "affine(%s);" % cmd.target
    if isinstance(cmd, CmdIntIdentity):
        return "int_identity(%s; %s);" % (
            _pexpr(cmd.func), ", ".join(_pexpr(e) for e in cmd.basis))
    if isinstance(cmd, CmdEmit):
        return "emit(%s);" % cmd.target
    raise TypeError("not a command node: %r" % (cmd,))


def print_program(p):
    """Canonical source text; parse(print_program(p)) reproduces the AST."""
    lines = []
    parts = ["base:[%s];" % ", ".join(p.chart.base),
             "fiber:[%s];" % ", ".join(p.chart.fiber)]
    if p.chart.params:
        parts.append("params:[%s];" % ", ".join(p.chart.params))
    lines.append("chart { %s }" % " ".join(parts))
    for b in p.bindings:
        lines.append("let %s = %s;" % (b.name, _prhs(b.rhs)))
    for c in p.commands:
        lines.append(_pcmd(c))
    return "\n".join(lines) + "\n"
