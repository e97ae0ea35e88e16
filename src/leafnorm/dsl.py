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
               | "product" "(" NAME "," NAME ")" | "period_model" "(" exprs ")"
    command   := "check" ("jacobi"|"dirac") "(" NAME ")" ";"
               | ("decompose"|"structure_eqs"|"moser") "(" NAME ")" ";"
               | ("ratio_constancy"|"affine"|"emit") "(" NAME ")" ";"
               | "jet" "(" NAME "," INT ")" ";"
               | "chain_map" "(" NAME "," NAME ")" ";"
               | "monodromy" "(" NAME ("," "[" exprs "]")? ")" ";"
               | "int_identity" "(" expr ";" exprs ")" ";"
    exprs     := expr ("," expr)*

NAME is an ID bound by an earlier binding, INT is [0-9]+, and an ID is a
letter or "_" followed by letters, digits and "_"; a chart lists each ID at
most once.  GRAMMAR declares each catalog entry and command once; the parser
and the printer both read it.

Expressions are rational arithmetic (integer literals only; rationals are
quotients) over identifiers and the basis symbols `d/dX` (contravariant) and
`dx[X]` (covariant); `^` is the wedge of basis factors and the integer power
of scalars.  `#` starts a line comment.
"""

import re

from .errors import ChartRedeclared, DslSyntaxError, Record, UnknownIdentifier

__all__ = [
    "tokenize", "parse", "print_program", "GRAMMAR", "Program", "ChartDecl",
    "Binding", "ENum", "EVar", "EBasisVec", "EBasisForm", "ENeg", "EBin",
    "Catalog", "CmdCheckJacobi", "CmdCheckDirac", "CmdDecompose",
    "CmdStructureEqs", "CmdJet", "CmdMoser", "CmdChainMap", "CmdMonodromy",
    "CmdRatioConstancy", "CmdAffine", "CmdIntIdentity", "CmdEmit",
]


# --- AST -----------------------------------------------------------------------

def _node(name, fields):
    """A Record class with the given space-separated field names."""
    return type(name, (Record,), {"__slots__": tuple(fields.split())})


# expressions: value an int, names strs, op one of + - * / ^
ENum = _node("ENum", "value")
EVar = _node("EVar", "name")
EBasisVec = _node("EBasisVec", "name")
EBasisForm = _node("EBasisForm", "name")
ENeg = _node("ENeg", "arg")
EBin = _node("EBin", "op left right")
Catalog = _node("Catalog", "name args")  # words, tuple of arguments
ChartDecl = _node("ChartDecl", "base fiber params")  # tuples of names
Binding = _node("Binding", "name rhs")
# commands: target and argument are bound names, point None or a tuple
CmdCheckJacobi = _node("CmdCheckJacobi", "target")
CmdCheckDirac = _node("CmdCheckDirac", "target")
CmdDecompose = _node("CmdDecompose", "target")
CmdStructureEqs = _node("CmdStructureEqs", "target")
CmdJet = _node("CmdJet", "target order")
CmdMoser = _node("CmdMoser", "target")
CmdChainMap = _node("CmdChainMap", "target argument")
CmdMonodromy = _node("CmdMonodromy", "target point")
CmdRatioConstancy = _node("CmdRatioConstancy", "target")
CmdAffine = _node("CmdAffine", "target")
CmdIntIdentity = _node("CmdIntIdentity", "func basis")  # expr, tuple
CmdEmit = _node("CmdEmit", "target")
Program = _node("Program", "chart bindings commands")


# Every catalog entry and command: its words, its AST node and one argument
# kind per argument (see _ARGS).  A command node takes the arguments as its
# fields, in order; a catalog entry becomes Catalog(words, arguments).
GRAMMAR = (
    ("so3", Catalog, ()),
    ("heisenberg3", Catalog, ()),
    ("sphere_so3", Catalog, ("bool",)),
    ("product", Catalog, ("name", "name")),
    ("period_model", Catalog, ("exprs",)),
    ("check jacobi", CmdCheckJacobi, ("name",)),
    ("check dirac", CmdCheckDirac, ("name",)),
    ("decompose", CmdDecompose, ("name",)),
    ("structure_eqs", CmdStructureEqs, ("name",)),
    ("jet", CmdJet, ("name", "int")),
    ("moser", CmdMoser, ("name",)),
    ("chain_map", CmdChainMap, ("name", "name")),
    ("monodromy", CmdMonodromy, ("name", "point")),
    ("ratio_constancy", CmdRatioConstancy, ("name",)),
    ("affine", CmdAffine, ("name",)),
    ("int_identity", CmdIntIdentity, ("expr", "basis")),
    ("emit", CmdEmit, ("name",)),
)

_CATALOG = {words: kinds for words, node, kinds in GRAMMAR if node is Catalog}
_COMMANDS = {words: (node, kinds) for words, node, kinds in GRAMMAR
             if node is not Catalog}
_WORDS = {node: (words, kinds) for words, (node, kinds) in _COMMANDS.items()}


# --- lexer ------------------------------------------------------------------------

# Deepest expression tree, and deepest parenthesis nesting, the parser
# accepts.  Parsing, evaluation and printing recurse once per level, and at
# this depth all three stay well inside Python's default recursion limit.
MAX_DEPTH = 100

# Blanks, then one token, or a comment or the end of the line (no group).
# [^\W\d] also matches numerals such as "²", so names after d/d (D) and
# names that start outside ASCII (U) must pass str.isalpha.  (A verbose
# pattern would take longer to compile, in every process that parses.)
_TOKEN = re.compile(r"[ \t\r]*(?:"
                    r"(?P<P>[-+*/^{}\[\]();,=:])"
                    r"|d/d(?P<D>[^\W\d]\w*)"
                    r"|(?P<INT>[0-9]+)"
                    r"|(?P<IDENT>[A-Za-z_]\w*)"
                    r"|\#.*|$"
                    r"|(?P<U>[^\W\d]\w*|.))")


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


def tokenize(source):
    tokens = []
    append = tokens.append
    lines = source.split("\n")
    for line, text in enumerate(lines, 1):
        for m in _TOKEN.finditer(text):
            kind = m.lastgroup
            if kind is None:
                continue
            name = m.group(kind)
            col = m.start(kind) + 1
            if kind == "P":
                kind = name
            elif kind == "D" or kind == "U":
                if not (name[0].isalpha() or name[0] == "_"):
                    raise DslSyntaxError("unexpected character %r" % name[0],
                                         line, col)
                if kind == "D":
                    kind, col = "DDVAR", col - 3
                else:
                    kind = "IDENT"
            append(Token(kind, name, line, col))
    # a trailing comment does not move the end of input
    append(Token("EOF", "", len(lines), len(lines[-1].split("#", 1)[0]) + 1))
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

    def peek(self):
        # the tokens end with EOF, and next() never moves past it
        return self.tokens[self.pos]

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

    def comma_list(self, item):
        """item ("," item)*, as a tuple."""
        items = [item()]
        while self.peek().kind == ",":
            self.next()
            items.append(item())
        return tuple(items)

    def bracketed(self, item, empty=False):
        """A list [item, item, ...] as a tuple; "[]" only if empty is set."""
        self.expect("[")
        items = () if empty and self.peek().kind == "]" else \
            self.comma_list(item)
        self.expect("]")
        return items

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
        lists, seen = [], set()

        def name():     # each name once, across base, fiber and params
            tok = self.expect("IDENT", "identifier")
            if tok.text in seen:
                raise DslSyntaxError("chart repeats the name %r" % tok.text,
                                     tok.line, tok.col)
            seen.add(tok.text)
            return tok.text

        for word in ("base", "fiber", "params"):
            tok = self.peek()
            if word == "params" and (tok.kind, tok.text) != ("IDENT", word):
                lists.append(())
                continue
            self.expect_word(word)
            self.expect(":")
            lists.append(self.bracketed(name, empty=True))
            self.expect(";")
        self.expect("}")
        return ChartDecl(*lists)

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
        kinds = _CATALOG.get(tok.text) if tok.kind == "IDENT" else None
        if kinds is None:
            return self.expr()
        self.next()
        return Catalog(tok.text, tuple(self.arguments(kinds)))

    def command(self):
        tok = self.expect("IDENT", "command")
        words, second = tok.text, self.peek()
        if second.kind == "IDENT" and words + " " + second.text in _COMMANDS:
            words += " " + self.next().text     # a two-word command
        if words not in _COMMANDS:
            raise DslSyntaxError("unknown command %r" % words, tok.line,
                                 tok.col)
        node, kinds = _COMMANDS[words]
        out = node(*self.arguments(kinds))
        self.expect(";")
        return out

    def arguments(self, kinds):
        """The argument list of a GRAMMAR entry, one value per argument.
        An entry without arguments may leave out the parentheses."""
        values = []
        if not kinds and self.peek().kind != "(":
            return values
        self.expect("(")
        for i, kind in enumerate(kinds):
            sep, read, _ = _ARGS[kind]
            if kind == "point" and self.peek().kind != sep:
                values.append(None)     # optional, and absent
                continue
            if i:
                self.expect(sep)
            if kind == "exprs":         # the remaining arguments
                values += read(self)
            else:
                values.append(read(self))
        self.expect(")")
        return values

    def bound_name(self):
        tok = self.expect("IDENT", "bound name")
        if tok.text not in self.bound:
            raise UnknownIdentifier("name %r is not bound" % tok.text,
                                    tok.line, tok.col)
        return tok.text

    def boolean(self):
        flag = self.expect("IDENT", "true or false")
        if flag.text not in ("true", "false"):
            raise DslSyntaxError("expected true or false, found %r"
                                 % flag.text, flag.line, flag.col)
        return flag.text == "true"

    def exprs(self):
        return self.comma_list(self.expr)

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
            return ENum(_int(tok))
        if tok.kind == "DDVAR":
            self.next()
            return EBasisVec(tok.text)
        if tok.kind == "IDENT":
            if tok.text == "dx" and self.tokens[self.pos + 1].kind == "[":
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


def _int(tok):
    try:
        return int(tok.text)
    except ValueError:      # beyond Python's int-to-str digit limit
        raise DslSyntaxError("integer literal of %d digits is too long"
                             % len(tok.text), tok.line, tok.col) from None


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


def _pexprs(exprs):
    return ", ".join(_pexpr(e) for e in exprs)


# argument kind -> (separator before it, reader, printer).  A "point" may be
# left out, with its separator; it is None then.  "exprs" takes the
# remaining arguments, one expression each.
_ARGS = {
    "name": (",", _Parser.bound_name, str),
    "int": (",", lambda p: _int(p.expect("INT", "integer")), str),
    "bool": (",", _Parser.boolean, lambda b: "true" if b else "false"),
    "expr": (",", _Parser.expr, _pexpr),
    "exprs": (",", _Parser.exprs, _pexprs),
    "point": (",", lambda p: p.bracketed(p.expr),
              lambda exprs: "[%s]" % _pexprs(exprs)),
    "basis": (";", _Parser.exprs, _pexprs),
}


def _pentry(words, kinds, values):
    """A GRAMMAR entry with its argument values, as source text."""
    if not kinds:
        return words
    if kinds[-1] == "exprs":
        values = values[:len(kinds) - 1] + (values[len(kinds) - 1:],)
    parts = []
    for kind, value in zip(kinds, values):
        if value is not None:
            sep, _, write = _ARGS[kind]
            parts.append((sep + " " if parts else "") + write(value))
    return "%s(%s)" % (words, "".join(parts))


def _prhs(rhs):
    if isinstance(rhs, Catalog):
        return _pentry(rhs.name, _CATALOG[rhs.name], rhs.args)
    return _pexpr(rhs)


def _pcmd(cmd):
    words, kinds = _WORDS[type(cmd)]
    return _pentry(words, kinds, tuple(cmd.fields().values())) + ";"


def print_program(p):
    """Canonical source text; parse(print_program(p)) reproduces the AST."""
    lines = []
    parts = ["%s:[%s];" % (word, ", ".join(names))
             for word, names in p.chart.fields().items()
             if names or word != "params"]
    lines.append("chart { %s }" % " ".join(parts))
    for b in p.bindings:
        lines.append("let %s = %s;" % (b.name, _prhs(b.rhs)))
    for c in p.commands:
        lines.append(_pcmd(c))
    return "\n".join(lines) + "\n"
