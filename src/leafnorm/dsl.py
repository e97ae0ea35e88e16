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
               | "monodromy" "(" NAME ("," "[" exprs? "]")? ")" ";"
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

tokenize gives the token texts, from one regex scan of the whole source, and
"" for the end of input; a token's kind follows from its text.  Line and
column are worked out, by scanning again, only for an error.
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

# Blanks and comments, then one token: punctuation, d/dX, an integer, an
# ASCII identifier, a name that starts outside ASCII, any other character,
# or "" at the end.  No token starts with "#", so taking comments first
# changes no match.  The token group always matches, so the blanks never
# backtrack.  [^\W\d] also matches numerals such as "²", so names after d/d
# and names that start outside ASCII must pass str.isalpha (see tokenize).
# (A verbose pattern would take longer to compile, in every process that
# parses.)
_TOKEN = re.compile(r"(?:[ \t\r\n]|\#.*)*("
                    r"[-+*/^{}\[\]();,=:]"
                    r"|d/d[^\W\d]\w*"
                    r"|[0-9]+"
                    r"|[A-Za-z_]\w*"
                    r"|[^\W\d]\w*|.|\Z)")

_PUNCT = frozenset("-+*/^{}[]();,=:")


def _kind(text):
    """A token's kind, from its text: punctuation is itself and "" ends the
    input; digits make an INT and d/d a DDVAR; anything else is an IDENT."""
    if not text or text in _PUNCT:
        return text
    if text.isdigit():
        return "INT"
    return "DDVAR" if text.startswith("d/d") else "IDENT"


def tokenize(source):
    """The texts of the tokens of source, blanks and comments dropped, then
    "" for the end of input."""
    tokens = _TOKEN.findall(source)
    if tokens[-2:] == ["", ""]:
        # trailing blanks or a comment: the match that takes them gives "",
        # and so does the empty match findall tries at the end
        tokens.pop()
    # a name, after d/d or not, starts with a letter or "_", and every
    # other token with punctuation or a digit: any other start is an error
    bad = []
    for text in set(tokens):
        c = text[3:4] if text.startswith("d/d") else text[:1]
        if c and not (c.isalpha() or c == "_" or c in _PUNCT
                      or c in "0123456789"):
            bad.append(text)
    if bad:
        index = min(map(tokens.index, bad))
        text = tokens[index]
        skip = 3 if text.startswith("d/d") else 0
        line, col = _position(source, index)
        raise DslSyntaxError("unexpected character %r" % text[skip],
                             line, col + skip)
    return tokens


def _position(source, index):
    """(line, col) of token `index` of tokenize(source), found by scanning
    again; a trailing comment does not move the end of input."""
    for i, m in enumerate(_TOKEN.finditer(source)):
        if i == index:
            break
    start = m.start(1)
    line_start = source.rfind("\n", 0, start) + 1
    if not m.group(1):
        start = line_start + len(source[line_start:].split("#", 1)[0])
    return source.count("\n", 0, start) + 1, start - line_start + 1


# --- parser -------------------------------------------------------------------------

class _Parser:
    """Recursive descent over the token texts: tokens[pos] is the next one.
    The tokens end with "", and pos never moves past it."""

    def __init__(self, source, tokens):
        self.source = source
        self.tokens = tokens
        self.pos = 0
        self.bound = set()
        # the '-', '^' and '(' levels open on the way down, so that hostile
        # nesting stops before the recursion gets deep
        self.ops = 0
        self.parens = 0

    def fail(self, message, index, error=DslSyntaxError):
        """Raise error at the position of token `index`."""
        raise error(message, *_position(self.source, index))

    def found(self):
        """The next token, as an error message names it."""
        return self.tokens[self.pos] or "end of input"

    def expect(self, text):
        if self.tokens[self.pos] != text:
            self.fail("expected %s, found %r" % (
                text if text in _PUNCT else repr(text), self.found()),
                self.pos)
        self.pos += 1

    def take(self, kind, what):
        tok = self.tokens[self.pos]
        if _kind(tok) != kind:
            self.fail("expected %s, found %r" % (what, self.found()),
                      self.pos)
        self.pos += 1
        return tok

    def comma_list(self, item):
        """item ("," item)*, as a tuple."""
        items = [item()]
        while self.tokens[self.pos] == ",":
            self.pos += 1
            items.append(item())
        return tuple(items)

    def bracketed(self, item):
        """A list [item, item, ...] as a tuple, "[]" the empty one."""
        self.expect("[")
        items = () if self.tokens[self.pos] == "]" else self.comma_list(item)
        self.expect("]")
        return items

    # -- program -----------------------------------------------------------

    def program(self):
        chart = self.chart_decl()
        bindings = []
        commands = []
        while self.tokens[self.pos]:
            tok = self.tokens[self.pos]
            if tok == "chart":
                self.fail("only one chart per program", self.pos,
                          ChartRedeclared)
            if tok == "let":
                if commands:
                    self.fail("bindings must precede commands", self.pos)
                bindings.append(self.binding())
            else:
                commands.append(self.command())
        return Program(chart, tuple(bindings), tuple(commands))

    def chart_decl(self):
        self.expect("chart")
        self.expect("{")
        lists, seen = [], set()

        def name():     # each name once, across base, fiber and params
            tok = self.take("IDENT", "identifier")
            if tok in seen:
                self.fail("chart repeats the name %r" % tok, self.pos - 1)
            seen.add(tok)
            return tok

        for word in ("base", "fiber", "params"):
            if word == "params" and self.tokens[self.pos] != word:
                lists.append(())
                continue
            self.expect(word)
            self.expect(":")
            lists.append(self.bracketed(name))
            self.expect(";")
        self.expect("}")
        return ChartDecl(*lists)

    def binding(self):
        self.expect("let")
        name = self.take("IDENT", "binding name")
        self.expect("=")
        rhs = self.rhs()
        self.expect(";")
        self.bound.add(name)
        return Binding(name, rhs)

    def rhs(self):
        tok = self.tokens[self.pos]
        kinds = _CATALOG.get(tok)
        if kinds is None:
            return self.expr()
        self.pos += 1
        return Catalog(tok, tuple(self.arguments(kinds)))

    def command(self):
        start = self.pos
        words = self.take("IDENT", "command")
        if words + " " + self.tokens[self.pos] in _COMMANDS:
            words += " " + self.tokens[self.pos]    # a two-word command
            self.pos += 1
        if words not in _COMMANDS:
            self.fail("unknown command %r" % words, start)
        node, kinds = _COMMANDS[words]
        out = node(*self.arguments(kinds))
        self.expect(";")
        return out

    def arguments(self, kinds):
        """The argument list of a GRAMMAR entry, one value per argument.
        An entry without arguments may leave out the parentheses."""
        values = []
        if not kinds and self.tokens[self.pos] != "(":
            return values
        self.expect("(")
        for i, kind in enumerate(kinds):
            sep, read, _ = _ARGS[kind]
            if kind == "point" and self.tokens[self.pos] != sep:
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
        tok = self.take("IDENT", "bound name")
        if tok not in self.bound:
            self.fail("name %r is not bound" % tok, self.pos - 1,
                      UnknownIdentifier)
        return tok

    def boolean(self):
        flag = self.take("IDENT", "true or false")
        if flag not in ("true", "false"):
            self.fail("expected true or false, found %r" % flag,
                      self.pos - 1)
        return flag == "true"

    def integer(self, tok):
        """The value of tok, the INT token just taken."""
        try:
            return int(tok)
        except ValueError:      # beyond Python's int-to-str digit limit
            self.fail("integer literal of %d digits is too long" % len(tok),
                      self.pos - 1)

    def exprs(self):
        return self.comma_list(self.expr)

    # -- expressions --------------------------------------------------------------

    def expr(self):
        # a tree with at most MAX_DEPTH tokens is at most that deep, so only
        # longer expressions pay for the walk
        start = self.pos
        node = self._sum()
        if self.pos - start > MAX_DEPTH and _depth(node) > MAX_DEPTH:
            self._too_deep(start)
        return node

    def _too_deep(self, index):
        self.fail("expression nested deeper than %d levels" % MAX_DEPTH,
                  index)

    def _sum(self):
        node = self.term()
        while self.tokens[self.pos] in ("+", "-"):
            op = self.tokens[self.pos]
            self.pos += 1
            node = EBin(op, node, self.term())
        return node

    def term(self):
        node = self.unary()
        while self.tokens[self.pos] in ("*", "/"):
            op = self.tokens[self.pos]
            self.pos += 1
            node = EBin(op, node, self.unary())
        return node

    def unary(self):
        """Signs, then a power: atom ("^" unary)*."""
        tokens = self.tokens
        while tokens[self.pos] == "+":
            self.pos += 1
        if tokens[self.pos] == "-":
            self.pos += 1
            self.ops += 1
            if self.ops > MAX_DEPTH:
                self._too_deep(self.pos - 1)
            node = ENeg(self.unary())
            self.ops -= 1
            return node
        node = self.atom()
        while tokens[self.pos] == "^":
            self.pos += 1
            self.ops += 1
            if self.ops > MAX_DEPTH:
                self._too_deep(self.pos - 1)
            node = EBin("^", node, self.unary())
            self.ops -= 1
        return node

    def atom(self):
        tok = self.tokens[self.pos]
        kind = _kind(tok)
        if kind not in ("IDENT", "INT", "DDVAR", "("):
            self.fail("unexpected token %r" % self.found(), self.pos)
        self.pos += 1
        if kind == "IDENT":
            if tok != "dx" or self.tokens[self.pos] != "[":
                return EVar(tok)
            self.pos += 1
            name = self.take("IDENT", "variable name")
            self.expect("]")
            return EBasisForm(name)
        if kind == "INT":
            return ENum(self.integer(tok))
        if kind == "DDVAR":
            return EBasisVec(tok[3:])
        self.parens += 1
        if self.parens > MAX_DEPTH:
            self._too_deep(self.pos - 1)
        node = self._sum()
        self.parens -= 1
        self.expect(")")
        return node


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
    """Parse DSL text into a Program; positions are carried by errors.
    "\r\n" and "\r" end a line as "\n" does, as in a file read as text."""
    source = source.replace("\r\n", "\n").replace("\r", "\n")
    return _Parser(source, tokenize(source)).program()


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
    "int": (",", lambda p: p.integer(p.take("INT", "integer")), str),
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
    """A command as source text, without its closing semicolon."""
    words, kinds = _WORDS[type(cmd)]
    return _pentry(words, kinds, tuple(cmd.fields().values()))


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
        lines.append(_pcmd(c) + ";")
    return "\n".join(lines) + "\n"
