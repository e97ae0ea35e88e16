"""The DSL grammar: print_program and parse are inverse on random programs
that use every catalog entry and command, the command nodes keep the names
the benchmark tracer derives its per-command spans from, and the lexer
agrees with a per-line reference lexer on random texts.
"""

import importlib.util
import inspect
import pathlib
import re

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from leafnorm import dsl, interp
from leafnorm.errors import DslSyntaxError
from leafnorm.dsl import (
    Binding, Catalog, ChartDecl, CmdAffine, CmdChainMap, CmdCheckDirac,
    CmdCheckJacobi, CmdDecompose, CmdEmit, CmdIntIdentity, CmdJet,
    CmdMonodromy, CmdMoser, CmdRatioConstancy, CmdStructureEqs, EBasisForm,
    EBasisVec, EBin, ENeg, ENum, EVar, Program, parse, print_program,
)

ROOT = pathlib.Path(__file__).resolve().parents[1]

# identifiers that are not catalog names ("dx" is one only before "[")
IDS = st.sampled_from(["a", "b", "u", "y1", "PI", "dx", "let", "_t"])

EXPRS = st.recursive(
    st.one_of(st.builds(ENum, st.integers(0, 10 ** 30)), st.builds(EVar, IDS),
              st.builds(EBasisVec, IDS), st.builds(EBasisForm, IDS)),
    lambda sub: st.one_of(st.builds(ENeg, sub),
                          st.builds(EBin, st.sampled_from("+-*/^"), sub, sub)),
    max_leaves=8)


def _tuples(elements):
    return st.lists(elements, min_size=1, max_size=3).map(tuple)


def _catalog(bound):
    """Catalog name -> strategy for its arguments, over the bound names."""
    name = st.sampled_from(bound)
    return {"so3": st.just(()), "heisenberg3": st.just(()),
            "sphere_so3": st.tuples(st.booleans()),
            "product": st.tuples(name, name),
            "period_model": _tuples(EXPRS)}


def _commands(bound):
    """Command node -> strategy for the node, over the bound names."""
    name = st.sampled_from(bound)
    out = {cls: st.builds(cls, name) for cls in (
        CmdCheckJacobi, CmdCheckDirac, CmdDecompose, CmdStructureEqs,
        CmdMoser, CmdRatioConstancy, CmdAffine, CmdEmit)}
    out.update({
        CmdJet: st.builds(CmdJet, name, st.integers(0, 10 ** 6)),
        CmdChainMap: st.builds(CmdChainMap, name, name),
        CmdMonodromy: st.builds(CmdMonodromy, name,
                                st.none() | _tuples(EXPRS)),
        CmdIntIdentity: st.builds(CmdIntIdentity, EXPRS, _tuples(EXPRS)),
    })
    return out


@st.composite
def programs(draw):
    """A program with every catalog entry and command, in random order,
    among random expression bindings and repeated commands."""
    # a chart names each variable once: one list split into three
    ids = draw(st.lists(IDS, unique=True, max_size=8))
    cut = sorted(draw(st.lists(st.integers(0, len(ids)), min_size=2,
                               max_size=2)))
    chart = ChartDecl(tuple(ids[:cut[0]]), tuple(ids[cut[0]:cut[1]]),
                      tuple(ids[cut[1]:]))
    names = list(_catalog(["a"]))
    bindings = [Binding(draw(IDS), draw(EXPRS))]
    for name in draw(st.permutations(
            names + draw(st.lists(st.none(), max_size=3)))):
        bound = [b.name for b in bindings]
        rhs = draw(EXPRS) if name is None else \
            Catalog(name, draw(_catalog(bound)[name]))
        bindings.append(Binding(draw(IDS), rhs))
    commands = _commands([b.name for b in bindings])
    nodes = list(commands)
    nodes += draw(st.lists(st.sampled_from(nodes), max_size=4))
    return Program(chart, tuple(bindings), tuple(
        draw(commands[cls]) for cls in draw(st.permutations(nodes))))


@settings(derandomize=True, deadline=None, max_examples=100)
@given(programs())
def test_print_parse_round_trip(program):
    printed = print_program(program)
    assert parse(printed) == program
    assert print_program(parse(printed)) == printed


def _tracer():
    spec = importlib.util.spec_from_file_location(
        "bench_tracer", ROOT / "bench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_grammar_entries_are_generated_and_named_for_the_tracer():
    tracer = _tracer()
    commands = [(words, node, kinds) for words, node, kinds in dsl.GRAMMAR
                if node is not Catalog]
    assert {w for w, node, _ in dsl.GRAMMAR if node is Catalog} == \
        set(_catalog(["a"]))
    assert {node for _, node, _ in commands} == set(_commands(["a"]))
    # tracer.py names the span of a command by snake-casing its node's
    # class name without "Cmd", and keeps one metric per span name
    for words, node, kinds in commands:
        camel = "".join(w.capitalize() for w in re.split("[ _]", words))
        assert node.__name__ == "Cmd" + camel
        assert tracer._cmd_kind(node(*[None] * len(kinds))) == \
            words.replace(" ", "_")
    assert set(tracer.CMD_KINDS) == {w.replace(" ", "_")
                                     for w, _, _ in commands}
    # the functions the tracer wraps by name
    for module, name in ((dsl, "tokenize"), (dsl, "parse"),
                         (interp, "_run_command")):
        assert inspect.isfunction(vars(module)[name])


# --- the lexer against a reference -------------------------------------------

# The lexer dsl.tokenize replaced: one match per token within each line,
# with its line and column taken from the match.
_LINE_TOKEN = re.compile(r"[ \t\r]*(?:"
                         r"(?P<P>[-+*/^{}\[\]();,=:])"
                         r"|d/d(?P<D>[^\W\d]\w*)"
                         r"|(?P<INT>[0-9]+)"
                         r"|(?P<IDENT>[A-Za-z_]\w*)"
                         r"|\#.*|$"
                         r"|(?P<U>[^\W\d]\w*|.))")


def _reference_tokens(source):
    """(text, line, col) of each token, then ("", line, col) at the end."""
    tokens = []
    lines = source.split("\n")
    for line, text in enumerate(lines, 1):
        for m in _LINE_TOKEN.finditer(text):
            kind = m.lastgroup
            if kind is None:
                continue
            name, col = m.group(kind), m.start(kind) + 1
            if kind in ("D", "U") and not (name[0].isalpha()
                                           or name[0] == "_"):
                raise DslSyntaxError("unexpected character %r" % name[0],
                                     line, col)
            if kind == "D":
                name, col = "d/d" + name, col - 3
            tokens.append((name, line, col))
    # a trailing comment does not move the end of input
    tokens.append(("", len(lines), len(lines[-1].split("#", 1)[0]) + 1))
    return tokens


CLEAN = ["-", "+", "*", "/", "^", "{", "}", "[", "]", "(", ")", ";", ",",
         "=", ":", "d/dx", "d/d_y", "d/d", "d/d2", "d", "dx", "0", "12",
         "u", "x2", "_t", "PI", "\u00e9t\u00e9", "x\u00b2", " ", "\t",
         "\r", "\n", "\r\n", "#", "# c $ \u00b2", "#\n"]
HOSTILE = ["\u00b2", "d/d\u00b2", "\u00a0", "\f", "\v", "\ufeff", "$",
           "@", "\u216b", "\u0663", "\x85", "\u2028", "\x00"]
TEXTS = st.lists(st.sampled_from(CLEAN), max_size=30).map("".join) | \
    st.lists(st.sampled_from(CLEAN + HOSTILE), max_size=30).map("".join)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(TEXTS)
def test_tokenize_matches_the_per_line_lexer(source):
    try:
        expected = _reference_tokens(source)
    except DslSyntaxError as error:
        with pytest.raises(DslSyntaxError) as info:
            dsl.tokenize(source)
        assert (info.value.args, info.value.line, info.value.col) == \
            (error.args, error.line, error.col)
        return
    assert dsl.tokenize(source) == [text for text, _, _ in expected]
    for index, (_, line, col) in enumerate(expected):
        assert dsl._position(source, index) == (line, col)
