"""Term and type machinery: depth, library inlining, parsing of type strings."""
import copy
import pickle

import pytest

from gridsynth.errors import GridSynthError
from gridsynth.lang import (
    ACTION,
    BOOL,
    DIRECTION,
    INT,
    MAP,
    Apply,
    Arrow,
    BaseTy,
    Lambda,
    Prim,
    TyVar,
    Var,
    apply_all,
    arg_types,
    arrow,
    depth,
    inline,
    parse_type,
    peel,
    return_type,
    spine,
)
from gridsynth.primitives import ENV_TAGS, primitive_table
from gridsynth.sexpr import parse_program

from conftest import LISTING_WALL_CHECK, learned_grammar


def test_arrow_right_association():
    ty = arrow(MAP, DIRECTION, ACTION)
    assert ty == Arrow(MAP, Arrow(DIRECTION, ACTION))
    assert arg_types(ty) == [MAP, DIRECTION]
    assert return_type(ty) == ACTION


def test_parse_type_round_trip():
    for text in ("action", "map -> action", "map -> direction -> action",
                 "(bool -> bool) -> bool", "mapObject -> object -> bool"):
        ty = parse_type(text)
        assert parse_type(str(ty)) == ty


@pytest.mark.parametrize("env_tag", ENV_TAGS)
def test_types_are_canonical(env_tag):
    """Every type is the one object of its kind and fields: each production,
    request and library type of an environment parses back from its text as
    itself, and equal types compare and hash equal."""
    prims = primitive_table(env_tag)
    grammar, library = learned_grammar(prims)
    types = [p.type for p in grammar.productions] + [a.type for a in library] + [prims.request]
    assert any(isinstance(a, TyVar) for t in types for a in arg_types(t))
    for ty in types:
        assert parse_type(str(ty)) is ty
        assert parse_type(str(ty)) == ty and hash(parse_type(str(ty))) == hash(ty)
        assert pickle.loads(pickle.dumps(ty)) is ty and copy.deepcopy(ty) is ty
    assert BaseTy("int") is INT and Arrow(MAP, ACTION) is arrow(MAP, ACTION)
    assert TyVar(0) is TyVar(0) and TyVar(0) != TyVar(1)
    assert arrow(MAP, ACTION) != arrow(MAP, DIRECTION, ACTION)
    assert len({arrow(MAP, ACTION), parse_type("map -> action"), Arrow(MAP, ACTION)}) == 1


def test_parse_type_rejects_unknown():
    with pytest.raises(ValueError):
        parse_type("banana")


def test_spine_unrolls_application_chain():
    term = apply_all(Prim("get"), [Var(0), Prim("1"), Prim("0")])
    head, args = spine(term)
    assert head == Prim("get")
    assert args == [Var(0), Prim("1"), Prim("0")]


@pytest.mark.parametrize("n", [0, 1, 2])
def test_peel_counts_leading_binders(n):
    body = apply_all(Prim("get"), [Var(0), Prim("1"), Lambda(Var(0))])
    term = body
    for _ in range(n):
        term = Lambda(term)
    assert peel(term) == (n, body)


def test_depth_counts_sexpr_levels(maze_prims):
    # λ(x) body is one level above body; a full application is one level
    # above its deepest argument.
    assert depth(Lambda(Prim("left-action"))) == 2
    get_term = apply_all(Prim("get"), [Var(0), Prim("1"), Prim("0")])
    assert depth(get_term) == 2
    term = parse_program(LISTING_WALL_CHECK, maze_prims)
    assert depth(term) == 5


def test_depth_nested_lambda():
    term = Lambda(Lambda(Prim("left-action")))
    assert depth(term) == 3


# Library bodies as `library.json` stores them: λ^n. core, with $0 the
# innermost (last) parameter.
_PAIR = Lambda(Lambda(apply_all(Prim("and"), [Var(1), Var(0)])))  # (and a b)
_TWICE = Lambda(apply_all(Prim("or"), [Var(0), Var(0)]))  # (or a a)
_NESTED = Lambda(Lambda(apply_all(Prim("f0"), [Var(0), apply_all(Prim("f1"), [Var(1)])])))
_DEFS = {"f0": _PAIR, "f1": _TWICE, "f2": _NESTED, "f3": Prim("true")}


def test_inline_substitutes_parameters_in_order():
    term = apply_all(Prim("f0"), [Prim("a"), Prim("b")])
    assert inline(term, _DEFS) == apply_all(Prim("and"), [Prim("a"), Prim("b")])


def test_inline_parameter_used_twice():
    term = Apply(Prim("f1"), Prim("a"))
    assert inline(term, _DEFS) == apply_all(Prim("or"), [Prim("a"), Prim("a")])


def test_inline_nested_bodies():
    # (f2 a b) = (f0 b (f1 a)) = (and b (or a a))
    term = apply_all(Prim("f2"), [Prim("a"), Prim("b")])
    or_aa = apply_all(Prim("or"), [Prim("a"), Prim("a")])
    assert inline(term, _DEFS) == apply_all(Prim("and"), [Prim("b"), or_aa])
    # A call inside an argument is expanded before it is substituted.
    term = apply_all(Prim("f0"), [Apply(Prim("f1"), Prim("a")), Prim("f3")])
    assert inline(term, _DEFS) == apply_all(Prim("and"), [or_aa, Prim("true")])


def test_inline_argument_mentions_program_variables():
    # λ(x) λ(y) (f0 x (f1 y)): the program's variables stay as they are.
    term = Lambda(Lambda(apply_all(Prim("f0"), [Var(1), Apply(Prim("f1"), Var(0))])))
    or_yy = apply_all(Prim("or"), [Var(0), Var(0)])
    assert inline(term, _DEFS) == Lambda(Lambda(apply_all(Prim("and"), [Var(1), or_yy])))


def test_inline_arity_zero_is_a_bare_name():
    term = Lambda(apply_all(Prim("if"), [Prim("f3"), Prim("a"), Var(0)]))
    assert inline(term, _DEFS) == Lambda(apply_all(Prim("if"), [Prim("true"), Prim("a"), Var(0)]))


@pytest.mark.parametrize(
    "term",
    [
        Prim("f0"),
        Apply(Prim("f0"), Prim("a")),
        apply_all(Prim("f1"), [Prim("a"), Prim("b")]),
        Apply(Prim("f3"), Prim("a")),
        Lambda(apply_all(Prim("and"), [Var(0), Apply(Prim("f0"), Var(0))])),
    ],
)
def test_inline_rejects_wrong_arity(term):
    with pytest.raises(GridSynthError, match=r"abstraction f\d"):
        inline(term, _DEFS)


def test_inline_rejects_a_body_with_an_inner_lambda():
    defs = {"f0": Lambda(Apply(Lambda(Var(1)), Var(0)))}
    with pytest.raises(GridSynthError, match="inner lambda"):
        inline(Apply(Prim("f0"), Prim("a")), defs)


def test_inline_returns_call_free_terms_unchanged():
    term = Lambda(apply_all(Prim("get"), [Var(0), Prim("1"), Prim("0")]))
    assert inline(term, _DEFS) is term


def test_tyvar_str():
    assert str(TyVar(0)) == "t0"
    assert str(Arrow(BOOL, BOOL)) == "bool -> bool"
