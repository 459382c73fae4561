"""The top-down typing rule: cases it must reject, and agreement with the
grammar, whose derivations are an independent oracle for typing."""
import random

import pytest

from gridsynth.data import checked_program
from gridsynth.errors import GridSynthError, TypeMismatchError, UnboundVariableError
from gridsynth.grammar import description_length, uniform_grammar
from gridsynth.lang import (
    ACTION,
    BOOL,
    DIRECTION,
    INT,
    MAP,
    Lambda,
    Prim,
    TyVar,
    Var,
    apply_all,
    arg_types,
    arrow,
    return_type,
)
from gridsynth.primitives import arg_types_at, primitive_table
from gridsynth.sexpr import parse_program
from gridsynth.typecheck import infer_type


def random_term(prims, rng, max_depth=4):
    """A random first-order program, mostly well typed but with seeded
    faults: 1-3 binders, unbound or mistyped variables, names applied to the
    wrong number of arguments, mistyped arguments and inner lambdas."""
    n = rng.choice([1, 2, 2, 3]) if prims.env_tag == "maze" else rng.choice([1, 1, 2, 3])
    env = tuple(reversed([MAP, DIRECTION, INT][:n]))
    names = [p.name for p in prims.entries]

    def gen(ty, d):
        r = rng.random()
        if r < 0.06:
            return Var(rng.randrange(n + 1))
        if r < 0.09:
            name = rng.choice(names)
            k = max(prims.get(name).arity + rng.choice([-1, 1]), 0)
            return apply_all(Prim(name), [gen(ty, d - 1) for _ in range(k)])
        if r < 0.10:
            return Lambda(gen(ty, d - 1))
        opts = [Var(i) for i, t in enumerate(env) if t == ty]
        for p in prims.entries:
            rt = return_type(p.type)
            if (rt == ty or isinstance(rt, TyVar)) and (d > 1 or p.arity == 0):
                opts.append(p)
        if not opts:
            return Prim(rng.choice(names))
        pick = rng.choice(opts)
        if isinstance(pick, Var):
            return pick
        params = [ty if isinstance(a, TyVar) else a for a in arg_types(pick.type)]
        if params and rng.random() < 0.03:
            params[rng.randrange(len(params))] = rng.choice([INT, MAP, ACTION])
        return apply_all(Prim(pick.name), [gen(a, d - 1) for a in params])

    body = gen(ACTION, max_depth)
    for _ in range(n):
        body = Lambda(body)
    return body


def _succeeds(f, *args, **kwargs) -> bool:
    try:
        f(*args, **kwargs)
    except GridSynthError:
        return False
    return True


@pytest.mark.parametrize("env_tag", ["maze", "asterix", "spaceinvaders"])
def test_typing_agrees_with_grammar_derivability(env_tag):
    prims = primitive_table(env_tag)
    grammar = uniform_grammar(prims)
    rng = random.Random(15)
    accepted = 0
    for _ in range(3000):
        term = random_term(prims, rng)
        typed = _succeeds(infer_type, term, prims, request=prims.request)
        derivable = _succeeds(description_length, grammar, term)
        assert typed == derivable, term
        accepted += typed
    assert 300 < accepted < 2700  # both sides of the rule are exercised


def test_three_binders_are_not_a_program(maze_prims):
    term = parse_program("(λ(m) (λ(d) (λ(z) left-action)))", maze_prims)
    with pytest.raises(TypeMismatchError) as err:
        infer_type(term, maze_prims)
    assert err.value.location


def test_partial_application_is_rejected(maze_prims):
    term = parse_program("(λ(m) (get m 1))", maze_prims)
    with pytest.raises(TypeMismatchError):
        infer_type(term, maze_prims)
    with pytest.raises(TypeMismatchError):
        infer_type(term, maze_prims, request=arrow(MAP, ACTION))


def test_inner_lambda_is_rejected(maze_prims):
    text = "(λ(m) (if (eq-obj? wall-obj (get m 1 0)) (λ(z) left-action) forward-action))"
    term = parse_program(text, maze_prims)
    with pytest.raises(TypeMismatchError) as err:
        infer_type(term, maze_prims)
    assert err.value.location


def test_variable_outside_env_is_unbound(maze_prims):
    with pytest.raises(UnboundVariableError):
        infer_type(Var(1), maze_prims, env=(ACTION,))


def test_two_binder_asterix_program_is_not_runnable(asterix_prims):
    term = parse_program("(λ(m) (λ(d) no-op-action))", asterix_prims)
    assert infer_type(term, asterix_prims) == arrow(MAP, DIRECTION, ACTION)
    with pytest.raises(TypeMismatchError):
        checked_program(term, asterix_prims)


def test_polymorphic_abstraction_body_checks_at_declared_type(maze_prims):
    # an abstraction body `if` over its three slots, as compression stores it
    body = Lambda(Lambda(Lambda(apply_all(Prim("if"), [Var(2), Var(1), Var(0)]))))
    declared = arrow(BOOL, ACTION, ACTION, ACTION)
    assert infer_type(body, maze_prims, request=declared) == declared
    with pytest.raises(TypeMismatchError):
        infer_type(body, maze_prims, request=arrow(BOOL, ACTION, INT, ACTION))


def test_arg_types_at(maze_prims):
    assert arg_types_at(maze_prims.get("if").type, ACTION) == [BOOL, ACTION, ACTION]
    assert arg_types_at(maze_prims.get("if").type, INT) == [BOOL, INT, INT]
    assert arg_types_at(maze_prims.get("get").type, ACTION) == [MAP, INT, INT]
    assert arg_types_at(maze_prims.get("left-action").type, ACTION) == []
