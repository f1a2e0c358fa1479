import io
import random
import re
import tokenize
from itertools import product

import pytest
from hypothesis import given, strategies as st

from ordcsp import (
    FALSE,
    CapExceeded,
    FormulaError,
    TRUE,
    and_,
    eq,
    ge,
    gt,
    le,
    lt,
    ne,
    not_,
    or_,
    parse_formula,
    print_formula,
)
from ordcsp.formula import (
    ATOM_OPS,
    MAX_DEPTH,
    And,
    Atom,
    Const,
    Not,
    Or,
    _CHUNK_DEPTH,
    compile_formula,
    compile_pair_codes,
    compile_rows,
    compile_table,
)

import ordcsp.formula

from conftest import holds


def test_parse_basic():
    f = parse_formula("(or (gt 0 1) (gt 0 2))")
    assert f == or_(gt(0, 1), gt(0, 2))
    assert parse_formula("(and (eq 0 2) (lt 1 3))") == and_(eq(0, 2), lt(1, 3))
    assert parse_formula("true") is TRUE
    assert parse_formula("false") is FALSE
    assert parse_formula("(not (le 1 0))") == not_(Atom("le", 1, 0))


@pytest.mark.parametrize(
    "text",
    [
        "(lt 0)",
        "(lt 0 1 2)",
        "(and)",
        "(or)",
        "(not)",
        "(frob 0 1)",
        "(lt x 1)",
        "(lt -1 1)",
        "(lt 0 1",
        ")",
        "",
        "(lt 0 1) junk",
    ],
)
def test_parse_rejects(text):
    with pytest.raises(FormulaError) as err:
        parse_formula(text)
    assert "position" in str(err.value)


DEEP_NOT = "(not " * (MAX_DEPTH + 1) + "true" + ")" * (MAX_DEPTH + 1)


# One input per error path, with the exact message and position.
@pytest.mark.parametrize(
    "text, message",
    [
        ("", "unexpected end of input (at position 0)"),
        (")", "unexpected ')' (at position 0)"),
        ("x", "expected formula, got 'x' (at position 0)"),
        ("(", "unexpected end of input after '(' (at position 1)"),
        ("(lt 0)", "'lt' expects two indices (at position 5)"),
        (
            "(lt x 1)",
            "expected non-negative integer index, got 'x' (at position 4)",
        ),
        ("(lt 0 1 2)", "expected ')' closing 'lt', got '2' (at position 8)"),
        (
            "(not true",
            "expected ')' closing 'not', got end of input (at position 9)",
        ),
        ("(and true", "unterminated (and ...) (at position 9)"),
        ("(and)", "'and' needs at least one operand (at position 1)"),
        ("(frob 0 1)", "unknown operator 'frob' (at position 1)"),
        (DEEP_NOT, "connectives nest deeper than 300 (at position 1501)"),
        ("(lt 0 1) junk", "trailing input 'junk' (at position 9)"),
        (5, "formula must be a string, got 5"),
        # Digits of other scripts are not indices.
        (
            "(lt \u0663 1)",
            "expected non-negative integer index, got '\u0663' (at position 4)",
        ),
        (
            "(lt \u00b2 1)",
            "expected non-negative integer index, got '\u00b2' (at position 4)",
        ),
    ],
)
def test_parse_error_messages(text, message):
    with pytest.raises(FormulaError) as err:
        parse_formula(text)
    assert str(err.value) == message


def test_eval_examples():
    f = or_(gt(0, 1), gt(0, 2))
    assert compile_formula(f)([3, 1, 5]) is True
    assert compile_formula(f)([1, 2, 3]) is False
    assert compile_formula(eq(0, 1))([4, 4]) is True
    assert compile_formula(TRUE)([]) is True
    assert compile_formula(FALSE)([]) is False


def test_free_var_count():
    assert TRUE.free_var_count == 0
    assert lt(0, 1).free_var_count == 2
    assert or_(gt(0, 1), gt(0, 4)).free_var_count == 5
    assert not_(eq(2, 2)).free_var_count == 3


def test_derived_atoms_are_first_class():
    # le/ne/gt/ge survive a round trip unchanged, no rewriting into lt/eq.
    for text in ["(le 0 1)", "(ne 0 1)", "(gt 0 1)", "(ge 0 1)"]:
        f = parse_formula(text)
        assert isinstance(f, Atom)
        assert print_formula(f) == text


def formulas(max_leaves=12, variables=6):
    """Formulas whose atoms compare variables 0 to ``variables - 1``."""
    indices = st.integers(min_value=0, max_value=variables - 1)
    atoms = st.one_of(
        st.just(TRUE),
        st.just(FALSE),
        st.builds(
            Atom,
            st.sampled_from(["lt", "le", "eq", "ne", "gt", "ge"]),
            indices,
            indices,
        ),
    )
    return st.recursive(
        atoms,
        lambda sub: st.one_of(
            st.builds(Not, sub),
            st.builds(lambda cs: And(tuple(cs)), st.lists(sub, min_size=1, max_size=3)),
            st.builds(lambda cs: Or(tuple(cs)), st.lists(sub, min_size=1, max_size=3)),
        ),
        max_leaves=max_leaves,
    )


@given(formulas())
def test_roundtrip_print_parse(f):
    assert parse_formula(print_formula(f)) == f


points = st.lists(
    st.integers(min_value=-50, max_value=50), min_size=6, max_size=6
)


@given(formulas(), points)
def test_double_negation(f, p):
    assert compile_formula(not_(not_(f)))(p) == compile_formula(f)(p)


@given(formulas(), formulas(), points)
def test_de_morgan(f, g, p):
    assert compile_formula(not_(and_(f, g)))(p) == compile_formula(
        or_(not_(f), not_(g))
    )(p)


@given(formulas(), points, st.integers(min_value=1, max_value=4))
def test_order_isomorphism_invariance(f, p, stretch):
    # Any strictly increasing remapping of the values leaves truth alone.
    image = [stretch * x + (x > 0) for x in p]
    assert compile_formula(f)(p) == compile_formula(f)(image)


def test_ne_is_not_lt_disguised():
    assert compile_formula(ne(0, 1))([2, 1]) is True
    assert compile_formula(ne(0, 1))([1, 1]) is False


class SneakyIndex(int):
    def __format__(self, spec):
        return "0] or p[1"


@pytest.mark.parametrize("bad", [True, 1.5, SneakyIndex(1)])
def test_atom_rejects_non_int_indices(bad):
    with pytest.raises(ValueError, match="type int"):
        Atom("lt", bad, 0)
    with pytest.raises(ValueError, match="type int"):
        Atom("lt", 0, bad)


@pytest.mark.parametrize("bad", [1, 0, None, "true"])
def test_const_rejects_non_bool(bad):
    with pytest.raises(ValueError, match="bool"):
        Const(bad)


def test_atoms_match_reference():
    for op in ATOM_OPS:
        for i, j in product(range(2), repeat=2):
            f = Atom(op, i, j)
            for p in product(range(2), repeat=2):
                assert compile_formula(f)(p) is holds(f, p)


# Few distinct values, so that ties (where lt and le differ) are common.
tie_points = st.lists(
    st.integers(min_value=0, max_value=2), min_size=6, max_size=6
)


@given(formulas(max_leaves=40), formulas(max_leaves=40), tie_points)
def test_compiled_matches_reference(f, g, p):
    assert compile_formula(f)(p) == holds(f, p)
    assert compile_formula(g)(p) == holds(g, p)
    # f and g now carry compiled functions; trees that share them, f
    # twice over, must still agree with the reference.
    for h in (and_(g, not_(f)), or_(f, g, f), not_(and_(or_(g, f), f))):
        assert compile_formula(h)(p) == holds(h, p)


def random_atom(rng):
    return Atom(rng.choice(sorted(ATOM_OPS)), rng.randrange(4), rng.randrange(4))


def mixed_chain(rng, depth):
    """``depth`` nested connectives, each a not, or an and/or whose other
    child is an atom that never decides it (always true under and, always
    false under or), so that every level counts towards the value."""
    f = random_atom(rng)
    for _ in range(depth):
        kind = rng.choice((Not, And, Or))
        if kind is Not:
            f = Not(f)
        else:
            ops = ("le", "eq", "ge") if kind is And else ("lt", "ne", "gt")
            i = rng.randrange(4)
            children = [f, Atom(rng.choice(ops), i, i)]
            rng.shuffle(children)
            f = kind(tuple(children))
    return f


def test_deep_chains_match_reference():
    rng = random.Random(5)
    for _ in range(20):
        f = mixed_chain(rng, MAX_DEPTH)
        assert f.depth == MAX_DEPTH
        text = print_formula(f)
        parsed = parse_formula(text)
        assert print_formula(parsed) == text
        for _ in range(5):
            p = [rng.randrange(3) for _ in range(4)]
            assert compile_formula(f)(p) == holds(f, p)
            assert compile_formula(parsed)(p) == holds(f, p)


def test_too_deep_is_a_formula_error():
    for op in ("not", "and", "or"):
        text = f"({op} " * (MAX_DEPTH + 1) + "true" + ")" * (MAX_DEPTH + 1)
        with pytest.raises(FormulaError, match="deeper than"):
            parse_formula(text)
    f = TRUE
    for _ in range(3000):
        f = Not(f)
    with pytest.raises(FormulaError, match="limit is 300"):
        compile_formula(f)
    with pytest.raises(FormulaError):
        compile_formula(mixed_chain(random.Random(1), MAX_DEPTH + 1))


CONNECTIVE_TOKENS = set(ATOM_OPS.values()) | {
    "(", ")", "not", "and", "or", "True", "False",
}
# Every source is one function ``make``, with its chunks nested in it.
FRAME_TOKENS = {"def", "make", ":", "return"}
POINT_TOKENS = {"lambda", "p", "[", "]"}
TABLE_TOKENS = {
    ",", "lambda", ":", "R", "for", "in", "if", "frozenset", "product",
    "repeat", "=",
}


ROW_TOKENS = {
    ",", "P", "F", "for", "in", "if", "else", "&", "|", "^",
}
PAIR_CODE_TOKENS = {
    ",", "lambda", ":", "P", "[", "]", "for", "in", "if", "else", "|",
}
LAYOUT = (
    tokenize.NEWLINE, tokenize.NL, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENDMARKER,
)


def assert_tokens(source, allowed, names):
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in LAYOUT:
            continue
        assert (
            tok.string in allowed
            or re.fullmatch(names, tok.string)
            or (tok.type == tokenize.NUMBER and tok.string.isdigit())
        ), tok


def test_generated_source_tokens(monkeypatch):
    # Every generator's source goes to the module's one exec, and is
    # captured on its way there. Each token comes from the fixed table of
    # its generator, is a generated name (a chunk function ``cN``, a
    # coordinate ``xN``, an index ``iN`` or row data ``DN``) or a written
    # index.
    f = and_(mixed_chain(random.Random(2), 3 * _CHUNK_DEPTH), TRUE, FALSE)
    sources = []

    def spy(source, env):
        sources.append(source)
        return exec(source, env)

    monkeypatch.setattr(ordcsp.formula, "exec", spy, raising=False)
    table_tokens = CONNECTIVE_TOKENS | TABLE_TOKENS
    cases = [
        (lambda: compile_formula(f), CONNECTIVE_TOKENS | POINT_TOKENS, r"c\d+"),
        (lambda: compile_table(f, 2, 2), table_tokens, r"[cix]\d+"),
        (lambda: compile_table(f, 3, 2), table_tokens, r"[cix]\d+"),
        (lambda: compile_rows(f, 2), CONNECTIVE_TOKENS | ROW_TOKENS, r"[cxD]\d+"),
        (
            lambda: compile_pair_codes([f, lt(0, 3)], 2),
            CONNECTIVE_TOKENS | PAIR_CODE_TOKENS,
            r"[cx]\d+",
        ),
    ]
    for build, allowed, names in cases:
        sources.clear()
        build()
        (source,) = sources
        assert source.startswith("def make(")
        assert "def c0(" in source  # the chain spans several chunks
        assert_tokens(source, allowed | FRAME_TOKENS, names)


def brute_table(f, arity, points):
    """Index tuples whose concatenated points satisfy ``f``, by the
    reference evaluator."""
    return frozenset(
        combo
        for combo in product(range(len(points)), repeat=arity)
        if holds(f, [x for i in combo for x in points[i]])
    )


@given(
    formulas(max_leaves=20),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=3),
    st.data(),
)
def test_table_matches_brute_force(f, arity, d, data):
    points = data.draw(
        st.lists(
            st.tuples(*[st.integers(min_value=0, max_value=2)] * d),
            max_size=4,
        )
    )
    if f.free_var_count > arity * d:
        with pytest.raises(ValueError, match="does not fit"):
            compile_table(f, arity, d)
        return
    build = compile_table(f, arity, d)
    assert compile_table(f, arity, d) is build  # cached on the node
    assert build(list(enumerate(points))) == brute_table(f, arity, points)


@given(
    st.integers(min_value=1, max_value=3).flatmap(
        lambda d: st.tuples(
            st.just(d),
            st.lists(formulas(max_leaves=10, variables=2 * d), max_size=4),
            st.lists(
                st.tuples(*[st.integers(min_value=0, max_value=2)] * d),
                max_size=4,
            ),
        )
    )
)
def test_pair_codes_match_brute_force(case):
    d, fs, points = case
    codes = compile_pair_codes(fs, d)(points)
    k = len(points)
    assert len(codes) == k * k
    for bit, f in enumerate(fs):
        table = brute_table(f, 2, points)
        for i, j in product(range(k), repeat=2):
            assert (codes[i * k + j] >> bit & 1) == ((i, j) in table)
        assert rows(f, d, points) == supports(table, k)
    assert all(code >> len(fs) == 0 for code in codes)


def rows(f, d, points):
    return tuple(map(list, compile_rows(f, d)(points)))


def supports(table, k):
    fwd, bwd = [0] * k, [0] * k
    for i, j in table:
        fwd[i] |= 1 << j
        bwd[j] |= 1 << i
    return fwd, bwd


# Coordinate values with gaps, negatives and repeats, so that no value
# stands for its rank and several points share a coordinate or a point.
GAPPY = st.sampled_from([-7, -1, 0, 3, 4, 50])


@given(
    st.integers(min_value=1, max_value=3).flatmap(
        lambda d: st.tuples(
            st.just(d),
            formulas(max_leaves=12, variables=2 * d),
            st.lists(st.tuples(*[GAPPY] * d), max_size=7),
        )
    )
)
def test_supports_match_brute_force_on_gappy_points(case):
    d, f, points = case
    table = brute_table(f, 2, points)
    assert rows(f, d, points) == supports(table, len(points))


@given(
    st.integers(min_value=1, max_value=3).flatmap(
        lambda d: st.tuples(
            st.just(d),
            st.lists(formulas(max_leaves=12, variables=2 * d), min_size=2, max_size=3),
            st.lists(st.tuples(*[GAPPY] * d), max_size=7),
        )
    )
)
def test_rows_sharing_one_dict_of_tables_match_brute_force(case):
    # Each formula's builder reads and fills the same dict, in the drawn
    # order, so a later formula reads the tables of an earlier one, such
    # as a coordinate's table made for an atom on another coordinate.
    d, fs, points = case
    tables = {}
    built = [tuple(map(list, compile_rows(f, d)(points, tables))) for f in fs]
    for f, got in zip(fs, built):
        assert got == supports(brute_table(f, 2, points), len(points))


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("op", sorted(ATOM_OPS))
def test_supports_every_atom_placement(op, d):
    # Indices below d read the row point and the rest the column point,
    # so the pairs cover row-row, column-column and both mixed placements.
    rng = random.Random(d)
    gappy = [tuple(rng.choice([-7, 0, 3, 50]) for _ in range(d)) for _ in range(7)]
    for points in (gappy, gappy[:1], []):
        for i, j in product(range(2 * d), repeat=2):
            a = Atom(op, i, j)
            for f in (a, not_(a), and_(a, TRUE), or_(FALSE, not_(a))):
                table = brute_table(f, 2, points)
                assert rows(f, d, points) == supports(table, len(points))
        for f in (TRUE, FALSE, not_(TRUE), and_(TRUE, FALSE), or_(FALSE, TRUE)):
            table = brute_table(f, 2, points)
            assert rows(f, d, points) == supports(table, len(points))


def test_pair_codes_check_like_tables():
    with pytest.raises(ValueError, match="does not fit"):
        compile_pair_codes([TRUE, lt(0, 2)], 1)
    with pytest.raises(TypeError):
        compile_pair_codes(["(lt 0 1)"], 1)
    with pytest.raises(CapExceeded, match=r"table width: 2 \* 5001"):
        compile_pair_codes([TRUE], 5001)
    assert compile_pair_codes([], 5001)([(0,) * 5001] * 2) == [0] * 4
    with pytest.raises(ValueError, match="does not fit"):
        compile_rows(lt(0, 2), 1)
    with pytest.raises(TypeError):
        compile_rows("(lt 0 1)", 1)
    with pytest.raises(CapExceeded, match=r"table width: 2 \* 5001"):
        compile_rows(TRUE, 5001)
    f = lt(0, 1)
    assert compile_rows(f, 1) is compile_rows(f, 1)  # cached on it
    # Rows of 5,000 bits: int() reads base 2 past the decimal digit limit.
    fwd, bwd = rows(f, 1, [(v,) for v in range(5000)])
    assert fwd[0] == 2**5000 - 2 and bwd[4999] == 2**4999 - 1


def test_table_on_deep_chains():
    rng = random.Random(6)
    points = [(a, b) for a in range(3) for b in range(3)]
    k = len(points)
    for _ in range(5):
        f = mixed_chain(rng, MAX_DEPTH)
        table = compile_table(f, 2, 2)(list(enumerate(points)))
        assert table == brute_table(f, 2, points)
        assert rows(f, 2, points) == supports(table, k)
        codes = compile_pair_codes([f], 2)(points)
        assert codes == [int((i, j) in table) for i in range(k) for j in range(k)]
        triples = compile_table(f, 3, 2)(list(enumerate(points)))
        assert triples == brute_table(f, 3, points)


def test_table_of_constants():
    points = list(enumerate([(0,), (1,), (1,)]))
    assert compile_table(TRUE, 2, 1)(points) == set(product(range(3), repeat=2))
    assert compile_table(FALSE, 2, 1)(points) == frozenset()
    assert compile_table(TRUE, 3, 2)([]) == frozenset()


@pytest.mark.parametrize("arity", [1, 25, 5000])
def test_table_of_high_arity_on_one_point(arity):
    point = [(0, (7,))]
    assert compile_table(le(0, arity - 1), arity, 1)(point) == {(0,) * arity}
    assert compile_table(lt(0, arity - 1), arity, 1)(point) == frozenset()


def test_table_too_deep_is_a_formula_error():
    f = TRUE
    for _ in range(MAX_DEPTH + 1):
        f = Not(f)
    with pytest.raises(FormulaError, match="limit is 300"):
        compile_table(f, 1, 1)
    with pytest.raises(TypeError):
        compile_table("(lt 0 1)", 2, 1)


def test_deep_equality_and_hash_do_not_recurse():
    # Built twice from one seed: equal trees that share no node.
    a = mixed_chain(random.Random(8), MAX_DEPTH)
    b = mixed_chain(random.Random(8), MAX_DEPTH)
    assert a is not b and a == b and hash(a) == hash(b)
    assert {a: 1}[b] == 1
    assert a != mixed_chain(random.Random(9), MAX_DEPTH)
    assert Not(a) != b and Not(a) == Not(b)
    deep = [TRUE, TRUE]
    for _ in range(10 * MAX_DEPTH):
        deep = [Not(f) for f in deep]
    assert deep[0] == deep[1] and hash(deep[0]) == hash(deep[1])


def reference_repr(f):
    """The text a dataclass ``__repr__`` writes, recursively."""
    kind = type(f).__name__
    if kind == "Const":
        return f"Const(value={f.value!r})"
    if kind == "Atom":
        return f"Atom(op={f.op!r}, left={f.left!r}, right={f.right!r})"
    if kind == "Not":
        return f"Not(child={reference_repr(f.child)})"
    children = [reference_repr(c) for c in f.children]
    tail = "," if len(children) == 1 else ""
    return f"{kind}(children=({', '.join(children)}{tail}))"


def test_repr_is_dataclass_text():
    # Pinned from the dataclass-generated __repr__ it replaces.
    cases = {
        TRUE: "Const(value=True)",
        lt(0, 1): "Atom(op='lt', left=0, right=1)",
        and_(lt(0, 1)): "And(children=(Atom(op='lt', left=0, right=1),))",
        or_(not_(FALSE), ge(2, 0), and_(eq(1, 1), ne(0, 3))): (
            "Or(children=(Not(child=Const(value=False)), "
            "Atom(op='ge', left=2, right=0), "
            "And(children=(Atom(op='eq', left=1, right=1), "
            "Atom(op='ne', left=0, right=3)))))"
        ),
    }
    for f, text in cases.items():
        assert repr(f) == text == reference_repr(f)
    rng = random.Random(12)
    for _ in range(10):
        f = mixed_chain(rng, MAX_DEPTH)
        assert repr(f) == reference_repr(f)
    # The deepest chain the parser accepts, which the recursive
    # dataclass __repr__ could not print.
    text = "(and (lt 0 1) " * MAX_DEPTH + "true" + ")" * MAX_DEPTH
    assert repr(parse_formula(text)) == (
        "And(children=(Atom(op='lt', left=0, right=1), " * MAX_DEPTH
        + "Const(value=True)"
        + "))" * MAX_DEPTH
    )


def test_print_deepest_chains_beneath_caller_frames():
    # A recursive print_formula spent about three frames per connective,
    # so these chains failed once the caller already held 200 frames.
    def beneath(frames, fn):
        return fn() if frames == 0 else beneath(frames - 1, fn)

    for op in ("and", "or"):
        text = f"({op} (lt 0 1) " * MAX_DEPTH + "true" + ")" * MAX_DEPTH
        f = parse_formula(text)
        assert beneath(200, lambda: print_formula(f)) == text


def test_equality_is_structural():
    assert lt(0, 1) == Atom("lt", 0, 1) and hash(lt(0, 1)) == hash(lt(0, 1))
    assert lt(0, 1) != Atom("le", 0, 1)
    assert lt(0, 1) != lt(1, 0)
    assert and_(TRUE, FALSE) != or_(TRUE, FALSE)
    assert and_(TRUE) != and_(TRUE, TRUE)
    assert and_(TRUE, FALSE) != and_(FALSE, TRUE)
    assert TRUE != FALSE and TRUE != True
    assert not_(TRUE) != TRUE
    # Equal hashes never decide equality: the children are compared too.
    a, b = not_(lt(0, 1)), not_(lt(1, 0))
    object.__setattr__(b, "_hash", a._hash)
    assert a != b
