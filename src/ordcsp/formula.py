"""Quantifier-free formulas over ordered points.

A formula is a boolean combination of order comparisons between positions
of an integer point. Atoms compare two variable indices, e.g. ``lt 0 1``
holds on a point ``p`` iff ``p[0] < p[1]``. Integer points stand in for
rational ones: on finite sets only the relative order matters.

The concrete syntax is a small s-expression language::

    formula := "true" | "false" | "(" op ")"
    op      := ("lt"|"le"|"eq"|"ne"|"gt"|"ge") index index
             | "not" formula
             | "and" formula+
             | "or" formula+
    index   := [0-9]+

``parse_formula`` and ``print_formula`` round-trip exactly; the six
comparison operators are distinct AST nodes, never rewritten into each
other. Indices are ASCII digits only: ``str.isdigit`` alone also takes
the digits of other scripts. Connectives (``not``/``and``/``or``) nest at
most ``MAX_DEPTH`` deep; deeper input raises ``FormulaError`` from the
parser and from ``compile_formula``, never ``RecursionError``.

``compile_formula`` turns a formula into one generated ``lambda p: ...``
expression: atoms become ``p[i] < p[j]`` and so on, connectives the
Python operators ``not``/``and``/``or``, which short-circuit left to
right. ``compile_table`` puts the same expression, on coordinate names,
into one generated comprehension that builds a relation's whole table
over a list of points; samples and ``orbit_count`` build every table
with it. Sources hold only tokens from a fixed table, generated names,
``True``, ``False`` and indices written by ``int()``; no field of a node
is pasted in as text, and node fields are type-checked at construction.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields
from itertools import product

from .errors import CapExceeded, FormulaError

# Comparison operators and the Python source token each compiles to.
ATOM_OPS = {"lt": "<", "le": "<=", "eq": "==", "ne": "!=", "gt": ">", "ge": ">="}

# Connectives may nest this deep; deeper formulas raise FormulaError.
MAX_DEPTH = 300

# Coordinates per point in a generated table builder. Its source grows
# with them (10^4 compiled in about 0.4 s and 70 MB on a 2-core Xeon VM),
# and a one-element sample meets any arity, since 1^arity passes every cap.
MAX_TABLE_WIDTH = 10**4

# Connective levels inlined into one generated function. A deeper subtree
# becomes a function of its own, so each source stays far below the 200
# nested parentheses that the CPython tokenizer accepts.
_CHUNK_DEPTH = 50


class Formula:
    """Base class for AST nodes. Nodes are immutable and hashable.

    ``free_var_count`` is 1 + the largest variable index used (0 when no
    atom occurs), and ``depth`` the number of connectives on the longest
    path from the root to an atom or constant. Both are computed once at
    construction, and so is the hash, from the children's stored hashes;
    ``==`` and ``repr`` walk the trees with an explicit stack, so none of
    them recurses. ``repr`` writes the text a dataclass ``__repr__`` would.
    """

    free_var_count: int
    depth: int

    def _set(self, **kw):
        for key, value in kw.items():
            object.__setattr__(self, key, value)

    def _init(self, data, kids, free_var_count=0):
        data = (type(self), len(kids), *data)
        h = hash((data, tuple(k._hash for k in kids)))
        fvc = max([free_var_count] + [k.free_var_count for k in kids])
        depth = max([k.depth + 1 for k in kids], default=0)
        self._set(_data=data, _kids=kids, _hash=h)
        self._set(free_var_count=fvc, depth=depth)

    def __eq__(self, other):
        if not isinstance(other, Formula):
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is not b:
                if a._hash != b._hash or a._data != b._data:
                    return False
                stack.extend(zip(a._kids, b._kids))
        return True

    def __hash__(self):
        return self._hash

    def __repr__(self):
        # A stack of text pieces and nodes still to write, next one last.
        out = []
        stack = [self]
        while stack:
            item = stack.pop()
            if not isinstance(item, Formula):
                out.append(item)
                continue
            pieces = [type(item).__qualname__ + "("]
            for k, field in enumerate(fields(item)):
                value = getattr(item, field.name)
                pieces.append(("" if k == 0 else ", ") + field.name + "=")
                if isinstance(value, Formula):
                    pieces.append(value)
                elif isinstance(value, tuple):
                    pieces.append("(")
                    for i, child in enumerate(value):
                        pieces += [", ", child] if i else [child]
                    pieces.append(",)" if len(value) == 1 else ")")
                else:
                    pieces.append(repr(value))
            pieces.append(")")
            stack.extend(reversed(pieces))
        return "".join(out)


@dataclass(frozen=True, eq=False, repr=False)
class Const(Formula):
    value: bool

    def __post_init__(self):
        if type(self.value) is not bool:
            raise ValueError(f"constant must be a bool, got {self.value!r}")
        self._init((self.value,), ())


@dataclass(frozen=True, eq=False, repr=False)
class Atom(Formula):
    op: str
    left: int
    right: int

    def __post_init__(self):
        if self.op not in ATOM_OPS:
            raise ValueError(f"unknown comparison operator {self.op!r}")
        if type(self.left) is not int or type(self.right) is not int:
            raise ValueError("variable indices must be of type int")
        if self.left < 0 or self.right < 0:
            raise ValueError("variable indices must be non-negative")
        fvc = max(self.left, self.right) + 1
        self._init((self.op, self.left, self.right), (), fvc)


@dataclass(frozen=True, eq=False, repr=False)
class Not(Formula):
    child: Formula

    def __post_init__(self):
        self._init((), (self.child,))


@dataclass(frozen=True, eq=False, repr=False)
class _Connective(Formula):
    children: tuple[Formula, ...]

    def __post_init__(self):
        if len(self.children) < 1:
            name = type(self).__name__.lower()
            raise ValueError(f"{name} needs at least one child")
        self._init((), self.children)


class And(_Connective):
    pass


class Or(_Connective):
    pass


TRUE = Const(True)
FALSE = Const(False)


def lt(i, j):
    return Atom("lt", i, j)


def le(i, j):
    return Atom("le", i, j)


def eq(i, j):
    return Atom("eq", i, j)


def ne(i, j):
    return Atom("ne", i, j)


def gt(i, j):
    return Atom("gt", i, j)


def ge(i, j):
    return Atom("ge", i, j)


def not_(f):
    return Not(f)


def and_(*fs):
    return And(tuple(fs))


def or_(*fs):
    return Or(tuple(fs))


def compile_formula(f: Formula):
    """Return ``f`` as a ``point -> bool`` function, cached on the node:
    one generated ``lambda p: <expr>``, as the module docstring says. A
    subtree more than ``_CHUNK_DEPTH`` connectives below the root is
    compiled the same way and called by name. Raises ``FormulaError``
    when ``f`` nests deeper than ``MAX_DEPTH``.
    """
    fn = getattr(f, "_fn", None)
    if fn is None:
        if not isinstance(f, Formula):
            raise TypeError(f"not a formula: {f!r}")
        if f.depth > MAX_DEPTH:
            raise FormulaError(
                f"formula nests {f.depth} connectives deep, "
                f"limit is {MAX_DEPTH}"
            )
        env = {"__builtins__": {}}
        fn = eval("lambda p: " + _source(f, env, _CHUNK_DEPTH), env)
        f._set(_fn=fn, _tables={})
    return fn


def compile_table(f: Formula, arity: int, d: int):
    """Return ``f``'s table builder for an ``arity``-ary relation on
    points of dimension ``d``, cached on the node per ``(arity, d)``.

    The builder maps ``R = list(enumerate(points))`` to the frozenset of
    index tuples whose points, concatenated, satisfy ``f``: ``lambda R:
    frozenset((i0, i1,) for (i0, (x0, x1,)), (i1, (x2, x3,)), in
    product(R, repeat=2) if <expr>)``, with atoms such as ``x0 < x3``.
    One loop serves every arity. Raises as ``compile_formula`` does, and
    ``CapExceeded`` when a point has more than ``MAX_TABLE_WIDTH``
    coordinates (``arity * d``), before any source is written.
    """
    compile_formula(f)  # type and depth checks
    fn = f._tables.get((arity, d))
    if fn is None:
        env = {"__builtins__": {}, "frozenset": frozenset, "product": product}
        fn = f._tables[arity, d] = eval(_table_source(f, arity, d, env), env)
    return fn


def _table_source(f, arity, d, env):
    if arity < 1 or d < 1 or f.free_var_count > arity * d:
        raise ValueError(f"formula does not fit arity {arity}, dimension {d}")
    if arity * d > MAX_TABLE_WIDTH:
        raise CapExceeded(
            f"table width: {arity} * {d} coordinates > {MAX_TABLE_WIDTH}"
        )
    names = ["x%d" % v for v in range(arity * d)]
    targets = [
        "(i%d, (%s,))" % (i, ", ".join(names[i * d : (i + 1) * d]))
        for i in range(arity)
    ]
    loops = "for %s, in product(R, repeat=%d)" % (", ".join(targets), arity)
    head = "(%s,)" % ", ".join("i%d" % i for i in range(arity))
    expr = _source(f, env, _CHUNK_DEPTH, names)
    return "lambda R: frozenset(%s %s if %s)" % (head, loops, expr)


def _source(f, env, levels, names=None):
    """Python source for ``f`` inlining ``levels`` connectives; a
    connective below those is compiled on its own and bound in ``env``
    under a new name. Atoms read ``p[i]``, or ``names[i]`` if given."""
    if isinstance(f, Const):
        return "True" if f.value else "False"
    if isinstance(f, Atom):
        op = ATOM_OPS[f.op]
        if names is None:
            return "p[%d] %s p[%d]" % (int(f.left), op, int(f.right))
        return "%s %s %s" % (names[f.left], op, names[f.right])
    if levels == 0:
        name = "f%d" % len(env)
        env[name] = compile_formula(f)
        point = "p" if names is None else "(%s,)" % ", ".join(names)
        return "%s(%s)" % (name, point)
    if isinstance(f, Not):
        return "(not " + _source(f.child, env, levels - 1, names) + ")"
    if isinstance(f, (And, Or)):
        glue = " and " if isinstance(f, And) else " or "
        parts = []
        for c in f.children:  # a loop, not a generator: one frame per level
            parts.append(_source(c, env, levels - 1, names))
        return "(" + glue.join(parts) + ")"
    raise TypeError(f"not a formula: {f!r}")


def print_formula(f: Formula) -> str:
    if isinstance(f, Const):
        return "true" if f.value else "false"
    if isinstance(f, Atom):
        return f"({f.op} {f.left} {f.right})"
    if isinstance(f, Not):
        return f"(not {print_formula(f.child)})"
    if isinstance(f, And):
        return "(and " + " ".join(print_formula(c) for c in f.children) + ")"
    if isinstance(f, Or):
        return "(or " + " ".join(print_formula(c) for c in f.children) + ")"
    raise TypeError(f"not a formula: {f!r}")


def parse_formula(text: str) -> Formula:
    """Parse s-expression formula text; raises FormulaError on bad input,
    including any value that is not a ``str``. The tokens, with their
    offsets, lie on a stack, next token last, above ``(None, len(text))``
    for the end of input, where every parse that reaches it fails."""
    if not isinstance(text, str):
        raise FormulaError(f"formula must be a string, got {text!r}")
    tokens = [(t[0], t.start()) for t in re.finditer(r"[()]|[^\s()]+", text)]
    tokens.append((None, len(text)))
    tokens.reverse()

    def formula(depth):
        """Parse one formula lying ``depth`` connectives deep."""
        tok, at = tokens.pop()
        if tok is None:
            raise FormulaError("unexpected end of input", at)
        if tok == "true":
            return TRUE
        if tok == "false":
            return FALSE
        if tok == ")":
            raise FormulaError("unexpected ')'", at)
        if tok != "(":
            raise FormulaError(f"expected formula, got {tok!r}", at)
        op, op_at = tokens.pop()
        if op is None:
            raise FormulaError("unexpected end of input after '('", op_at)
        if op in ATOM_OPS:
            i = index(op)
            j = index(op)
            close(op)
            return Atom(op, i, j)
        if op in ("not", "and", "or") and depth == MAX_DEPTH:
            raise FormulaError(f"connectives nest deeper than {MAX_DEPTH}", op_at)
        if op == "not":
            child = formula(depth + 1)
            close(op)
            return Not(child)
        if op in ("and", "or"):
            children = []
            while tokens[-1][0] != ")":
                if tokens[-1][0] is None:
                    raise FormulaError(f"unterminated ({op} ...)", tokens[-1][1])
                children.append(formula(depth + 1))
            tokens.pop()
            if not children:
                raise FormulaError(f"'{op}' needs at least one operand", op_at)
            return (And if op == "and" else Or)(tuple(children))
        raise FormulaError(f"unknown operator {op!r}", op_at)

    def index(op):
        tok, at = tokens.pop()
        if tok is None or tok in "()":
            raise FormulaError(f"'{op}' expects two indices", at)
        if not (tok.isascii() and tok.isdigit()):
            raise FormulaError(
                f"expected non-negative integer index, got {tok!r}", at
            )
        return int(tok)

    def close(op):
        tok, at = tokens.pop()
        if tok != ")":
            shown = "end of input" if tok is None else repr(tok)
            raise FormulaError(f"expected ')' closing '{op}', got {shown}", at)

    f = formula(0)
    tok, at = tokens[-1]
    if tok is not None:
        raise FormulaError(f"trailing input {tok!r}", at)
    return f
