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

Four compilers write a formula as Python source, all through one writer
that takes an atom writer and a token table: ``True``, ``False``,
``not``, ``and``, ``or`` on bools, which short-circuit left to right,
and ``F`` (all m bits), ``0``, ``F ^``, ``&``, ``|`` on m-bit masks. A
connective ``_CHUNK_DEPTH`` levels down becomes a ``def cN`` of the
point's names nested in ``make``, the function each source defines in
the module's one ``exec``, which returns the builder (for rows, the
rows). A node caches its builders in one dict.
``compile_formula`` evaluates a point, with atoms such as ``p[0] <
p[1]``. ``compile_table`` builds a relation's whole table over a list of
points in one comprehension, with atoms on coordinate names such as
``x0 < x3``; a sample builds each relation of arity other than 2 with it.
``compile_rows`` gives a binary formula's forward and backward rows over
m points as m-bit masks, one expression per point. On its own point's
coordinates ``x0, x1, ...`` an atom on two of them becomes ``F`` or
``0``, an atom on two of the other point's coordinates a precomputed
mask of the points where it holds, and a mixed atom such as ``x0 < x3``
a lookup ``T[x0]`` in a value table, which maps each value of any
coordinate to the mask of the points whose coordinate compares with it
that way. Swapping the two points' roles gives the backward rows. The
masks and tables depend only on the point list, so the builder reads
them from a dict, keyed ``(op, a, b)`` or ``(op, c)``, that formulas
over the same points share. ``sampler.template_source`` reads both
directions of every binary relation, and ``sampler`` the equality rows.
``compile_pair_codes`` puts several binary formulas into one
comprehension that gives each ordered pair of points an int with a bit
per formula, which ``orbit_count`` canonicalizes on. Sources hold only
tokens from fixed tables, generated names and indices written by ``%d``;
no node field is pasted in as text; each is type-checked at construction.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from itertools import accumulate, compress, count, product

from .errors import CapExceeded, FormulaError

# Comparison operators and the Python source token each compiles to.
ATOM_OPS = {"lt": "<", "le": "<=", "eq": "==", "ne": "!=", "gt": ">", "ge": ">="}

# Connectives may nest this deep; deeper formulas raise FormulaError.
MAX_DEPTH = 300

# Coordinates per point in a generated table builder. Its source grows with
# them, and again with each chunk: 10^4 compile in about 0.2 s and 70 MB, and
# a MAX_DEPTH chain on them (5 chunks) in 0.5 s and 150 MB, on a 2-core Xeon
# VM. A one-element sample meets any arity, since 1^arity passes every cap.
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
    construction, and so is the hash, from the children's stored hashes.
    ``==``, ``repr`` and ``print_formula`` walk trees on an explicit stack
    and never recurse; ``repr`` writes the text a dataclass's would.
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
        return _write(self, _repr_parts)


@dataclass(frozen=True, eq=False)
class Const(Formula):
    value: bool

    def __post_init__(self):
        if type(self.value) is not bool:
            raise ValueError(f"constant must be a bool, got {self.value!r}")
        self._init((self.value,), ())


@dataclass(frozen=True, eq=False)
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


# Constants and connectives of a generated expression: true, false, not
# (closed by ")"), and, or. ``F`` is the mask of all m bits.
_BOOL = ("True", "False", "(not ", " and ", " or ")
_MASK = ("F", "0", "(F ^ ", " & ", " | ")


def compile_formula(f: Formula):
    """Return ``f`` as a ``point -> bool`` function, cached on the node:
    one generated ``lambda p: <expr>``, as the module docstring says.
    Raises ``FormulaError`` when ``f`` nests deeper than ``MAX_DEPTH``."""
    try:
        return f._cache["point"]
    except (AttributeError, KeyError):
        pass
    cache, chunks = _cache(f), []
    expr = _expr(f, _atom_on("p[%d]"), _BOOL, "p", chunks)
    fn = cache["point"] = _define("", chunks, "lambda p: " + expr)()
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
    cache = _cache(f)
    if (arity, d) not in cache:
        _check_shape(f, arity, d)
        names, chunks = ["x%d" % v for v in range(arity * d)], []
        points = [", ".join(names[i * d : (i + 1) * d]) for i in range(arity)]
        loop = ", ".join("(i%d, (%s,))" % pair for pair in enumerate(points))
        head = ", ".join("i%d" % i for i in range(arity))
        expr = _expr(f, _atom_on("x%d"), _BOOL, ", ".join(names), chunks)
        body = "lambda R: frozenset((%s,) for %s, in product(R, repeat=%d) if %s)"
        cache[arity, d] = _define("", chunks, body % (head, loop, arity, expr))()
    return cache[arity, d]


# A comparison with its sides exchanged: v < w iff w > v.
_FLIPPED = {"lt": "gt", "le": "ge", "eq": "eq", "ne": "ne", "gt": "lt", "ge": "le"}


def compile_rows(f: Formula, d: int):
    """Return ``f``'s row builder for a binary relation on points of
    dimension ``d``, cached on the node per ``d``. The builder maps a list
    of m points ``P`` to two iterators over m-bit ints, the forward and
    the backward rows: bit ``j`` of forward row ``i`` and bit ``i`` of
    backward row ``j`` are set iff ``P[i] + P[j]`` satisfies ``f``. The
    masks and value tables its expressions read (see the module docstring)
    are looked up when it is called in ``tables``, a dict over the same
    ``P`` that other builders may share, and made and put there if
    missing; without ``tables`` they are made for the one call. Each row
    is made as it is read. Raises as ``compile_table`` does for arity 2.
    """
    cache = _cache(f)
    if ("rows", d) in cache:
        return cache["rows", d]
    _check_shape(f, 2, d)
    keys, chunks = {}, []
    row = ", ".join("x%d" % c for c in range(d))

    def atom(g, swap):
        row_a, row_b = (g.left < d) != swap, (g.right < d) != swap
        op, a, b = g.op, int(g.left) % d, int(g.right) % d
        if row_a and row_b:
            return "(F if x%d %s x%d else 0)" % (a, ATOM_OPS[op], b)
        if row_b:  # read a op b as b FLIPPED[op] a
            op, a, b, row_a = _FLIPPED[op], b, a, True
        key = (op, b) if row_a else (op, a, b)
        name = keys.setdefault(key, "D%d" % len(keys))
        return "%s[x%d]" % (name, a) if row_a else name

    fwd = _expr(f, lambda g: atom(g, False), _MASK, row, chunks)
    bwd = _expr(f, lambda g: atom(g, True), _MASK, row, chunks)
    loop = "for (%s,) in P)" % row
    head = ", ".join(["P", "F", *keys.values()])
    make = _define(head, chunks, "(%s %s, (%s %s" % (fwd, loop, bwd, loop))
    keys = list(keys)

    def rows(P, tables=None):
        full = (1 << len(P)) - 1
        tables = {} if tables is None else tables
        return make(P, full, *[_row_data(P, key, full, tables) for key in keys])

    cache["rows", d] = rows
    return rows


def _row_data(P, key, full, tables):
    """``tables[key]``, made first if missing: for ``(op, a, b)`` the mask
    of the points p with ``p[a] op p[b]``, for ``(op, c)`` the value table
    that maps each value v of any coordinate in ``P`` to the mask of the
    points p with ``v op p[c]``. The ``("eq", c)`` table is one pass over
    ``P``; the others are its masks, complemented or ORed in value order."""
    if key in tables:
        return tables[key]
    op, c = key[0], key[-1]
    if len(key) == 3:
        a = [p[key[1]] for p in P]
        holds = map(getattr(operator, op), a, [p[c] for p in P])
        data = sum(map((1).__lshift__, compress(count(), holds)))
    elif op == "eq":
        data = dict.fromkeys(sorted(set().union(*P)), 0)
        for j, p in enumerate(P):
            data[p[c]] |= 1 << j
    else:
        at = _row_data(P, ("eq", c), full, tables)
        eqs = list(at.values())
        if op == "ne":
            masks = [full ^ e for e in eqs]
        elif op in ("gt", "ge"):  # the points below v, or at v too
            up = list(accumulate(eqs, operator.or_, initial=0))
            masks = up[:-1] if op == "gt" else up[1:]
        else:  # the points above v, or at v too
            down = list(accumulate(reversed(eqs), operator.or_, initial=0))[::-1]
            masks = down[1:] if op == "lt" else down[:-1]
        data = dict(zip(at, masks))
    tables[key] = data
    return data


def compile_pair_codes(fs, d: int):
    """Return one builder for the binary formulas ``fs`` on points of
    dimension ``d``, not cached.

    The builder maps a list of k points to the flat list of k * k ints
    whose entry i * k + j has bit b set iff points i and j, concatenated,
    satisfy ``fs[b]``: ``lambda P: [(1 if <expr0> else 0) | (2 if <expr1>
    else 0) for (x0, x1,) in P for (x2, x3,) in P]``. Raises as
    ``compile_table`` does for arity 2.
    """
    names, chunks, terms = ["x%d" % v for v in range(2 * d)], [], []
    for bit, f in enumerate(fs):
        _cache(f)  # type and depth checks
        _check_shape(f, 2, d)
        expr = _expr(f, _atom_on("x%d"), _BOOL, ", ".join(names), chunks)
        terms.append("(%d if %s else 0)" % (1 << bit, expr))
    if not terms:
        return lambda P: [0] * (len(P) * len(P))
    row, col = ", ".join(names[:d]), ", ".join(names[d:])
    body = "lambda P: [%s for (%s,) in P for (%s,) in P]"
    return _define("", chunks, body % (" | ".join(terms), row, col))()


def _check_shape(f, arity, d):
    if arity < 1 or d < 1 or f.free_var_count > arity * d:
        raise ValueError(f"formula does not fit arity {arity}, dimension {d}")
    if arity * d > MAX_TABLE_WIDTH:
        raise CapExceeded(
            f"table width: {arity} * {d} coordinates > {MAX_TABLE_WIDTH}"
        )


def _cache(f):
    """``f``'s one dict of builders, given once ``f`` passes the type and
    depth checks, so those run before anything is built."""
    if not isinstance(f, Formula):
        raise TypeError(f"not a formula: {f!r}")
    if f.depth > MAX_DEPTH:
        raise FormulaError(
            f"formula nests {f.depth} connectives deep, limit is {MAX_DEPTH}"
        )
    return vars(f).setdefault("_cache", {})


def _atom_on(name):
    """An atom writer on the names ``name % i``, such as ``p[%d]``."""
    return lambda g: "%s %s %s" % (name % g.left, ATOM_OPS[g.op], name % g.right)


def _expr(f, atom, tokens, point, chunks):
    """Python source for ``f``: ``atom(node)`` writes an atom, and
    ``tokens`` (``_BOOL`` or ``_MASK``) the constants and connectives. A
    connective ``_CHUNK_DEPTH`` levels below the root, or below a chunk's
    root, becomes a chunk: ``def cN(<point>): return <expr>`` is appended
    to ``chunks``, and ``cN(<point>)`` called in its place."""
    true, false, neg, conj, disj = tokens

    def walk(g, levels):
        if isinstance(g, Const):
            return true if g.value else false
        if isinstance(g, Atom):
            return atom(g)
        if levels == 0:
            body = walk(g, _CHUNK_DEPTH)
            call = "c%d(%s)" % (len(chunks), point)
            chunks.append("    def %s:\n        return %s\n" % (call, body))
            return call
        if isinstance(g, Not):
            return neg + walk(g.child, levels - 1) + ")"
        if isinstance(g, (And, Or)):
            glue = conj if isinstance(g, And) else disj
            parts = []
            for c in g.children:  # a loop, not a generator: one frame per level
                parts.append(walk(c, levels - 1))
            return "(" + glue.join(parts) + ")"
        raise TypeError(f"not a formula: {g!r}")

    return walk(f, _CHUNK_DEPTH)


def _define(params, chunks, body):
    """The module's one ``exec``: ``def make(<params>)``, which defines the
    ``chunks`` and returns ``body``, with no builtins but a table's two."""
    env = {"__builtins__": {}, "frozenset": frozenset, "product": product}
    exec("def make(%s):\n%s    return %s\n" % (params, "".join(chunks), body), env)
    return env["make"]


def print_formula(f: Formula) -> str:
    if not isinstance(f, Formula):
        raise TypeError(f"not a formula: {f!r}")
    return _write(f, _syntax_parts)


def _syntax_parts(f):
    """A node's concrete syntax around its children."""
    if isinstance(f, Atom):
        return f"({f.op} {f.left} {f.right})", "", ""
    if isinstance(f, Const):
        return "true" if f.value else "false", "", ""
    return "(" + type(f).__name__.lower() + " ", " ", ")"


def _repr_parts(f):
    """A node's dataclass repr around its children; leaves have their own."""
    name = type(f).__qualname__
    if isinstance(f, Not):
        return name + "(child=", "", ")"
    if isinstance(f, _Connective):
        close = ",))" if len(f._kids) == 1 else "))"
        return name + "(children=(", ", ", close
    return repr(f), "", ""


def _write(f, parts):
    """Write ``f`` without recursion: ``parts(node)`` gives the text before,
    between and after the node's children, which are written the same way.
    A stack holds the text and nodes still to write, next one last."""
    out, stack = [], [f]
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
            continue
        before, between, after = parts(item)
        out.append(before)
        stack.append(after)
        for i, child in enumerate(reversed(item._kids)):
            stack += (between, child) if i else (child,)
    return "".join(out)


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
