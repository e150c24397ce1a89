"""Dialogue application on Baire space, its k/s basis, and the extraction
algorithm behind the non-localic examples.

Elements are total functions on the naturals.  Application interrogates
the argument along ever longer prefixes: alpha·beta at n is k when alpha,
fed the code of [n, beta(0), ..., beta(N-1)], answers k+1 at the first N
where it answers positively (zero means "read more").

Sequence coding (fixed once, used everywhere): the empty sequence is 0; a
sequence of length l+1 with values v0..vl is pair(l, fold)+1, where pair
is the Cantor pairing (x+y)(x+y+1)/2 + y and fold combines the sequence by
balanced halves (the left half takes the extra element when odd).  For
each length the fold is a bijection, so the whole coding is one.  A
Cantor pairing doubles bit width, so the balanced shape is load-bearing:
it keeps codes linear in the content where a left-to-right chain would be
exponential, and dialogue positions stay machine-sized.

A dialogue hands alpha its query as a tuple, whose first item (the
position) may itself be a query tuple.  The code is built only where a
number is read: by an opaque element (a user function or a generator
expression) and by a prefix oracle asked at a query.  The k/s basis and
applications read the items as they are, so s folds no growing prefix.  A
dialogue that asks k or s directly learns which position refused it and
reads up to there before asking again: one round per position read, where
an opaque element takes a round per prefix length.
"""

from __future__ import annotations

import math
from itertools import product

from .errors import CapExceeded, StructureError
from .record import Value

__all__ = [
    "pair", "unpair", "encode_seq", "decode_seq",
    "K2Element", "FuelExhausted", "k2_apply", "apply_elem", "apply_many",
    "k2_basis", "basic_open_contains", "is_discrete", "DiscreteReport",
    "tau_extract", "parse_generator", "from_expr",
]

# Most answers one element stores; later answers are recomputed when asked
# again, so a long dialogue keeps at most this many codes per element.
_MEMO_CAP = 1024


def pair(x, y):
    s = x + y
    return s * (s + 1) // 2 + y


def unpair(z):
    w = (math.isqrt(8 * z + 1) - 1) // 2
    y = z - w * (w + 1) // 2
    return w - y, y


def _fold(items, lo, hi):
    if hi - lo == 1:
        return items[lo]
    mid = (lo + hi + 1) // 2
    return pair(_fold(items, lo, mid), _fold(items, mid, hi))


def _unfold(code, count):
    if count == 1:
        return [code]
    left = (count + 1) // 2
    a, b = unpair(code)
    return _unfold(a, left) + _unfold(b, count - left)


def encode_seq(seq):
    seq = list(seq)
    if not seq:
        return 0
    return pair(len(seq) - 1, _fold(seq, 0, len(seq))) + 1


def decode_seq(z):
    if z == 0:
        return ()
    rest, fold = unpair(z - 1)
    return tuple(_unfold(fold, rest + 1))


def _code(x):
    """The number a dialogue item stands for: an int is itself, a query
    tuple the code of its items' numbers."""
    if isinstance(x, int):
        return x
    return encode_seq([v if isinstance(v, int) else _code(v) for v in x])


class FuelExhausted(RuntimeError):
    """A composite element was queried beyond its dialogue budget."""


class K2Element:
    """A total function on the naturals, memoized, safe to query concurrently.

    The generator must be pure; racing queries at worst recompute the same
    value.  ``recursive`` tags elements built from the bounded expression
    language (or the basis): the constructive stand-in for filter membership.
    A query tuple reaches the generator as its code; the memo keeps the first
    ``_MEMO_CAP`` answers.
    """

    def __init__(self, fn, recursive=False, name=None):
        self._fn = fn
        self.recursive = recursive
        self.name = name or "elem"
        self._memo = {}

    def __call__(self, n):
        n = _code(n)
        memo = self._memo
        if n in memo:
            return memo[n]
        v = self._fn(n)
        if not isinstance(v, int) or v < 0:
            raise StructureError(f"{self.name} produced {v!r} at {n}; needs a natural")
        if len(memo) < _MEMO_CAP:
            memo[n] = v
        return v

    def __repr__(self):
        tag = "rec" if self.recursive else "raw"
        return f"<K2 {self.name} [{tag}]>"


class _ItemReader(K2Element):
    """An element of the basis or an application.  It reads a query tuple's
    items as they are and keeps no answer to one: a dialogue asks each of
    its queries once, and long prefixes would fill the memo."""

    def __call__(self, n):
        return K2Element.__call__(self, n) if isinstance(n, int) else self._fn(n)


def _dialogue(alpha, beta, n, fuel=None):
    """Round N asks alpha about [n, beta(0), ..., beta(N-1)] until it answers
    k+1, giving k; None after round ``fuel``.  Unfuelled, as in the s basis,
    it ends because queried positions grow and prefix oracles abort.  A basis
    element asked directly also names the position its refusal read; every
    round up to that position refuses alike, so those rounds only read beta.
    """
    query = [n]
    length = 0
    h = alpha.h if type(alpha) is _Basis else None
    while True:
        if h is None:
            v, last = alpha(tuple(query)), length
        else:
            v, last = _assoc_read(h, tuple(query))
        if v > 0:
            return v - 1
        while length <= last:
            if length == fuel:
                return None
            query.append(beta(length))
            length += 1


def k2_apply(alpha, beta, n, fuel):
    """Value of alpha·beta at n, reading at most ``fuel`` values of beta.

    Scans N = 0..fuel in order, so a positive answer is automatically the
    first one and everything below it answered zero; None is the
    undefined-at-this-fuel verdict, not an error.  Monotone in fuel.
    """
    return _dialogue(alpha, beta, n, fuel)


def apply_elem(alpha, beta, fuel):
    """alpha·beta as a (possibly partial) element; queries beyond the fuel
    raise FuelExhausted."""
    label = f"({alpha.name}·{beta.name})"

    def fn(n):
        v = k2_apply(alpha, beta, n, fuel)
        if v is None:
            raise FuelExhausted(f"{label} at {_code(n)} (fuel {fuel})")
        return v

    return _ItemReader(fn, recursive=False, name=label)


def apply_many(fuel, *elems):
    out = elems[0]
    for e in elems[1:]:
        out = apply_elem(out, e, fuel)
    return out


# ---------------------------------------------------------------------------
# The basis: k and s as honest dialogue elements
# ---------------------------------------------------------------------------

class _NeedMore(Exception):
    __slots__ = ("token", "position")

    def __init__(self, token, position):
        self.token = token
        self.position = position


def _assoc_read(h, x):
    """Value at the query tuple x = [n, prefix...] of the element associated
    to the oracle computation h, and the position whose read refused.

    h runs with an oracle giving the prefix and raising beyond it, in which
    case the answer is 0 ("read more"); a completed run answers result+1.
    Aborts raised by *outer* oracles propagate, which is what nests the
    construction soundly.  h is deterministic, so every prefix too short to
    reach the refused position refuses there as well.
    """
    bound = len(x) - 1
    token = object()

    def oracle(i):
        i = _code(i)
        if i < bound:
            return x[i + 1]
        raise _NeedMore(token, i)

    try:
        return h(oracle, x[0]) + 1, None
    except _NeedMore as e:
        if e.token is token:
            return 0, e.position
        raise


def _assoc_value(h, x):
    """``_assoc_read``'s value, at a query tuple or its code."""
    if isinstance(x, int):
        x = decode_seq(x)
    return _assoc_read(h, x)[0] if x else 0


class _Basis(_ItemReader):
    """k or s: the element associated to the oracle computation ``h``."""

    def __init__(self, h, name):
        _ItemReader.__init__(self, lambda x: _assoc_value(self.h, x), recursive=True, name=name)
        self.h = h


def k2_basis():
    """Recursive-tagged k and s with k·a·b ~ a and s·a·b·c ~ (a·c)·(b·c).

    Prefix agreement with the right-hand sides holds wherever those
    converge.  An s dialogue reads its first argument up to sequence-code
    positions, but asks s once per position it reads, not once per prefix
    length; law checks probe where the simulated application converges.
    """
    def k_outer(a_or, n1):
        return _assoc_value(lambda b_or, n: a_or(n), n1)

    k = _Basis(k_outer, "k")

    def s_level1(a_or, n1):
        def s_level2(b_or, n2):
            def s_level3(c_or, n):
                def ac(j):
                    return _dialogue(a_or, c_or, j)

                def bc(j):
                    return _dialogue(b_or, c_or, j)

                return _dialogue(ac, bc, n)

            return _assoc_value(s_level3, n2)

        return _assoc_value(s_level2, n1)

    s = _Basis(s_level1, "s")
    return k, s


# ---------------------------------------------------------------------------
# Topology: basic opens and discreteness of finite sets
# ---------------------------------------------------------------------------

def basic_open_contains(sigma, alpha):
    """Membership in the basic open of functions extending sigma."""
    return all(alpha(i) == v for i, v in enumerate(sigma))


class DiscreteReport(Value):
    _fields = ("discrete",
               "prefixes",  # element position -> isolating prefix (tuple)
               "witness")  # positions of two elements agreeing to depth


def is_discrete(elements, depth):
    """Isolating prefixes of length <= depth for each element, if any.

    Two elements agreeing on 0..depth-1 make the family non-discrete at
    this depth; the offending pair is reported.
    """
    elements = list(elements)
    for i, a in enumerate(elements):
        for j in range(i + 1, len(elements)):
            if all(a(t) == elements[j](t) for t in range(depth)):
                return DiscreteReport(False, None, (i, j))
    prefixes = {}
    for i, a in enumerate(elements):
        for length in range(depth + 1):
            sigma = tuple(a(t) for t in range(length))
            if all(idx == i or not basic_open_contains(sigma, other)
                   for idx, other in enumerate(elements)):
                prefixes[i] = sigma
                break
    return DiscreteReport(True, prefixes, None)


# ---------------------------------------------------------------------------
# The extraction recipe from the non-localic argument
# ---------------------------------------------------------------------------

# Most alpha calls phase 2 of tau_extract makes before it refuses.
_TAU_CAP = 1 << 18


def tau_extract(alpha, prefix, nprime, j, fuel):
    """Two-phase search for the hidden value at j.

    Phase 1 scans k <= nprime for a positive alpha([j, prefix[..k]]).
    Phase 2 extends the full prefix by tuples, breadth-first in length and
    lexicographic within one, values and length both bounded by fuel.
    The first positive answer, minus one, is returned; None otherwise.
    Phase 2 makes up to sum((fuel+1)^l for l = 1..fuel) alpha calls; the
    call past ``_TAU_CAP`` raises CapExceeded naming that sum.
    """
    prefix = list(prefix)
    if len(prefix) != nprime + 1:
        raise StructureError(f"prefix length {len(prefix)} != nprime+1 = {nprime + 1}")
    for k in range(nprime + 1):
        v = alpha(encode_seq([j] + prefix[:k + 1]))
        if v > 0:
            return v - 1
    base = [j] + prefix
    calls = 0
    for ext_len in range(1, fuel + 1):
        for ext in product(range(fuel + 1), repeat=ext_len):
            if calls == _TAU_CAP:
                raise CapExceeded(f"tau_extract phase 2 alpha calls at fuel {fuel}",
                                  sum((fuel + 1) ** m for m in range(1, fuel + 1)), _TAU_CAP)
            calls += 1
            v = alpha(encode_seq(base + list(ext)))
            if v > 0:
                return v - 1
    return None


# ---------------------------------------------------------------------------
# Bounded expression language for generators
# ---------------------------------------------------------------------------
#
#   expr   := term (('+' | '-') term)*          '-' is truncated
#   term   := atom ('*' atom)*
#   atom   := NAT | IDENT | FN '(' args ')' | '(' expr ')'
#   FN     := eq | lt | le | mu
#
# eq/lt/le return 0 or 1.  mu(v, bound, body) binds v and yields the least
# v < bound with body > 0, else bound.  The argument is the identifier n.
# Everything is total on the naturals; composition is expression nesting.

_FUNCTIONS = ("eq", "lt", "le", "mu")
_DIGITS = "0123456789"
# Deepest nesting of parentheses, function calls and operators accepted; the
# parser and the evaluator recurse through every level.
_MAX_DEPTH = 100


def _tokenize_expr(src):
    out = []
    i = 0
    while i < len(src):
        c = src[i]
        if c.isspace():
            i += 1
        elif c in "+-*(),":
            out.append(c)
            i += 1
        elif c in _DIGITS:  # str.isdigit also accepts digits int() refuses
            j = i
            while j < len(src) and src[j] in _DIGITS:
                j += 1
            out.append(int(src[i:j]))
            i = j
        elif c.isalpha() or c == "_":
            j = i
            while j < len(src) and (src[j].isalnum() or src[j] == "_"):
                j += 1
            out.append(src[i:j])
            i = j
        else:
            raise StructureError(f"bad character {c!r} in generator expression")
    return out


def parse_generator(src):
    """Parse an expression; returns an AST of nested tuples."""
    tokens = _tokenize_expr(src)
    pos = 0
    nesting = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def nest(step):
        nonlocal nesting
        nesting += step
        if nesting > _MAX_DEPTH:
            raise StructureError(f"generator expression nests deeper than {_MAX_DEPTH}")

    def eat(tok):
        nonlocal pos
        if peek() != tok:
            raise StructureError(f"expected {tok!r}, got {peek()!r}")
        pos += 1

    def parse_expr():
        node = parse_term()
        while peek() in ("+", "-"):
            op = peek()
            eat(op)
            node = (op, node, parse_term())
        return node

    def parse_term():
        node = parse_atom()
        while peek() == "*":
            eat("*")
            node = ("*", node, parse_atom())
        return node

    def parse_atom():
        nonlocal pos
        tok = peek()
        if isinstance(tok, int):
            pos += 1
            return ("nat", tok)
        if tok == "(":
            eat("(")
            nest(1)
            node = parse_expr()
            nest(-1)
            eat(")")
            return node
        if isinstance(tok, str) and tok not in ("+", "-", "*", "(", ")", ","):
            pos += 1
            if peek() == "(":
                if tok not in _FUNCTIONS:
                    raise StructureError(f"unknown function {tok!r}")
                eat("(")
                nest(1)
                args = [parse_expr()]
                while peek() == ",":
                    eat(",")
                    args.append(parse_expr())
                nest(-1)
                eat(")")
                if tok == "mu":
                    if len(args) != 3 or args[0][0] != "var":
                        raise StructureError("mu needs (variable, bound, body)")
                    return ("mu", args[0][1], args[1], args[2])
                if len(args) != 2:
                    raise StructureError(f"{tok} needs two arguments")
                return (tok, args[0], args[1])
            return ("var", tok)
        raise StructureError(f"unexpected token {tok!r}")

    node = parse_expr()
    if pos != len(tokens):
        raise StructureError(f"trailing tokens {tokens[pos:]!r}")
    if _depth(node) > _MAX_DEPTH:  # a long operator chain nests without parentheses
        raise StructureError(f"generator expression nests deeper than {_MAX_DEPTH}")
    return node


def _depth(node):
    """Levels of nested tuples in an AST, counted without recursion."""
    deepest, stack = 0, [(node, 1)]
    while stack:
        node, level = stack.pop()
        deepest = max(deepest, level)
        stack.extend((child, level + 1) for child in node[1:] if isinstance(child, tuple))
    return deepest


def _eval_ast(node, env):
    kind = node[0]
    if kind == "nat":
        return node[1]
    if kind == "var":
        if node[1] not in env:
            raise StructureError(f"unbound variable {node[1]!r}")
        return env[node[1]]
    if kind in ("+", "-", "*"):
        a, b = _eval_ast(node[1], env), _eval_ast(node[2], env)
        if kind == "+":
            return a + b
        if kind == "-":
            return max(a - b, 0)
        return a * b
    if kind == "eq":
        return int(_eval_ast(node[1], env) == _eval_ast(node[2], env))
    if kind == "lt":
        return int(_eval_ast(node[1], env) < _eval_ast(node[2], env))
    if kind == "le":
        return int(_eval_ast(node[1], env) <= _eval_ast(node[2], env))
    _, var, bound_ast, body = node  # "mu", the last kind parse_generator builds
    bound = _eval_ast(bound_ast, env)
    inner = dict(env)
    for candidate in range(bound):
        inner[var] = candidate
        if _eval_ast(body, inner) > 0:
            return candidate
    return bound


def from_expr(src):
    """Compile a generator expression to a recursive-tagged element named
    by its source."""
    ast = parse_generator(src)
    return K2Element(lambda n: _eval_ast(ast, {"n": n}), recursive=True, name=src)
