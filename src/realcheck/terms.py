"""Applicative term language over K/S, bracket abstraction, and evaluation.

Terms are finite binary application trees whose leaves are the basic
combinators K and S, named variables, or references to elements of a host
structure.  Bracket abstraction compiles variables away with the classic
algorithm, and reduction is weak leftmost-outermost with a fuel budget.
``compile_terms`` and ``compile_closed`` turn closed terms into
straight-line programs that a run evaluates with one table read per step;
``Program.values`` is the only interpreter, and ``eval_in_opca`` checks a
term's leaves, binds its variables and runs it as a program.  Every function
that reads a whole term loops over ``_subterms`` (``App``'s ``==`` over its
own stack), so a term of any depth is handled; only ``parse_term`` recurses,
at most ``_MAX_DEPTH`` levels.
"""

from __future__ import annotations

import re
from collections import Counter
from functools import lru_cache, reduce

from .errors import CapExceeded, StructureError
from .record import Frozen, Value, set_field

__all__ = [
    "Term", "Var", "Const", "App", "K", "S", "Diverged",
    "app", "free_vars", "subst", "bracket", "lam", "BRACKET_NODE_CAP",
    "reduce_term", "eval_in_opca", "parse_term", "term_str",
    "Program", "compile_terms", "compile_closed",
]


class _Named(Value):
    """A leaf named by a string, shown as the bare name."""

    _fields = ("name",)
    __slots__ = _fields

    def __init__(self, name):
        set_field(self, "name", name)

    def __repr__(self):
        return self.name


class Var(_Named):
    __slots__ = ()


class _Basic(_Named):
    __slots__ = ()


class Const(Value):
    """Reference to an element of a host structure (any hashable handle)."""

    _fields = ("value",)
    __slots__ = _fields

    def __init__(self, value):
        set_field(self, "value", value)

    def __repr__(self):
        return f"`{self.value}"


class App(Value):
    _fields = ("fn", "arg")
    __slots__ = _fields

    def __init__(self, fn, arg):
        set_field(self, "fn", fn)
        set_field(self, "arg", arg)

    def __eq__(self, other):  # on a stack of pairs, so that any depth compares
        if other.__class__ is not App:
            return NotImplemented
        stack = [(self, other)]
        while stack:
            x, y = stack.pop()
            if x.__class__ is App and y.__class__ is App:
                if x is not y:
                    stack += ((x.arg, y.arg), (x.fn, y.fn))
            elif x.__class__ is App or y.__class__ is App or x != y:
                return False
        return True

    def __hash__(self):  # bottom-up over the distinct subterms, memoized by id
        h = {}
        for t in _subterms((self,)):
            h[id(t)] = hash((h[id(t.fn)], h[id(t.arg)]) if t.__class__ is App else t)
        return h[id(self)]

    def __repr__(self):
        return term_str(self)


K = _Basic("K")
S = _Basic("S")

Term = object  # Var | _Basic | Const | App


def app(*terms):
    """Left-associated application: app(a, b, c) = (a·b)·c."""
    if not terms:
        raise ValueError("app() needs at least one term")
    return reduce(App, terms)


def _subterms(roots):
    """Each distinct subterm of ``roots`` once (keyed by id; the roots keep
    them alive), children before parents and fn before arg, on its own stack."""
    seen = set()
    stack = [(root, False) for root in reversed(roots)]
    while stack:
        term, ready = stack.pop()
        if id(term) in seen:
            continue
        if ready or not isinstance(term, App):
            seen.add(id(term))
            yield term
        else:
            stack += ((term, True), (term.arg, False), (term.fn, False))


def free_vars(term):
    return frozenset(t.name for t in _subterms((term,)) if isinstance(t, Var))


def _map_leaves(term, fn):
    """``term`` with each leaf replaced by fn(leaf), called left to right, once per leaf object."""
    out = {}
    for t in _subterms((term,)):
        out[id(t)] = App(out[id(t.fn)], out[id(t.arg)]) if isinstance(t, App) else fn(t)
    return out[id(term)]


def subst(term, name, replacement):
    """Capture-free substitution (there are no binders in the term language)."""
    return _map_leaves(term, lambda leaf: replacement
                       if isinstance(leaf, Var) and leaf.name == name else leaf)


_SKK = App(App(S, K), K)

# Most distinct subterms of a body that ``bracket`` abstracts (a kit needs < 6,000)
BRACKET_NODE_CAP = 1 << 16


def bracket(name, body):
    """Abstract ``name`` out of ``body`` with the classic algorithm.

    <x>x = S·K·K; <x>M = K·M when x is not free in M;
    <x>(M·N) = S·(<x>M)·(<x>N) otherwise.  The result contains no
    occurrence of ``name``.  One pass over the distinct subterms, children
    first, decides freeness and builds the abstraction together, so the cost
    is linear in the size of ``body`` (testing ``free_vars`` at every level
    would make it quadratic).  Past ``BRACKET_NODE_CAP`` subterms, CapExceeded.
    """
    walk = list(_subterms((body,)))
    if len(walk) > BRACKET_NODE_CAP:
        raise CapExceeded("subterms of the body to abstract", len(walk), BRACKET_NODE_CAP)
    out = {}  # id(t) -> <name>t, for the subterms t where name is free
    for t in walk:
        if isinstance(t, App):
            fn, arg = out.get(id(t.fn)), out.get(id(t.arg))
            if fn is not None or arg is not None:
                out[id(t)] = App(App(S, App(K, t.fn) if fn is None else fn),
                                 App(K, t.arg) if arg is None else arg)
        elif isinstance(t, Var) and t.name == name:
            out[id(t)] = _SKK
    return out.get(id(body), App(K, body))


def lam(names, body):
    """Multi-variable abstraction: lam("x y", M) = <x>(<y>M)."""
    split = names.split() if isinstance(names, str) else list(names)
    for name in reversed(split):
        body = bracket(name, body)
    return body


class Diverged(Value):
    """Fuel ran out before the term became head-stable."""

    _fields = ("term",)


def _spine(term):
    args = []
    while isinstance(term, App):
        args.append(term.arg)
        term = term.fn
    args.reverse()
    return term, args


def reduce_term(term, fuel):
    """Weak leftmost-outermost reduction of a closed term.

    Contracts head redexes (K·a·b -> a, S·a·b·c -> (a·c)·(b·c)) until the
    head is stable; never reduces under a partial application.  Fuel counts
    contractions; exhaustion yields ``Diverged``, not an error.
    """
    if free_vars(term):
        raise ValueError(f"reduce_term needs a closed term, got free {sorted(free_vars(term))}")
    remaining = fuel
    while True:
        head, args = _spine(term)
        if head is K and len(args) >= 2:
            contracted, rest = args[0], args[2:]
        elif head is S and len(args) >= 3:
            contracted, rest = App(App(args[0], args[2]), App(args[1], args[2])), args[3:]
        else:
            return term
        if remaining <= 0:
            return Diverged(term)
        remaining -= 1
        term = app(contracted, *rest) if rest else contracted


def eval_in_opca(term, env, opca):
    """The value of ``term`` in ``opca`` with its variables bound by ``env``;
    None means undefined.  The leaves are checked first, left to right: an
    unbound variable, an env value outside the carrier or a constant outside
    the carrier is a ValueError whatever the table.  Then each variable
    becomes a constant and the term runs as a ``Program``.
    """
    def bind(leaf):
        if isinstance(leaf, Var):
            if env is None or leaf.name not in env:
                raise ValueError(f"unbound variable {leaf.name!r}")
            if env[leaf.name] not in opca.element_set:
                raise ValueError(f"environment maps {leaf.name!r} outside the carrier")
            return Const(env[leaf.name])
        if isinstance(leaf, Const) and leaf.value not in opca.element_set:
            raise ValueError(f"constant {leaf.value!r} outside the carrier")
        return leaf
    program = compile_terms((_map_leaves(term, bind),))
    [value] = program.run(opca, dict(zip(program.slots, program.slots)))
    return value


# ---------------------------------------------------------------------------
# Closed terms compiled to straight-line programs
# ---------------------------------------------------------------------------
#
# A compiled term's Const leaves are slots, named by their values and filled
# when it runs.  Every term is evaluated this way.  A step with an undefined
# child finds no table entry (None is never a carrier element), so a root is
# undefined exactly when one of its steps is, and the value of App(M, N) is
# val(M)·val(N).  Steps are numbered children first, function before
# argument, so the first undefined step is the subterm where a walk in that
# order would stop.  Slot values are checked before any step runs.

class Program(Frozen):
    """Closed terms as one program over their distinct subterms.

    Steps 0 and 1 are K and S, then come the slots, and every later step is
    a pair (fn step, arg step) of earlier steps; no pair occurs twice.
    ``outputs[i]`` is the step of ``roots[i]``.
    """

    _fields = ("roots", "slots", "steps", "outputs")

    def values(self, opca, slots=None):
        """Every step's value in ``opca``, None where undefined.  A slot missing
        or outside the carrier is a ValueError, raised before any step runs."""
        values = [opca.k, opca.s]
        for name in self.slots:
            if slots is None or name not in slots:
                raise ValueError(f"no value for slot {name!r}")
            if slots[name] not in opca.element_set:
                raise ValueError(f"constant {slots[name]!r} outside the carrier")
            values.append(slots[name])
        table = opca.table
        for fn, arg in self.steps:
            values.append(table.get((values[fn], values[arg])))
        return values

    def run(self, opca, slots=None):
        """Each root's value, None where undefined."""
        values = self.values(opca, slots)
        return [values[step] for step in self.outputs]

    def filled(self, index, slots):
        """Root ``index`` with the slot values in, for messages."""
        return _map_leaves(self.roots[index], lambda leaf: Const(slots[leaf.value])
                           if isinstance(leaf, Const) else leaf)


def compile_terms(roots):
    """The ``Program`` of the closed terms ``roots``, visiting each term object
    once in the order of ``_subterms``, so shared subterms cost nothing.
    Slots are numbered -1, -2, ... and application steps 2, 3, ... while the
    terms are visited, then moved into place.
    """
    roots = tuple(roots)
    slots, steps, step_of_pair = {}, [], {}
    step_of_term = {id(K): 0, id(S): 1}
    for term in _subterms(roots):
        if id(term) in step_of_term:  # K or S
            continue
        if isinstance(term, Var):
            raise ValueError(f"compile_terms needs closed terms, got free {term!r}")
        if isinstance(term, Const):
            step = slots.setdefault(term.value, -1 - len(slots))
        else:
            pair = (step_of_term[id(term.fn)], step_of_term[id(term.arg)])
            step = step_of_pair.get(pair)
            if step is None:
                step = step_of_pair[pair] = len(steps) + 2
                steps.append(pair)
        step_of_term[id(term)] = step
    outputs = [step_of_term[id(term)] for term in roots]

    def placed(step):  # K and S stay, slot -i becomes step i + 1, applications follow
        return 1 - step if step < 0 else step + len(slots) if step > 1 else step

    return Program(roots, tuple(slots), tuple((placed(f), placed(a)) for f, a in steps),
                   tuple(map(placed, outputs)))


@lru_cache(maxsize=64)
def compile_closed(*sources):
    r"""The ``Program`` of terms in the surface syntax, once per process.  Every
    identifier no binder binds is a slot: ``compile_closed(r"\x. f (f x)")``
    run with {"f": a} gives the value of <x> a (a x)."""
    return compile_terms([parse_term(src) for src in sources])


# ---------------------------------------------------------------------------
# Surface syntax: K, S, identifiers, juxtaposition, parens, \x. M
# ---------------------------------------------------------------------------

def term_str(term):
    """The surface syntax of ``term``.  Each distinct subterm's text is made
    once and dropped after its last use."""
    walk = list(_subterms((term,)))
    uses = Counter(id(part) for t in walk if isinstance(t, App) for part in (t.fn, t.arg))
    text = {}
    for t in walk:
        if isinstance(t, App):
            fn, arg = text[id(t.fn)], text[id(t.arg)]
            text[id(t)] = f"{fn} ({arg})" if isinstance(t.arg, App) else f"{fn} {arg}"
            for part in (id(t.fn), id(t.arg)):
                uses[part] -= 1
                if not uses[part]:
                    del text[part]
        else:
            text[id(t)] = str(t.value) if isinstance(t, Const) else t.name
    return text[id(term)]


_TOKEN = re.compile(r"[()\\.]|[\w']+|(\S)")  # group 1: a character no token takes


def _tokenize(src):
    tokens = []
    for match in _TOKEN.finditer(src):
        if match[1]:
            raise ValueError(f"bad character {match[1]!r} in term at {match.start()}")
        tokens.append(match[0])
    return tokens


# Deepest term accepted as written, counting parentheses, binders and the
# application tree (a juxtaposition chain nests without parentheses).
_MAX_DEPTH = 100


def parse_term(src):
    """Parse the surface syntax; ``\\x y. M`` compiles via bracket abstraction.

    Identifiers bound by an enclosing ``\\`` become variables; all other
    identifiers become Const handles (resolved by the caller).  A term that
    nests deeper than ``_MAX_DEPTH`` is a StructureError.
    """
    tokens = [*_tokenize(src), None]  # None marks the end
    pos = 0

    def nested(depth):
        if depth > _MAX_DEPTH:
            raise StructureError(f"term nests deeper than {_MAX_DEPTH}")
        return depth

    def parse_expr(bound, level):  # (term, depth as written); ``level`` groups enclose it
        nonlocal pos
        nested(level)
        if tokens[pos] == "\\":
            pos += 1
            names = []
            while tokens[pos] not in (".", None):
                if tokens[pos] in ("(", ")", "\\"):
                    raise ValueError("expected variable names after \\")
                names.append(tokens[pos])
                pos += 1
            if tokens[pos] != "." or not names:
                raise ValueError("expected '.' after \\-binder names")
            pos += 1
            body, depth = parse_expr(bound | set(names), level + 1)
            depth = nested(depth + 1)  # refused before any abstraction work
            return lam(names, body), depth
        out = out_depth = None
        while tokens[pos] not in (None, ")", "."):
            tok, depth = tokens[pos], 0
            if tok == "\\":
                atom, depth = parse_expr(bound, level)
            elif tok == "(":
                pos += 1
                atom, depth = parse_expr(bound, level + 1)
                if tokens[pos] != ")":
                    raise ValueError("unbalanced parenthesis")
                pos += 1
            else:
                pos += 1
                atom = (K if tok == "K" else S if tok == "S"
                        else Var(tok) if tok in bound else Const(tok))
            if out is not None:
                atom, depth = App(out, atom), nested(max(out_depth, depth) + 1)
            out, out_depth = atom, depth
        if out is None:
            raise ValueError("empty term")
        return out, out_depth

    result, _ = parse_expr(set(), 0)
    if tokens[pos] is not None:
        raise ValueError(f"trailing tokens at {pos}: {tokens[pos:-1]}")
    return result
