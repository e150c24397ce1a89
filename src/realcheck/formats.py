"""Structure files: JSON with the field layout fixed per structure kind.

Opca files carry elements, leq pairs (closed reflexively and transitively
on load), an application triple list, designated k and s, and optional
filter / U / sup fields.  BCO files carry named function graphs; aks files
carry the full tables.  Loading checks JSON shape only (names are JSON
strings; a table key, a sup row element, or an entry of leq, filter, U, QP
or pole given twice is an error); carrier membership is checked by the
structure constructors, and the sup table, which no constructor sees, by
``bco.check_sup_table``.  Errors name the file, and the line or the field.
"""

from __future__ import annotations

import json

from . import aks as aksmod, bco as bcomod, opca as opcamod
from .errors import StructureError

__all__ = [
    "load_opca", "load_bco", "load_aks", "load_map",
    "aks_to_dict", "save_aks", "load_json",
]

# A shape is str (a name: a JSON string), [shape] (a list), a tuple of
# shapes (one row) or {str: shape} (an object whose values have the shape).
NAMES = [str]
PAIRS = [(str, str)]
TRIPLES = [(str, str, str)]


def load_json(path):
    """The JSON object in ``path``, with no key given twice."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh, object_pairs_hook=lambda pairs: _table(pairs, path, None))
    except json.JSONDecodeError as e:
        raise StructureError(f"line {e.lineno}: {e.msg}", source=str(path))
    except (OSError, UnicodeError, RecursionError) as e:
        raise StructureError(f"cannot read the file ({type(e).__name__})", source=str(path))
    if not isinstance(data, dict):
        raise StructureError("expected a JSON object", source=str(path))
    return data


def _fits(value, shape):
    if shape is str:
        return isinstance(value, str)
    if isinstance(shape, list):
        return isinstance(value, list) and all(_fits(v, shape[0]) for v in value)
    if isinstance(shape, dict):
        return isinstance(value, dict) and all(_fits(v, shape[str]) for v in value.values())
    return (isinstance(value, list) and len(value) == len(shape)
            and all(_fits(v, s) for v, s in zip(value, shape)))


def _describe(shape):
    if isinstance(shape, list):
        return f"[{_describe(shape[0])}, ...]"
    if isinstance(shape, tuple):
        return "[" + ", ".join(map(_describe, shape)) + "]"
    return "name" if shape is str else f"{{name: {_describe(shape[str])}, ...}}"


def _reader(data, path):
    """``read(name, shape)``: the field, checked against ``shape``.  An
    optional field that is absent or null reads as None."""

    def read(name, shape, required=True):
        if not required and data.get(name) is None:
            return None
        if name not in data:
            raise StructureError("missing field", source=str(path), field=name)
        if not _fits(data[name], shape):
            raise StructureError(f"expected {_describe(shape)}, a name being a JSON string",
                                 source=str(path), field=name)
        return data[name]

    return read


def _table(rows, path, field):
    """{key: value} from rows (*key, value); a key given twice is an error."""
    table = {}
    for *key, value in rows:
        key = key[0] if len(key) == 1 else tuple(key)
        if key in table:
            raise StructureError(f"key {key!r} given twice", source=str(path), field=field)
        table[key] = value
    return table


def _set(entries, path, field):
    """The frozenset of ``entries`` (names, or pairs as tuples), None for
    None; an entry given twice is an error."""
    if entries is None:
        return None
    out = frozenset(entries)
    if len(out) < len(entries):
        seen = set()
        for x in entries:
            if x in seen:
                raise StructureError(f"entry {x!r} given twice", source=str(path), field=field)
            seen.add(x)
    return out


def _poset_fields(read, path):
    return {"elements": tuple(read("elements", NAMES)),
            "leq_pairs": _set([tuple(p) for p in read("leq", PAIRS, required=False) or ()],
                              path, "leq")}


def load_opca(path):
    read = _reader(load_json(path), path)
    opca = opcamod.FiniteOpca(
        **_poset_fields(read, path), table=_table(read("app", TRIPLES), path, "app"),
        k=read("k", str), s=read("s", str),
        filter=_set(read("filter", NAMES, required=False), path, "filter"),
        U=_set(read("U", NAMES, required=False), path, "U"), name=str(path))
    rows = read("sup", [(NAMES, str)], required=False)
    if rows is None:
        return opca, None
    for d, _ in rows:
        if len(set(d)) < len(d):
            raise StructureError(f"row {d!r} names an element twice",
                                 source=str(path), field="sup")
    sup = _table([(tuple(sorted(d)), v) for d, v in rows], path, "sup")
    sup = {frozenset(d): v for d, v in sup.items()}
    bcomod.check_sup_table(opca, sup, str(path))
    return opca, sup


def load_bco(path):
    read = _reader(load_json(path), path)
    functions = {fname: _table(graph, path, f"functions.{fname}")
                 for fname, graph in read("functions", {str: PAIRS}).items()}
    return bcomod.FiniteBco(**_poset_fields(read, path), functions=functions, name=str(path))


def load_aks(path):
    read = _reader(load_json(path), path)
    return aksmod.Aks(terms=tuple(read("terms", NAMES)), stacks=tuple(read("stacks", NAMES)),
                      dot=_table(read("dot", TRIPLES), path, "dot"),
                      push=_table(read("push", TRIPLES), path, "push"),
                      kof=_table(read("kOf", PAIRS), path, "kOf"),
                      K=read("K", str), S=read("S", str), cc=read("cc", str),
                      qp=_set(read("QP", NAMES), path, "QP"),
                      pole=_set([tuple(p) for p in read("pole", PAIRS)], path, "pole"),
                      name=str(path))


def load_map(path):
    data = load_json(path)
    read = _reader(data, path)
    if isinstance(data.get("map"), dict):
        return dict(read("map", {str: str}))
    return _table(read("map", PAIRS), path, "map")


def aks_to_dict(aks):
    return {
        "terms": list(aks.terms),
        "stacks": list(aks.stacks),
        "dot": sorted([t, s, r] for (t, s), r in aks.dot.items()),
        "push": sorted([t, pi, rho] for (t, pi), rho in aks.push.items()),
        "kOf": sorted([pi, t] for pi, t in aks.kof.items()),
        "K": aks.K, "S": aks.S, "cc": aks.cc,
        "QP": sorted(aks.qp),
        "pole": sorted([t, pi] for (t, pi) in aks.pole),
    }


def save_aks(path, aks):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(aks_to_dict(aks), fh, indent=1, sort_keys=True)
            fh.write("\n")
    except OSError as e:
        raise StructureError(f"cannot write the file ({type(e).__name__})", source=str(path))
