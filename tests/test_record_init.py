"""The shared record constructor ``Frozen.__init__``, and a check that no
record writes out a constructor that only stores its arguments."""

import ast
from pathlib import Path

import pytest

import realcheck
from realcheck.aks import BuiltAks
from realcheck.bco import ImplicativeKit, InternalMeets
from realcheck.lattices import L3
from realcheck.tripos import BooleanVerdict

from test_bco import heyting_kit

SOURCES = sorted(Path(realcheck.__file__).parent.glob("*.py"))

# Term nodes keep written-out constructors: bracket abstraction and the
# parser build them by the thousand, and the shared binder is slower.
HOT_CONSTRUCTORS = {"_Named", "Const", "App"}


def test_arguments_bind_to_fields_by_position_and_keyword():
    assert vars(BuiltAks(1, 2, 3)) == {"aks": 1, "opca": 2, "kit": 3}
    mixed = InternalMeets("t", "g", meet={}, counit_witnesses=("g1", "g2"), unit_witness="u")
    assert list(vars(mixed)) == list(InternalMeets._fields)  # stored in field order
    assert mixed._values() == ("t", "g", {}, "u", ("g1", "g2"))
    assert BooleanVerdict(True, realizer=None) == BooleanVerdict(True, None)


def test_a_field_left_out_takes_the_class_default():
    # the kit checks its infima once its fields are bound, so it needs a real host
    args = [getattr(heyting_kit(L3), f) for f in ImplicativeKit._fields[:-1]]
    kit = ImplicativeKit(*args)
    assert kit.name == "kit" and vars(kit)["name"] == "kit"
    assert ImplicativeKit(*args, name="mine").name == "mine"
    assert ImplicativeKit.name == "kit"


@pytest.mark.parametrize("call, message", [
    (lambda: BuiltAks(1, 2), "BuiltAks() missing argument 'kit'"),
    (lambda: BuiltAks(aks=1, kit=3), "BuiltAks() missing argument 'opca'"),
    (lambda: BuiltAks(1, 2, 3, kits=4), "BuiltAks() got an unexpected argument 'kits'"),
    (lambda: BuiltAks(1, 2, aks=3), "BuiltAks() got multiple values for 'aks'"),
    (lambda: BuiltAks(1, 2, 3, 4), "BuiltAks() takes 3 arguments, got 4"),
    (lambda: ImplicativeKit(*"abcdefgh", name="x"),
     "ImplicativeKit() got multiple values for 'name'"),
], ids=["missing", "missing-keyword", "unknown", "repeated", "too-many", "repeated-default"])
def test_a_bad_call_is_a_type_error_naming_the_class(call, message):
    with pytest.raises(TypeError) as exc:
        call()
    assert str(exc.value) == message


def plain_inits(source):
    """Classes in ``source`` whose ``__init__`` only stores its own parameters
    with ``set_field``, in the order of the class's literal ``_fields``."""
    found = []
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef):
            continue
        fields = None
        for node in cls.body:
            if (isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "_fields" for t in node.targets)):
                try:
                    fields = list(ast.literal_eval(node.value))
                except ValueError:  # built from another class's fields
                    pass
        for init in cls.body:
            if not (isinstance(init, ast.FunctionDef) and init.name == "__init__"):
                continue
            params = [a.arg for a in init.args.posonlyargs + init.args.args + init.args.kwonlyargs]
            body = init.body[1:] if ast.get_docstring(init) is not None else init.body
            stored = [stored_parameter(stmt) for stmt in body]
            if stored == params[1:] and (fields is None or stored == fields):
                found.append(cls.name)
    return found


def stored_parameter(stmt):
    """``x`` for the statement ``set_field(self, "x", x)``, else None."""
    if not (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call)):
        return None
    call = stmt.value
    if not (isinstance(call.func, ast.Name) and call.func.id == "set_field"
            and len(call.args) == 3 and not call.keywords):
        return None
    target, name, value = call.args
    if (isinstance(target, ast.Name) and target.id == "self" and isinstance(name, ast.Constant)
            and isinstance(value, ast.Name) and value.id == name.value):
        return name.value
    return None


def test_the_check_finds_a_constructor_that_only_stores_its_arguments():
    stores = '''
class Pair(Frozen):
    _fields = ("left", "right")

    def __init__(self, left, right):
        """Docstring."""
        set_field(self, "left", left)
        set_field(self, "right", right)
'''
    assert plain_inits(stores) == ["Pair"]
    checks = stores + '        if left is None:\n            raise ValueError("left")\n'
    assert plain_inits(checks) == []
    assert plain_inits(stores.replace('("left", "right")', '("right", "left")')) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_record_writes_out_a_constructor_the_shared_one_would_do(path):
    assert set(plain_inits(path.read_text(encoding="utf-8"))) <= HOT_CONSTRUCTORS
