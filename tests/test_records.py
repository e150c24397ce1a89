"""The record classes: immutability, value equality, pinned reprs, and what
``import realcheck.cli`` loads."""

import json
import pickle
import subprocess
import sys

import pytest

from realcheck.aks import Aks, OrderCa, build_aks, order_ca
from realcheck.bco import (BcoMorphism, DensityWitnesses, FiniteBco, PseudoDAlgebra,
                           check_density, downset_monad, internal_meets, join_sup,
                           opca_to_bco, sup_from_implication)
from realcheck.k2 import DiscreteReport
from realcheck.lattices import L2
from realcheck.opca import FiniteOpca
from realcheck.poset import Poset
from realcheck.report import CheckRecord, Report
from realcheck.terms import App, Const, Diverged, K, S, Var, _Basic, compile_terms
from realcheck.tripos import BooleanVerdict, Predicate

from conftest import CHILD_ENV
from test_bco import implication_of
from test_golden import PERFBENCH

L2U = L2.replace(U=frozenset({"0"}))
ONE = FiniteOpca(elements=(0,), leq_pairs=frozenset(), table={(0, 0): 0}, k=0, s=0)
TINY_AKS = Aks(terms=(0,), stacks=(1,), dot={(0, 0): 0}, push={(0, 1): 1}, kof={1: 0},
               K=0, S=0, cc=0, qp=frozenset({0}), pole=frozenset({(0, 1)}))
TINY_BCO = FiniteBco(elements=(0,), leq_pairs=frozenset(), functions={"f": {0: 0}})


def frozen_records():
    """One instance of every frozen record class, with one of its fields."""
    built = build_aks(L2U, max_len=1)
    bco = opca_to_bco(L2)
    kit = implication_of(PseudoDAlgebra(L2, join_sup(L2)))
    identity = {a: a for a in L2.elements}
    return [
        (Var("x"), "name"), (K, "name"), (Const(0), "value"), (App(K, S), "fn"),
        (Diverged(K), "term"), (compile_terms((K,)), "steps"),
        (Poset((0, 1), frozenset()), "elements"), (L2, "table"),
        (built.kit, "stack_codes"), (bco, "functions"),
        (BcoMorphism(bco, bco, {a: a for a in bco.elements}), "mapping"),
        (downset_monad(bco), "unit"), (internal_meets(bco), "meet"),
        (PseudoDAlgebra(L2, join_sup(L2)), "sup"),
        (check_density(identity, L2, L2), "cd"), (kit, "imp"),
        (sup_from_implication(kit), "star"), (built.aks, "pole"), (built, "aks"),
        (order_ca(built.aks), "opca"), (Predicate((0,), {0: "1"}), "assign"),
        (BooleanVerdict(True, None, True), "holds"), (DiscreteReport(True, {}, None), "witness"),
    ]


def test_every_frozen_record_refuses_assignment_and_deletion():
    records = frozen_records()
    assert len({type(record) for record, _ in records}) == 23
    for record, field in records:
        before = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
        with pytest.raises(AttributeError):
            record.extra = 1
        assert getattr(record, field) is before


def test_terms_with_equal_fields_are_equal_and_hash_equal():
    pairs = [(Var("x"), Var("x")), (_Basic("K"), K), (Const(("a", 1)), Const(("a", 1))),
             (App(App(S, K), Var("y")), App(App(S, K), Var("y")))]
    for left, right in pairs:
        assert left is not right
        assert left == right and hash(left) == hash(right)
        assert pickle.loads(pickle.dumps(left)) == right
    # equality needs the same class and the same fields
    assert Var("K") != K and Var("x") != Var("y") and Const("x") != Var("x")
    assert App(K, S) != App(S, K)
    assert len({App(K, Var("x")), App(K, Var("x")), App(K, Var("z"))}) == 2


def test_value_records_compare_field_by_field():
    pairs = [
        (CheckRecord("s", "c", "fail", {"w": 1}, (0,), "d"),
         CheckRecord("s", "c", "fail", {"w": 1}, (0,), "d"),
         CheckRecord("s", "c", "fail", {"w": 2}, (0,), "d")),
        (DensityWitnesses((0, {1: 2}), None), DensityWitnesses((0, {1: 2}), None),
         DensityWitnesses(None, (0, {1: 2}))),
        (DiscreteReport(False, None, (0, 1)), DiscreteReport(False, None, (0, 1)),
         DiscreteReport(False, None, (0, 2))),
        (BooleanVerdict(True, "r", True), BooleanVerdict(True, "r", True),
         BooleanVerdict(False, "r", True)),
    ]
    for left, same, other in pairs:
        assert left is not same and left == same and left != other
    assert hash(BooleanVerdict(True, "r", True)) == hash(BooleanVerdict(True, "r", True))
    with pytest.raises(TypeError):  # mutable, so unhashable
        hash(CheckRecord("s", "c", "pass"))
    # structures compare by identity
    assert L2.replace() != L2.replace()


# reprs of the classes as generated from their field lists
PINNED_REPRS = [
    (Diverged(App(K, Var("x"))), "Diverged(term=K x)"),
    (compile_terms((App(K, Const(0)),)),
     "Program(roots=(K 0,), slots=(0,), steps=((0, 2),), outputs=(3,))"),
    (Poset((0, 1), frozenset({(0, 1)})),
     "Poset(elements=(0, 1), leq_pairs=frozenset({(0, 1), (1, 1), (0, 0)}), "
     "element_set=frozenset({0, 1}), _index={0: 0, 1: 1})"),
    (ONE,
     "FiniteOpca(elements=(0,), leq_pairs=frozenset({(0, 0)}), element_set=frozenset({0}), "
     "_index={0: 0}, table={(0, 0): 0}, k=0, s=0, filter=None, U=None, name='opca')"),
    (Report("s", [CheckRecord("s", "c", "fail", {"w": 1}, (0,), "d")]),
     "Report(subject='s', records=[CheckRecord(subject='s', check='c', verdict='fail', "
     "witnesses={'w': 1}, counterexample=(0,), detail='d')], elapsed_ms=0.0)"),
    (DensityWitnesses(cd=None, simple=(0, {1: 2})),
     "DensityWitnesses(cd=None, simple=(0, {1: 2}))"),
    (TINY_BCO,
     "FiniteBco(elements=(0,), leq_pairs=frozenset({(0, 0)}), element_set=frozenset({0}), "
     "_index={0: 0}, functions={'f': {0: 0}}, name='bco', origin_opca=None)"),
    (OrderCa(TINY_AKS, ONE),
     "OrderCa(aks=Aks(terms=(0,), stacks=(1,), dot={(0, 0): 0}, push={(0, 1): 1}, kof={1: 0}, "
     "K=0, S=0, cc=0, qp=frozenset({0}), pole=frozenset({(0, 1)}), name='aks'), "
     "opca=FiniteOpca(elements=(0,), "
     "leq_pairs=frozenset({(0, 0)}), element_set=frozenset({0}), _index={0: 0}, "
     "table={(0, 0): 0}, k=0, s=0, filter=None, U=None, name='opca'))"),
    (BooleanVerdict(True, None, True),
     "BooleanVerdict(holds=True, realizer=None, via_double_negation=True)"),
    (Predicate((0,), {0: 1}), "Predicate(index=(0,), assign={0: 1})"),
    (DiscreteReport(False, None, (0, 1)),
     "DiscreteReport(discrete=False, prefixes=None, witness=(0, 1))"),
]


@pytest.mark.parametrize("record, text", PINNED_REPRS,
                         ids=[type(record).__name__ for record, _ in PINNED_REPRS])
def test_repr_keeps_the_field_list_format(record, text):
    assert repr(record) == text


IMPORT_SHAPE = """
import json, sys
import realcheck.cli
after_cli = sorted(sys.modules)
sys.path.insert(0, sys.argv[1])
from tracer import LAYERS, Tracer
tracer = Tracer("import-shape")
tracer.install()  # binds every layer's entry points; KeyError for a layer not loaded
tracer.uninstall()
print(json.dumps([after_cli, LAYERS, sorted(sys.modules)]))
"""


def test_importing_the_cli_loads_every_layer_and_no_code_generation():
    out = subprocess.run([sys.executable, "-c", IMPORT_SHAPE, str(PERFBENCH)], env=CHILD_ENV,
                         capture_output=True, text=True, check=True).stdout
    after_cli, layers, after_install = json.loads(out)
    # dataclasses would exec-compile methods and pull in inspect at every start
    assert not {"dataclasses", "inspect"} & set(after_cli)
    # the benchmark's tracer installs right after this import (it imports
    # realcheck.lattices itself) and finds all ten layers
    assert len(layers) == 10
    assert {f"realcheck.{layer}" for layer in layers} <= set(after_install)
    assert {f"realcheck.{layer}" for layer in layers} - set(after_cli) <= {"realcheck.lattices"}


TRACER_WRAPPERS = """
import json, sys
import realcheck.cli
sys.path.insert(0, sys.argv[1])
from tracer import Tracer

def wrappers():
    found = []
    for name, module in sorted(sys.modules.items()):
        if name == "realcheck" or name.startswith("realcheck."):
            owners = {"": module, **{f"{k}.": v for k, v in vars(module).items()
                                     if isinstance(v, type)}}
            found += [f"{name}:{prefix}{key}" for prefix, owner in owners.items()
                      for key, value in vars(owner).items()
                      if "Tracer._wrapper" in getattr(getattr(value, "__code__", None),
                                                      "co_qualname", "")]
    return found

tracer = Tracer("wrappers")
tracer.install()  # loads the lazy modules while it binds
during = wrappers()
tracer.uninstall()
print(json.dumps([during, wrappers()]))
"""


def test_no_tracer_wrapper_survives_uninstall():
    # a module loaded during install that imported an already-rebound entry
    # point by name would keep the wrapper, which uninstall never saw
    out = subprocess.run([sys.executable, "-c", TRACER_WRAPPERS, str(PERFBENCH)], env=CHILD_ENV,
                         capture_output=True, text=True, check=True).stdout
    during, after = json.loads(out)
    assert "realcheck.opca:SequenceKit.seq_value" in during
    assert "realcheck.aks:check_aks" in during
    assert after == []
