import os
import pathlib

import pytest

import realcheck
from realcheck.lattices import DIAMOND, L2, L3, M3, N5, VEE
from realcheck.terms import App, Const, app, reduce_term

FIXTURES = pathlib.Path(__file__).parent.parent / "fixtures"

# the environment of a child Python that imports this copy of realcheck
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    [str(pathlib.Path(realcheck.__file__).parent.parent), os.environ.get("PYTHONPATH", "")])}

STANDARD_OPCAS = (L2, L3, VEE, DIAMOND, M3, N5)

FUEL = 10 ** 5

F_MARK = Const("@step")
V_MARK = Const("@base")


def read_numeral(term, limit=30):
    """Observe a numeral-valued term by case analysis under weak reduction."""
    count = 0
    while count <= limit:
        r = reduce_term(app(term, F_MARK, V_MARK), FUEL)
        if r == V_MARK:
            return count
        assert isinstance(r, App) and r.fn == F_MARK, f"not a numeral: {r!r}"
        term = r.arg
        count += 1
    raise AssertionError("numeral out of range")


@pytest.fixture
def fixtures_dir():
    return FIXTURES
