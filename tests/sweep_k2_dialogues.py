"""Every small application tree over the k/s basis, checked against the
code-folding reference of ``test_k2_items.py``.

The trees are all binary application trees with at most ``MAX_LEAVES``
leaves drawn from k, s, two fixed tables and one generator expression.  Each
is built twice, once from ``k2`` and once from the reference, at fuel 0, 3
and 40, and asked at n = 0, 1 and 2.  The two sides must give the same
values, the same ``FuelExhausted`` messages and the same queries, in the
same order, to every opaque leaf.  Fuel 40 takes the named trees of
``test_k2_items.py`` across the fuel boundary, where a dialogue that skips
rounds it should have asked would read a different prefix.

It is not collected by pytest (the name does not start with ``test_``); CI
runs it as its own job, and it exits 1 on the first tree where the two
sides differ:

    PYTHONPATH=src python tests/sweep_k2_dialogues.py
"""

import pathlib
import sys
from itertools import product
from time import perf_counter

sys.path.insert(0, str(pathlib.Path(__file__).parent))

from test_k2_items import both_sides  # noqa: E402

MAX_LEAVES = 4
LEAVES = (("k",), ("s",), ("table", (1, 0)), ("table", (0, 2, 1)), ("expr", "n + 1"))
FUELS = (0, 3, 40)
NS = range(3)


def trees(leaves):
    """Every application tree with exactly ``leaves`` leaves, smaller left
    subtrees first."""
    if leaves == 1:
        yield from LEAVES
        return
    for left in range(1, leaves):
        for f, a in product(list(trees(left)), list(trees(leaves - left))):
            yield ("app", f, a)


def show(tree):
    if tree[0] == "app":
        return f"({show(tree[1])} {show(tree[2])})"
    return tree[0] if len(tree) == 1 else f"{tree[0]}{tree[1]!r}"


def main():
    start = perf_counter()
    total = 0
    for leaves in range(1, MAX_LEAVES + 1):
        count = 0
        for tree in trees(leaves):
            for fuel in FUELS:
                reference, change = both_sides(tree, fuel, NS)
                if change != reference:
                    print(f"{show(tree)} at fuel {fuel}: k2 {change}, reference {reference}")
                    return 1
            count += 1
        total += count
        print(f"{leaves} leaves: {count} trees agree at fuel {', '.join(map(str, FUELS))} "
              f"({perf_counter() - start:.1f} s)")
    print(f"{total} trees, {total * len(FUELS) * len(NS)} dialogues: no difference "
          f"in {perf_counter() - start:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
