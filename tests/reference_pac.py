"""The generic shattering check as it was before ``pac.ring_shattered``.

``shatters`` evaluates every hypothesis on every example, and
``ring_hypotheses`` builds the ``2**n`` ring TBoxes it was run on; ``elh vc
check`` read its verdict from the two.  They are kept verbatim, apart from
the imports, as the reference that ``tests/test_pac.py`` compares
``ring_shattered`` against.
"""

from __future__ import annotations

from elhlearn import reasoner
from elhlearn.pac import SHATTER_BUDGET, ring_identifying_concept
from elhlearn.syntax import (
    Atom,
    BudgetExceededError,
    CI,
    TBox,
    conj,
    normalize,
    terminology,
)


def shatters(hypotheses, examples, budget: int = SHATTER_BUDGET) -> bool:
    """Do the hypotheses realize every classification of the examples?"""
    examples = list(examples)
    behaviors: set[tuple[bool, ...]] = set()
    cache = reasoner.ModelCache()
    spent = 0
    for h in hypotheses:
        row = []
        for a, q in examples:
            spent += 1
            if spent > budget:
                raise BudgetExceededError(
                    f"shattering check stopped after {budget} evaluations; "
                    f"saw {len(behaviors)} of {2 ** len(examples)} behaviours"
                )
            row.append(reasoner.answers_query(h, a, q, cache))
        behaviors.add(tuple(row))
        if len(behaviors) == 2 ** len(examples):
            return True
    return len(behaviors) == 2 ** len(examples)


def ring_hypotheses(n: int) -> list[TBox]:
    """One hypothesis per subset of ring nodes, built to shatter them.

    The conjunction of all identifying concepts but the j-th is satisfied by
    exactly the j-th node, so a union of such inclusions marks any chosen
    subset with ``A`` (the empty subset gets the all-out conjunction).
    """
    concepts = [ring_identifying_concept(n, i) for i in range(1, n + 1)]
    exactly = [
        normalize(conj(*(c for i, c in enumerate(concepts) if i != j)))
        for j in range(n)
    ]
    out = []
    for mask in range(2 ** n):
        if mask == 0:
            cis = {CI(normalize(conj(*concepts)), Atom("A"))}
        else:
            cis = {CI(exactly[j], Atom("A")) for j in range(n) if mask & (1 << j)}
        out.append(terminology(cis))
    return out
