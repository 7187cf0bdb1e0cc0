"""Build a finite batch of classified examples, then learn from it offline.

The batch collects, from one complete oracle-driven run against the target:
every entailed name-to-name inclusion as a singleton example, every entailed
role inclusion likewise, the tree-shaped examples of the atomic phase, and
(for the instance and rooted-CQ languages) the reduced inclusion each
iteration settles, in replay order.  The run is the one counterexample loop
of ``learn_iq``; its step is the rooted-CQ step of ``learn_cqr`` wrapped to
record that inclusion.  All example ABoxes map homomorphically into the
fixed ABox, which is why the construction assumes the target signature
occurs in it.

``learn_from_batch`` rebuilds the hypothesis from the batch alone, asking no
oracle anything.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from . import reasoner, teacher, textio
from .learn_cqr import cq_step
from .learn_iq import counterexample_loop, start
from .syntax import (
    ABox,
    Atom,
    AtomicQuery,
    CI,
    ConceptQuery,
    ConfigurationError,
    Query,
    RI,
    StructuralError,
    TBox,
    Tree,
    signature_of_abox,
    signature_of_tbox,
    terminology,
)


@dataclass(frozen=True)
class BatchItem:
    kind: str  # "tree" | "ci" | "ri" | "iq"
    abox: ABox
    query: Query
    label: int = 1


def _require_signature(target: TBox, a0: ABox) -> None:
    if not signature_of_abox(a0).covers(signature_of_tbox(target)):
        raise ConfigurationError("batch construction needs the target signature in the ABox")


def build_batch(target: TBox, a0: ABox, lang: str, seed: int = 0) -> list[BatchItem]:
    """Classified positive examples sufficient to reconstruct a hypothesis."""
    _require_signature(target, a0)
    session = teacher.OracleSession(target, teacher.framework_for(target, a0, lang), seed=seed)
    trees: list[BatchItem] = []

    def record_tree(shaped: ABox, name: str, ind: str) -> None:
        trees.append(BatchItem("tree", shaped, AtomicQuery(name, (ind,))))

    run, h = start(session, on_tree=record_tree)
    items: list[BatchItem] = []
    for ci in sorted(run.atomic_cis, key=lambda c: (c.lhs.name, c.rhs.name)):
        a = ABox(frozenset({(ci.lhs.name, "p0")}), frozenset(), frozenset())
        items.append(BatchItem("ci", a, AtomicQuery(ci.rhs.name, ("p0",))))
    for ri in sorted(run.classes.ris, key=lambda r: (r.lhs, r.rhs)):
        a = ABox(frozenset(), frozenset({(ri.lhs, "p0", "p1")}), frozenset())
        items.append(BatchItem("ri", a, AtomicQuery(ri.rhs, ("p0", "p1"))))
    items += trees

    def record_step(run, h: TBox, a: ABox, q: Query) -> TBox:
        after = cq_step(run, h, a, q)
        settled = [ci for ci in after.cis - h.cis if isinstance(ci.lhs, Atom)]
        if len(settled) != 1:
            raise StructuralError("instance step must settle exactly one inclusion")
        (ci,) = settled
        single = ABox(frozenset({(ci.lhs.name, "e0")}), frozenset(), frozenset())
        items.append(BatchItem("iq", single, ConceptQuery(ci.rhs, "e0")))
        return after

    if lang in (reasoner.LANG_IQ, reasoner.LANG_CQR):
        counterexample_loop(run, h, record_step)
    return items


def _fact(item: BatchItem) -> tuple[str, ...]:
    """The one assertion of a ``ci``, ``ri`` or ``iq`` item, checked against its query.

    A ``ci`` or ``iq`` item asserts one concept name, an ``ri`` item one
    role; its query is an atomic query of the same arity (a concept query
    for ``iq``) on the asserted individuals.
    """
    facts = [*item.abox.concept_assertions, *item.abox.role_assertions]
    arity = 2 if item.kind == "ri" else 1
    if len(facts) != 1 or len(facts[0]) != arity + 1:
        kind = "role" if arity == 2 else "concept"
        raise StructuralError(f"{item.kind!r} item needs exactly one {kind} assertion")
    (fact,) = facts
    q = item.query
    if item.kind == "iq":
        fits = isinstance(q, ConceptQuery) and q.ind == fact[1]
    else:
        fits = isinstance(q, AtomicQuery) and q.args == fact[1:]
    if not fits:
        raise StructuralError(f"{item.kind!r} item needs a query on {', '.join(fact[1:])}")
    return fact


def learn_from_batch(items: list[BatchItem], a0: ABox, lang: str) -> TBox:
    """Rebuild a hypothesis from a recorded batch; no oracle involved."""
    cis: set[CI] = set()
    ris: set[RI] = set()
    iq_pairs: list[tuple[str, "Concept"]] = []
    for item in items:
        if item.label != 1:
            raise StructuralError("batches carry positive examples only")
        if item.kind == "ci":
            cis.add(CI(Atom(_fact(item)[0]), Atom(item.query.pred)))
        elif item.kind == "ri":
            ris.add(RI(_fact(item)[0], item.query.pred))
        elif item.kind == "tree":
            # ``Tree.of_abox`` rejects every ABox that is not a tree below the root
            q = item.query
            root = q.args[0] if isinstance(q, AtomicQuery) and len(q.args) == 1 else None
            if root not in item.abox.individuals():
                raise StructuralError("'tree' item needs a unary query on an individual of its ABox")
            cis.add(CI(Tree.of_abox(item.abox, root).concept(), Atom(q.pred)))
        elif item.kind == "iq":
            iq_pairs.append((_fact(item)[0], item.query.concept))
        else:
            raise StructuralError(f"unknown batch item kind {item.kind!r}")
    h = terminology(cis, ris)
    for name, rhs in iq_pairs:  # replay order: later items replace earlier ones
        kept = {
            ci
            for ci in h.cis
            if not (isinstance(ci.lhs, Atom) and ci.lhs.name == name and not isinstance(ci.rhs, Atom))
        }
        kept.add(CI(Atom(name), rhs))
        h = terminology(kept, h.ris)
    return h


# ---------------------------------------------------------------------------
# File format: JSON lines of {"abox": ..., "query": ..., "label": 1}
# ---------------------------------------------------------------------------


def dump_batch(items: list[BatchItem]) -> str:
    lines = []
    for item in items:
        lines.append(
            json.dumps(
                {
                    "kind": item.kind,
                    "abox": textio.serialize_abox(item.abox),
                    "query": textio.serialize_query(item.query),
                    "label": item.label,
                },
                sort_keys=True,
            )
        )
    return "\n".join(lines) + ("\n" if lines else "")


def load_batch(text: str) -> list[BatchItem]:
    items = []
    for line, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
            continue
        obj = textio.parse_json(raw, line)
        items.append(
            BatchItem(
                textio.json_field(obj, "kind", str, line),
                textio.parse_abox(textio.json_field(obj, "abox", str, line)),
                textio.parse_query(textio.json_field(obj, "query", str, line)),
                textio.json_field(obj, "label", int, line),
            )
        )
    return items
