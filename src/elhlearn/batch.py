"""Build a finite batch of classified examples, then learn from it offline.

The batch collects, from one complete oracle-driven run against the target:
the tree-shaped examples produced by the atomic loop, every entailed
name-to-name inclusion as a singleton example, every entailed role inclusion
likewise, and (for the instance and rooted-CQ languages) the per-iteration
reduced inclusions of the instance loop in replay order.  All example ABoxes
map homomorphically into the fixed ABox, which is why the construction
assumes the target signature occurs in it.

``learn_from_batch`` rebuilds the hypothesis from the batch alone, asking no
oracle anything.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from . import reasoner, teacher, textio
from .learn_aq import CachedOracle, LearnResult, aq_phase, bootstrap_atomic
from .learn_iq import (
    MAX_ITERATIONS,
    _atomic_equivalence,
    iq_step,
    role_classes,
)
from .syntax import (
    ABox,
    Atom,
    AtomicQuery,
    BudgetExceededError,
    CI,
    ConceptQuery,
    ConfigurationError,
    Query,
    RI,
    StructuralError,
    TBox,
    signature_of_abox,
    signature_of_tbox,
    terminology,
)
from .learn_aq import tree_concept, find_cycle


@dataclass(frozen=True)
class BatchItem:
    kind: str  # "tree" | "ci" | "ri" | "iq"
    abox: ABox
    query: Query
    label: int = 1


def _require_signature(target: TBox, a0: ABox) -> None:
    st, sa = signature_of_tbox(target), signature_of_abox(a0)
    if not (st.concept_names <= sa.concept_names and st.role_names <= sa.role_names):
        raise ConfigurationError("batch construction needs the target signature in the ABox")


def build_batch(target: TBox, a0: ABox, lang: str, seed: int = 0) -> list[BatchItem]:
    """Classified positive examples sufficient to reconstruct a hypothesis."""
    _require_signature(target, a0)
    fw = teacher.framework_for(target, a0, lang)
    session = teacher.OracleSession(target, fw, seed=seed)
    oracle = CachedOracle(session)
    items: list[BatchItem] = []

    atomic_cis, ris = bootstrap_atomic(oracle)
    for ci in sorted(atomic_cis, key=lambda c: (c.lhs.name, c.rhs.name)):
        a = ABox(frozenset({(ci.lhs.name, "p0")}), frozenset(), frozenset())
        items.append(BatchItem("ci", a, AtomicQuery(ci.rhs.name, ("p0",))))
    for ri in sorted(ris, key=lambda r: (r.lhs, r.rhs)):
        a = ABox(frozenset(), frozenset({(ri.lhs, "p0", "p1")}), frozenset())
        items.append(BatchItem("ri", a, AtomicQuery(ri.rhs, ("p0", "p1"))))

    h = terminology(atomic_cis, ris)
    result = LearnResult(h)

    def record_tree(shaped: ABox, name: str, ind: str) -> None:
        items.append(BatchItem("tree", shaped, AtomicQuery(name, (ind,))))

    h = aq_phase(oracle, h, result, use_eq=False, on_tree=record_tree)

    if lang in (reasoner.LANG_IQ, reasoner.LANG_CQR):
        classes = role_classes(frozenset(ris), fw.signature.role_names)
        equivalent_names = _atomic_equivalence(atomic_cis)
        iterations = 0
        while True:
            iterations += 1
            if iterations > MAX_ITERATIONS:
                raise BudgetExceededError("batch construction exceeded its budget")
            hit = oracle.inseparability(h)
            if hit is None:
                break
            a, q = hit
            if isinstance(q, teacher.ConjunctiveQuery):
                from .learn_cqr import cq_to_iq

                q = cq_to_iq(oracle, h, q)
            if isinstance(q, AtomicQuery) and len(q.args) == 1:
                q = ConceptQuery(Atom(q.pred), q.args[0])
            if not isinstance(q, ConceptQuery):
                raise StructuralError(f"unexpected counterexample {q!r}")
            before = h.cis
            h = iq_step(oracle, h, classes, equivalent_names, a, q.concept, q.ind)
            settled = sorted(
                (ci for ci in h.cis - before if isinstance(ci.lhs, Atom)),
                key=lambda ci: (ci.lhs.name,),
            )
            if len(settled) != 1:
                raise StructuralError("instance step must settle exactly one inclusion")
            ci = settled[0]
            single = ABox(frozenset({(ci.lhs.name, "e0")}), frozenset(), frozenset())
            items.append(BatchItem("iq", single, ConceptQuery(ci.rhs, "e0")))
    return items


def learn_from_batch(items: list[BatchItem], a0: ABox, lang: str) -> TBox:
    """Rebuild a hypothesis from a recorded batch; no oracle involved."""
    cis: set[CI] = set()
    ris: set[RI] = set()
    iq_pairs: list[tuple[str, "Concept"]] = []
    for item in items:
        if item.label != 1:
            raise StructuralError("batches carry positive examples only")
        if item.kind == "ci":
            if not isinstance(item.query, AtomicQuery) or len(item.query.args) != 1:
                raise StructuralError("bad atomic-inclusion item")
            ((name, _),) = tuple(item.abox.concept_assertions)
            cis.add(CI(Atom(name), Atom(item.query.pred)))
        elif item.kind == "ri":
            ((role, _, _),) = tuple(item.abox.role_assertions)
            ris.add(RI(role, item.query.pred))
        elif item.kind == "tree":
            if find_cycle(item.abox) is not None:
                raise StructuralError("tree example contains a cycle")
            if not isinstance(item.query, AtomicQuery) or len(item.query.args) != 1:
                raise StructuralError("bad tree item query")
            concept = tree_concept(item.abox, item.query.args[0])
            cis.add(CI(concept, Atom(item.query.pred)))
        elif item.kind == "iq":
            if not isinstance(item.query, ConceptQuery):
                raise StructuralError("bad instance item query")
            ((name, _),) = tuple(item.abox.concept_assertions)
            iq_pairs.append((name, item.query.concept))
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
