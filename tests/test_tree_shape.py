"""One witness, one minimization pass: tree shaping against its search-based form.

``reference_tree_shape`` keeps tree shaping as it was when every
minimization round searched its own witness and repeated its removal passes
until nothing changed.  On random ``genkb`` knowledge bases the package's
learners must learn the same hypotheses with the same equivalence questions,
ask no more membership questions and spend no more oracle input than with
the reference inside, and build the same batch files.  Each shaped tree is
also checked to be minimal: the target entails the witness on it, and on no
ABox with one individual or one role assertion less.
"""

from __future__ import annotations

import pytest

import reference_tree_shape as ref
from test_learner_loop import CLOSURE_CAP, SEEDS, _kb, _outcome
from elhlearn.batch import build_batch, dump_batch
from elhlearn.learn_aq import learn_aq
from elhlearn.learn_cqr import learn_cqr
from elhlearn.learn_iq import learn_iq
from elhlearn.reasoner import LANG_AQ, LANG_CQR, LANG_IQ, answers_query
from elhlearn.syntax import ABox, AtomicQuery
from elhlearn.teacher import (
    POLICY_ADVERSARIAL_CQ,
    POLICY_MINIMAL,
    POLICY_RANDOMIZED,
    OracleSession,
    framework_for,
)
from elhlearn.textio import serialize_tbox
from elhlearn.updates import learn_with_updates


def _run(learner, session):
    """The learned hypothesis (or error), the EQ count, the MQ count, the input."""
    learned = _outcome(lambda: serialize_tbox(learner(session).hypothesis))
    spent = session.mq_input_size_sum + session.eq_input_size_sum
    return learned, session.eq_count, session.mq_count, spent


CASES = [
    (learn_aq, LANG_AQ, POLICY_MINIMAL, False),
    (learn_iq, LANG_IQ, POLICY_MINIMAL, False),
    (learn_iq, LANG_IQ, POLICY_RANDOMIZED, False),
    (learn_cqr, LANG_CQR, POLICY_MINIMAL, False),
    (learn_cqr, LANG_CQR, POLICY_RANDOMIZED, False),
    (learn_cqr, LANG_CQR, POLICY_ADVERSARIAL_CQ, False),
    (learn_with_updates, LANG_IQ, POLICY_MINIMAL, True),
]


@pytest.mark.parametrize(
    "learner, lang, policy, updates", CASES, ids=[f"{c[0].__name__}-{c[2]}" for c in CASES]
)
def test_learner_matches_search_based_shaping(learner, lang, policy, updates):
    fw = {"update_closure": True, "closure_cap": CLOSURE_CAP} if updates else {}
    saved = 0
    for seed in SEEDS:
        t, a0, cover = _kb(seed)
        fixed = cover if updates else a0

        def session():
            return OracleSession(t, framework_for(t, fixed, lang, **fw), policy, seed)

        learned, eqs, mqs, spent = _run(learner, session())
        with ref.patched():
            ref_learned, ref_eqs, ref_mqs, ref_spent = _run(learner, session())
        where = f"{learner.__name__} ({policy}) on genkb seed {seed}"
        assert (learned, eqs) == (ref_learned, ref_eqs), where
        assert mqs <= ref_mqs and spent <= ref_spent, where
        saved += mqs < ref_mqs
    # about one seed in eight shapes a tree, and saves questions doing it
    assert saved >= len(SEEDS) // 20


@pytest.mark.parametrize("lang", [LANG_AQ, LANG_IQ, LANG_CQR])
def test_batch_matches_search_based_shaping(lang):
    for seed in SEEDS:
        t, _, cover = _kb(seed)

        def dump():
            return _outcome(lambda: dump_batch(build_batch(t, cover, lang, seed=seed)))

        got = dump()
        with ref.patched():
            assert got == dump(), f"batch ({lang}) differs on genkb seed {seed}"


def _with_witness(a: ABox, ind: str) -> ABox:
    return ABox(a.concept_assertions, a.role_assertions, a.declared | {ind})


def test_shaped_trees_are_minimal():
    trees = 0
    for seed in SEEDS:
        t, a0, _ = _kb(seed)
        shaped_trees = []
        learn_aq(
            OracleSession(t, framework_for(t, a0, LANG_AQ)),
            on_tree=lambda shaped, name, ind: shaped_trees.append((shaped, name, ind)),
        )
        for shaped, name, ind in shaped_trees:
            q = AtomicQuery(name, (ind,))
            where = f"genkb seed {seed}, witness {name}({ind})"
            assert answers_query(t, shaped, q), where
            smaller = [(b, shaped.without_individual(b)) for b in shaped.individuals() - {ind}]
            smaller += [(ra, shaped.without_role_assertion(ra)) for ra in shaped.role_assertions]
            for removed, a in smaller:
                assert not answers_query(t, _with_witness(a, ind), q), f"{where}: {removed} can go"
            trees += 1
    # about one seed in seven has an atomic counterexample to shape
    assert trees >= len(SEEDS) // 10
