"""Differential tests of the compiled saturation against the old rescan.

``reference_saturation.build_model`` is the saturation as it was before the
compiled rule index: it rescans all elements after every change.  The fast
``build_model`` must fire the same rules in the same order, so both give
equal ``labels`` and ``edges``, with the same key order and the same order
of each element's edges.

The fixed cases run the TBox of the benchmark's ``elh reason`` stream on
chains and branching trees of 400 individuals, some pairs carrying several
role assertions.  Their saturations run under a deadline, so that one which
never ends fails.  So do the seeding cases: sparse chains of 400
individuals under a depth-2 left side, where saturation starts from the
labelled elements and those a few edges before them, and under rules that
need no label nearby, where it starts from every element.
"""

from __future__ import annotations

import contextlib
import random
import signal
import time

import pytest
from hypothesis import given, settings, strategies as st

from elhlearn.reasoner import ModelCache, _compile, _eval_concept, answers_query, build_model
from elhlearn.syntax import (
    ABox,
    Atom,
    CI,
    ConceptQuery,
    Exists,
    RI,
    TOP,
    conj,
    normalize,
    terminology,
)
from elhlearn.textio import parse_tbox
from reference_saturation import build_model as reference_build_model

CONCEPTS = ["A1", "A2", "A3", "A4"]
ROLES = ["r1", "r2", "r3"]
INDS = [f"i{k}" for k in range(8)]

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)


@st.composite
def concepts(draw, depth: int):
    if depth <= 0 or draw(st.integers(0, 99)) < 35:
        return TOP if draw(st.integers(0, 99)) < 6 else Atom(draw(st.sampled_from(CONCEPTS)))
    if draw(st.booleans()):
        return Exists(draw(st.sampled_from(ROLES)), draw(concepts(depth - 1)))
    parts = draw(st.lists(concepts(depth - 1), min_size=2, max_size=3))
    return normalize(conj(*parts))


@st.composite
def deep_lhs(draw):
    """A complex left side of existential depth 2 or 3."""
    inner = Exists(draw(st.sampled_from(ROLES)), draw(concepts(1)))
    lhs = Exists(draw(st.sampled_from(ROLES)), inner)
    if draw(st.booleans()):
        lhs = normalize(conj(lhs, draw(concepts(2))))
    return lhs


@st.composite
def terminologies(draw):
    cis = []
    for _ in range(draw(st.integers(1, 7))):
        kind = draw(st.integers(0, 4))
        if kind == 0:
            cis.append(CI(Exists(draw(st.sampled_from(ROLES)), draw(concepts(2))),
                          Atom(draw(st.sampled_from(CONCEPTS)))))
        elif kind == 1:
            cis.append(CI(draw(deep_lhs()), Atom(draw(st.sampled_from(CONCEPTS)))))
        elif kind == 2:
            cis.append(CI(Atom(draw(st.sampled_from(CONCEPTS))), draw(concepts(3))))
        elif kind == 3:
            cis.append(CI(Atom(draw(st.sampled_from(CONCEPTS))),
                          Atom(draw(st.sampled_from(CONCEPTS)))))
        else:
            cis.append(CI(TOP, draw(concepts(2))))
    if draw(st.booleans()):
        # a label that travels backwards along a role chain
        role, name = draw(st.sampled_from(ROLES)), draw(st.sampled_from(CONCEPTS))
        cis.append(CI(Exists(role, Atom(name)), Atom(name)))
    pairs = st.tuples(st.sampled_from(ROLES), st.sampled_from(ROLES))
    ris = [RI(x, y) for x, y in draw(st.lists(pairs, max_size=3)) if x != y]
    return terminology(cis, ris)


@st.composite
def aboxes(draw):
    inds = st.sampled_from(INDS)
    cas = set(draw(st.lists(st.tuples(st.sampled_from(CONCEPTS), inds), max_size=8)))
    ras = set(draw(st.lists(st.tuples(st.sampled_from(ROLES), inds, inds), max_size=10)))
    chain = draw(st.integers(0, 12))
    if chain:
        role = draw(st.sampled_from(ROLES))
        names = [f"c{k}" for k in range(chain + 1)]
        ras.update((role, x, y) for x, y in zip(names, names[1:]))
        cas.add((draw(st.sampled_from(CONCEPTS)), names[-1]))
    declared = frozenset(draw(st.lists(inds, max_size=2)))
    return ABox(frozenset(cas), frozenset(ras), declared)


def assert_same_model(t, a):
    # The key order of the anonymous elements follows the iteration order of
    # ``t.cis``, which two equal frozensets need not share; compile afresh so
    # that it follows this very TBox, as the reference does.
    _compile.cache_clear()
    fast = build_model(t, a)
    slow = reference_build_model(t, a)
    assert list(fast.labels.items()) == list(slow.labels.items())
    assert list(fast.edges.items()) == list(slow.edges.items())


@contextlib.contextmanager
def deadline(seconds: float):
    """Raise ``TimeoutError`` in the block once ``seconds`` have passed.

    The timer it displaces, such as the per-test limit of ``conftest.py``,
    runs on afterwards with the time it had left, less the block's.
    """

    expired = TimeoutError(f"saturation still running after {seconds} s")

    def expire(signum, frame):
        raise expired

    previous = signal.signal(signal.SIGALRM, expire)
    outer, _ = signal.setitimer(signal.ITIMER_REAL, seconds)
    start = time.monotonic()
    try:
        yield
    except TimeoutError as exc:
        if exc is not expired:
            raise
        # raised afresh here: the frame the signal interrupted may have no
        # line number, and pytest fails on such a traceback
        raise TimeoutError(str(exc)) from None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        if outer:
            # an outer limit already past fires at once
            left = outer - (time.monotonic() - start)
            signal.setitimer(signal.ITIMER_REAL, max(left, 1e-6))


def test_deadline_restores_the_timer_it_displaces():
    with deadline(60):  # the outer timer, as the per-test limit would be
        before, _ = signal.getitimer(signal.ITIMER_REAL)
        with deadline(5):
            assert 0 < signal.getitimer(signal.ITIMER_REAL)[0] <= 5
        after, _ = signal.getitimer(signal.ITIMER_REAL)
        assert 5 < after <= before


@SETTINGS
@given(terminologies(), aboxes())
def test_saturation_matches_reference(t, a):
    assert_same_model(t, a)


@SETTINGS
@given(terminologies(), aboxes(), concepts(3))
def test_unmentioned_individual_matches_declaring_it(t, a, c):
    ind = "ghost"
    with_ind = ABox(a.concept_assertions, a.role_assertions, a.declared | {ind})
    old = reference_build_model(t, with_ind)
    expected = _eval_concept(old.labels, old.edges, ("n", ind), c)
    q = ConceptQuery(c, ind)
    assert answers_query(t, a, q) == expected
    assert answers_query(t, a, q, ModelCache()) == expected


def test_long_backward_chain_matches_reference():
    t = terminology([CI(Exists("r", Atom("A")), Atom("A")), CI(Atom("A"), Exists("s", Atom("B"))),
                     CI(Exists("r", Exists("s", Atom("B"))), Atom("C"))])
    chain = [f"v{k}" for k in range(120)]
    a = ABox(frozenset({("A", chain[-1])}),
             frozenset(("r", x, y) for x, y in zip(chain, chain[1:])))
    assert_same_model(t, a)
    assert all("A" in build_model(t, a).labels[("n", v)] for v in chain)


STREAM_TBOX = parse_tbox("""\
CI: some r. A [= A
CI: B [= some s. (C and some s. D)
CI: some s. D [= H
CI: some t. B [= K
RI: r [= t
""")


def stream_abox(seed: int, chain_bias: float, extra_roles: bool) -> ABox:
    """400 individuals, individual i under i-1 with probability ``chain_bias``, else anywhere.

    With ``extra_roles`` a third of the ``r`` pairs also carry ``s`` or
    ``t``, or both, so that their role sets are unions.
    """
    rng = random.Random(seed)
    cas, ras = set(), set()
    for i in range(400):
        for name, share in (("A", 0.02), ("B", 0.12), ("D", 0.03)):
            if rng.random() < share:
                cas.add((name, f"v{i}"))
        if i:
            pair = (f"v{i - 1 if rng.random() < chain_bias else rng.randrange(i)}", f"v{i}")
            ras.add(("r", *pair))
            if extra_roles and rng.random() < 1 / 3:
                for role in rng.choice([["s"], ["t"], ["s", "t"]]):
                    ras.add((role, *pair))
    return ABox(frozenset(cas), frozenset(ras))


@pytest.mark.parametrize("extra_roles", [False, True])
@pytest.mark.parametrize("chain_bias", [1.0, 0.8, 0.0])
@pytest.mark.parametrize("seed", [0, 1])
def test_stream_tbox_on_chains_and_trees_matches_reference(seed, chain_bias, extra_roles):
    a = stream_abox(seed, chain_bias, extra_roles)
    assert len(a.individuals()) == 400
    _compile.cache_clear()
    with deadline(10):
        fast = build_model(STREAM_TBOX, a)
    slow = reference_build_model(STREAM_TBOX, a)
    assert list(fast.labels) == list(slow.labels)
    assert list(fast.edges) == list(slow.edges)
    for el, label in slow.labels.items():
        assert fast.labels[el] == label, el
        assert fast.edges[el] == slow.edges[el], el
    # ``some r. A`` and ``some t. B`` fire on the named part, ``some s. D``
    # only through an asserted ``s``
    named = [label for (kind, _), label in fast.labels.items() if kind == "n"]
    assert all(any(name in label for label in named) for name in "AK")
    assert any("H" in label for label in named) == extra_roles
    if extra_roles:
        assert any(len(roles) > 2 for edges in fast.edges.values() for roles, _ in edges)


# Saturation starts from the elements a rule can change: the labelled ones
# and those at most ``depth`` edges before one, or every element when a rule
# needs no label nearby.  Each TBox below takes one of the two branches.
SEEDING_TBOXES = {
    "depth-2 left side": (parse_tbox("""\
CI: some r. some r. A [= B
CI: B [= some s. C
CI: some s. C [= H
"""), False),
    "left side without names": (parse_tbox("""\
CI: some r. top [= E
CI: E [= some s. C
"""), True),
    "top on the left": (parse_tbox("""\
CI: top [= some s. C
CI: some s. C [= E
CI: some r. E [= K
"""), True),
}


def sparse_chain(seed: int) -> ABox:
    """400 individuals on an ``r``-chain, about one in thirty labelled ``A``."""
    rng = random.Random(seed)
    names = [f"v{i}" for i in range(400)]
    cas = {("A", x) for x in names if rng.random() < 1 / 30}
    return ABox(frozenset(cas), frozenset(("r", x, y) for x, y in zip(names, names[1:])))


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", sorted(SEEDING_TBOXES))
def test_seeded_saturation_matches_reference(name, seed):
    t, everywhere = SEEDING_TBOXES[name]
    a = sparse_chain(seed)
    _compile.cache_clear()
    assert _compile(t).fire_everywhere == everywhere
    with deadline(10):
        fast = build_model(t, a)
    slow = reference_build_model(t, a)
    assert list(fast.labels.items()) == list(slow.labels.items())
    assert list(fast.edges.items()) == list(slow.edges.items())
    if everywhere:  # ``E`` also far from any label
        assert sum("E" in fast.labels[("n", x)] for x in a.individuals()) >= 399
    else:  # ``B`` only two edges before an ``A``
        assert 0 < sum("B" in fast.labels[("n", x)] for x in a.individuals()) < 40


def broom(seed: int) -> ABox:
    """400 individuals: ``v0`` has the 40 children ``v1`` to ``v40``, and the
    rest hang anywhere below.  Names sort differently as text and as numbers
    (``v10`` before ``v2``), and half the pairs carry several roles."""
    rng = random.Random(seed)
    cas, ras = set(), set()
    for i in range(1, 400):
        pair = (f"v{0 if i <= 40 else rng.randrange(i)}", f"v{i}")
        for role in ["r"] + rng.choice([[], ["s"], ["t"], ["s", "t"]]):
            ras.add((role, *pair))
        for name, share in (("A", 0.05), ("B", 0.15), ("D", 0.05)):
            if rng.random() < share:
                cas.add((name, f"v{i}"))
    return ABox(frozenset(cas), frozenset(ras))


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("depth", [1, 2])
def test_many_children_and_several_roles_per_pair_match_reference(depth, seed):
    """Each element's asserted edges come in the name order of their targets."""
    t = STREAM_TBOX if depth == 1 else SEEDING_TBOXES["depth-2 left side"][0]
    a = broom(seed)
    _compile.cache_clear()
    assert _compile(t).depth == depth
    with deadline(10):
        fast = build_model(t, a)
    slow = reference_build_model(t, a)
    assert list(fast.labels.items()) == list(slow.labels.items())
    assert list(fast.edges.items()) == list(slow.edges.items())
    targets = [name for _, (kind, name) in fast.edges[("n", "v0")] if kind == "n"]
    assert len(targets) >= 40 and targets == sorted(targets) and targets[:2] == ["v1", "v10"]
    assert any(len(roles) > 2 for roles, _ in fast.edges[("n", "v0")])
