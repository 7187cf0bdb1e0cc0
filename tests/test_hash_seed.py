"""Seeded learner runs must not depend on the interpreter's string hash seed.

Sets and frozensets of strings iterate in an order that changes with
``PYTHONHASHSEED``.  The learners run here on random ``genkb`` knowledge
bases in two interpreters with different hash seeds; their transcripts and
hypotheses must agree byte for byte.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import elhlearn

# 80, 82 and 219 trim an oversize TBox with a tie between the largest inclusions
SEEDS = (0, 1, 2, 3, 80, 82, 219)

SCRIPT = f"""
from genkb import covering_abox, random_abox, random_terminology
from elhlearn.learn_cqr import learn_cqr
from elhlearn.learn_iq import learn_iq
from elhlearn.reasoner import LANG_CQR, LANG_IQ
from elhlearn.teacher import OracleSession, framework_for
from elhlearn.textio import serialize_tbox
from elhlearn.updates import learn_with_updates

for seed in {SEEDS!r}:
    t = random_terminology(seed)
    a0 = random_abox(seed, t)
    cover = covering_abox(seed, t)
    runs = [
        (learn_iq, framework_for(t, a0, LANG_IQ), "minimal"),
        (learn_cqr, framework_for(t, a0, LANG_CQR), "randomized"),
        (learn_with_updates,
         framework_for(t, cover, LANG_IQ, update_closure=True, closure_cap=30), "minimal"),
    ]
    for learner, fw, policy in runs:
        session = OracleSession(t, fw, policy=policy, seed=seed)
        result = learner(session)
        print(seed, learner.__name__)
        print(session.export_transcript())
        print(serialize_tbox(result.hypothesis))
"""


def run_with_hash_seed(hash_seed: str) -> str:
    src = Path(elhlearn.__file__).resolve().parent.parent
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=os.pathsep.join([str(src), str(tests)]))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_learner_transcripts_do_not_depend_on_hash_seed():
    first = run_with_hash_seed("1")
    assert first.count("\n") > 3 * len(SEEDS)
    assert run_with_hash_seed("2") == first
