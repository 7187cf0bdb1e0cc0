"""Learning ELH ontologies that answer queries like a hidden target.

The package splits into syntax (concepts, TBoxes, ABoxes, queries), a
reasoner over finite presentations of least models, simulated oracles, the
three exact learners (atomic, instance and rooted conjunctive queries),
update robustness, batch reconstruction, and a PAC layer.
"""

from .syntax import (
    ABox,
    And,
    Atom,
    AtomicQuery,
    CI,
    Concept,
    ConceptQuery,
    ConjunctiveQuery,
    Exists,
    RI,
    RoleQuery,
    Signature,
    TBox,
    TOP,
    Tree,
    Var,
    abox,
    canonical,
    conj,
    normalize,
    size_of,
    terminology,
)
from .reasoner import (
    LANG_AQ,
    LANG_CQR,
    LANG_IQ,
    answers_query,
    bisimilar,
    build_model,
    entails_ci,
    entails_ri,
    inseparable,
    simulation,
)
from .teacher import Framework, OracleSession, framework_for
from .learn_aq import learn_aq
from .learn_iq import learn_iq
from .learn_cqr import learn_cqr
from .updates import check_bisim_preservation, generalise, learn_with_updates
from .batch import build_batch, learn_from_batch
from .pac import Distribution, pac_from_exact, true_error

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
