"""proxichain: a credit-gated proof-of-work contact ledger with localization.

The package splits into independently usable layers: key material and the
authorized registry (:mod:`proxichain.identity`), the windowed-hash ledger
(:mod:`proxichain.ledger`), two-level mining and validation
(:mod:`proxichain.consensus`), proximity credit scoring
(:mod:`proxichain.credit`), array-signal bearing estimation
(:mod:`proxichain.aoa`), the agent world (:mod:`proxichain.simulation`) and
the experiment runners behind the CLI (:mod:`proxichain.experiments`).
"""

__version__ = "0.1.0"

from .consensus import (
    DL_EASY,
    DL_HARD,
    append_block,
    difficulty_for,
    mine,
    validate_block,
    verify_chain,
)
from .credit import CreditPolicy, proximity_credit
from .identity import Role, generate_identity, publish_registry
from .ledger import (
    Block,
    Chain,
    TxKind,
    make_transaction,
    whash_digest,
    whash_window_for,
)
from .simulation import SimConfig, build_world, run_epoch, run_outbreak

__all__ = [
    "DL_EASY",
    "DL_HARD",
    "difficulty_for",
    "mine",
    "validate_block",
    "verify_chain",
    "CreditPolicy",
    "proximity_credit",
    "Role",
    "generate_identity",
    "publish_registry",
    "Block",
    "Chain",
    "TxKind",
    "append_block",
    "make_transaction",
    "whash_digest",
    "whash_window_for",
    "SimConfig",
    "build_world",
    "run_epoch",
    "run_outbreak",
    "__version__",
]
