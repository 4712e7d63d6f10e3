"""
Identities, signed transactions, and a first chain
==================================================

Walk through the smallest end-to-end story: derive key material for a few
participants, sign a transaction, mine blocks at both difficulty levels, and
watch verification catch a tampered record.
"""

import dataclasses

from proxichain.consensus import DL_EASY, DL_HARD, append_block, mine, verify_chain
from proxichain.identity import Role, generate_identity, verify
from proxichain.ledger import (
    Chain,
    TxKind,
    make_transaction,
    next_block,
    tx_signing_bytes,
)

# ---------------------------------------------------------------------------
# Key material. Seeded generation keeps the demo reproducible run to run.

alice = generate_identity(Role.LIGHT, seed=1)
bob = generate_identity(Role.LIGHT, seed=2)
manager = generate_identity(Role.MANAGER, seed=3)

print("alice node id ", alice.node_id.hex()[:16], "...")
print("bob node id   ", bob.node_id.hex()[:16], "...")

# ---------------------------------------------------------------------------
# A submission transaction: alice reports the venue zone she occupies.

tx = make_transaction(alice, TxKind.ST, payload=(42).to_bytes(2, "little"), timestamp=7)
message = tx_signing_bytes(tx.kind, tx.sender, tx.payload, tx.timestamp)
print("signature verifies:", verify(alice.public_key, message, tx.signature))

# ---------------------------------------------------------------------------
# Mine the transaction into a block, then a harder one on top of it.

chain = Chain()

easy = mine(chain, next_block(chain, 0, [tx], alice.node_id, 10), DL_EASY)
append_block(chain, easy.block)
print(f"easy block mined in {easy.trials} trials -> {easy.block.block_hash.hex()[:12]}...")

hard = mine(chain, next_block(chain, 0, [], bob.node_id, 11), DL_HARD)
append_block(chain, hard.block)
print(f"hard block mined in {hard.trials} trials -> {hard.block.block_hash.hex()[:12]}...")

print("chain verifies cleanly:", verify_chain(chain) == [])

# ---------------------------------------------------------------------------
# Tamper with history. The forged timestamp breaks the stored digest.

forged = list(chain.blocks)
forged[1] = dataclasses.replace(forged[1], timestamp=999)
for violation in verify_chain(forged):
    print(f"violation at block {violation.index}: {violation.reason} ({violation.detail})")
