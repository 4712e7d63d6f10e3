"""
Randomized hash windows and the cost of rewriting history
=========================================================

Each block's digest covers a randomly sized window of predecessor blocks.
This script builds a short chain, mines a tip whose window reaches 15 blocks
back, and shows that editing a covered block invalidates the tip while an
edit outside the window does not. It closes with the analytic cost model and
a small brute-force measurement against it.
"""

import dataclasses

import numpy as np

from proxichain.consensus import DL_EASY, append_block, attack_cost_model, mine, verify_chain
from proxichain.experiments import attack_window_experiment
from proxichain.identity import Role, generate_identity
from proxichain.ledger import Chain, next_block, whash_window_for

miner = generate_identity(Role.LIGHT, seed=4)
rng = np.random.default_rng(0)

chain = Chain()
for i in range(30):
    window = whash_window_for(len(chain) - 1, int(rng.integers(0, 101)))
    block = mine(chain, next_block(chain, window, (), miner.node_id, i), DL_EASY).block
    append_block(chain, block)

windows = [b.whash_window for b in chain]
print("window sizes along the chain:", windows)

# ---------------------------------------------------------------------------
# Mine a tip that definitely covers the last 14 predecessors.

tip = mine(chain, next_block(chain, 15, (), miner.node_id, 100), DL_EASY).block
blocks = chain + [tip]
tip_index = tip.index
print(f"tip at index {tip_index} hashes predecessors {tip_index - 14}..{tip_index - 1}")

for label, edit_index in (("inside the window", tip_index - 5), ("outside it", 3)):
    mutated = list(blocks)
    mutated[edit_index] = dataclasses.replace(mutated[edit_index], timestamp=12345)
    flagged = {v.index for v in verify_chain(mutated)}
    verdict = "tip invalidated" if tip_index in flagged else "tip digest still valid"
    print(f"edit block {edit_index} ({label}): violations at {sorted(flagged)} -> {verdict}")

# ---------------------------------------------------------------------------
# Why that matters: an attacker who cannot observe the window draw has to
# re-mine a candidate for every possible window size.

print()
print("n_wh  honest hashes  attacker hashes  ratio")
for n_wh in (1, 14, 100):
    honest, attacker = attack_cost_model(n_wh, bits_b=16)
    print(f"{n_wh:>4}  {honest:>13.0f}  {attacker:>15.0f}  {attacker / honest:>5.0f}")

measured = attack_window_experiment(chain_length=20, reps=20, seed=1)
print(
    f"\nbrute-force re-mining on a 20-block chain: measured ratio "
    f"{measured['measured_ratio']:.1f} (model predicts 20)"
)
