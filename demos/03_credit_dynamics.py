"""
Proximity credit and difficulty gating
======================================

Credit rewards keeping distance and punishes crowding or misbehavior, and
the mining difficulty a node faces follows from its balance. The script
scores two walking styles, records a penalty, and shows the penalty decaying
while the mining entitlement flips back.
"""

import numpy as np

from proxichain.consensus import difficulty_for
from proxichain.credit import (
    MIN_SEPARATION_M,
    CreditPolicy,
    EventKind,
    contact_scores,
    proximity_credit,
)
from proxichain.simulation import CreditStore

policy = CreditPolicy()
rng = np.random.default_rng(6)

print("score by distance:")
for d in (0.5, 1.0, 1.9, 2.0, 4.0, 8.0):
    print(f"  {d:4.1f} m -> {proximity_credit(d):+8.2f}")

# ---------------------------------------------------------------------------
# A cautious agent keeps everyone beyond 2 m; a careless one does not. Each
# tick both meet three peers, and the clamped scores go into the same credit
# store a simulation run writes.

cautious = b"cautious".ljust(32, b"\x00")
careless = b"careless".ljust(32, b"\x00")
store = CreditStore(policy, [cautious, careless])

for _ in range(20):
    distances = np.stack([rng.uniform(2.5, 9.0, size=3), rng.uniform(0.3, 4.0, size=3)])
    store.prox += contact_scores(np.maximum(distances, MIN_SEPARATION_M)).sum(axis=1)


def entitlement(credit):
    return difficulty_for(credit, is_authorized=False).name


for name, node in (("cautious", cautious), ("careless", careless)):
    credit = store.total(node, now=20)
    print(
        f"\n{name} agent after 20 ticks: credit {credit:+8.1f}"
        f" -> mines at {entitlement(credit)}"
    )

# ---------------------------------------------------------------------------
# A network attack at tick 20 dents the cautious agent's balance below the
# threshold, but the penalty weight decays with age, so entitlement returns.

store.punish(cautious, EventKind.NETWORK_ATTACK, tick=20)
omega = policy.omega(EventKind.NETWORK_ATTACK)
print(f"\nnetwork-attack penalty recorded (weight {omega:.0f}), decay over time:")

for now in (21, 22, 23, 25, 30, 60):
    total = store.total(cautious, now)
    age = now - 20
    print(f"  tick {now:>2} (age {age:>2}): total {total:+8.1f} -> mines at {entitlement(total)}")

print("\nauthorized nodes bypass the gate regardless of balance:")
print("  credit -1e6 ->", difficulty_for(-1e6, is_authorized=True).name)
