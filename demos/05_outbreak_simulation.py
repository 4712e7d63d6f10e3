"""
A full traced epoch at desk scale
=================================

Agents walk a 10 x 10 m venue while two coupled infection processes (2 m and
5 m exposure radius) advance on shared random draws. Newly diagnosed agents
publish their retained immediate contacts, the manager alarms those peers,
and everything lands in mined blocks. The run ends with chain verification
and a look at who earned or lost credit.
"""

from proxichain.consensus import verify_chain
from proxichain.credit import CreditPolicy
from proxichain.ledger import Chain
from proxichain.simulation import (
    SimConfig,
    build_world,
    interaction_stats,
    run_epoch,
)

config = SimConfig(
    n_agents=80,
    ticks=120,
    p_inf=0.05,
    seed=2,
    tx_per_block_mean=40,
    n_blocks=12,
    attacker_id=9,
    attack_tick=60,
    policy=CreditPolicy(omega_na=1_000_000.0),
)
world = build_world(config)
world, chain, metrics = run_epoch(world, Chain())

print("tick  2m-infected  5m-infected  tx  blocks")
for row in metrics.rows[::20] + [metrics.rows[-1]]:
    print(
        f"{row['tick']:>4}  {row['infected_count_2m']:>11}  {row['infected_count_5m']:>11}"
        f"  {row['tx_count']:>2}  {row['blocks_mined']:>6}"
    )

# ---------------------------------------------------------------------------
# Ledger contents and integrity.

kinds = {}
for block in chain:
    for tx in block.transactions:
        kinds[tx.kind.value] = kinds.get(tx.kind.value, 0) + 1
print(f"\n{len(chain) - 1} blocks mined, transactions by kind: {kinds}")
print("chain verifies cleanly:", verify_chain(chain) == [])
print("diagnosed agents in the pool:", len({n for n, _ in world.iup.entries}))

# ---------------------------------------------------------------------------
# Credit outcomes: averages, plus the scripted attacker's collapse. The
# attacker behaves normally until tick 60, so its balance tracks everyone
# else's; the penalty then swamps it within a single tick.

stats = interaction_stats(metrics)
print(
    f"\nper-agent averages: {stats['avg_interactions']:.0f} interactions, "
    f"{stats['avg_gained_credit']:+.1f} proximity credit"
)

attacker = world.identities[config.attacker_id].node_id
trace = {t: tot for t, node, _, _, tot in metrics.credit_rows if node == attacker.hex()}
print(f"\nattacker {config.attacker_id} total credit around the attack tick:")
for t in (58, 59, 60, 61):
    print(f"  tick {t}: {trace[t]:+14.1f}")

prox, neg, total = world.credit.breakdown(attacker, now=config.ticks)
print(
    f"attacker at the end: proximity {prox:+.1f}, penalties {neg:+.1f}, total {total:+.1f}"
)

honest = world.identities[0].node_id
prox, neg, total = world.credit.breakdown(honest, now=config.ticks)
print(f"agent 0 (honest):   proximity {prox:+.1f}, penalties {neg:+.1f}, total {total:+.1f}")
