"""The benchmark's tracer rebinds proxichain attributes by name.

``perfbench/tracing.py`` lists the ``(module, attribute)`` pairs it wraps; a
renamed or removed attribute, or a wrapped name called from a helper thread,
would only show up in the benchmark's own slow self-test, so these check the
list against the package and the tracer's span nesting on small runs.
"""

import importlib
import importlib.util
from pathlib import Path

from proxichain import simulation
from proxichain.consensus import DL_EASY, append_block, mine, verify_chain
from proxichain.identity import Role, generate_identity
from proxichain.ledger import (
    Block,
    Chain,
    TxKind,
    make_transactions,
    whash_window_for,
)

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves_to_a_callable():
    tracing = _load_tracing()
    targets = [(module, attr) for module, attr, *_ in tracing.SPAN_TARGETS + tracing.COUNT_TARGETS]
    assert targets
    missing = [
        f"{module}.{attr}"
        for module, attr in targets
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []


def _multi_tx_chain():
    senders = [generate_identity(Role.LIGHT, seed=700 + k) for k in range(6)]
    chain = Chain()
    for i in range(4):
        txs = make_transactions([(s, TxKind.ST, bytes([i, k])) for k, s in enumerate(senders)], i)
        candidate = Block(
            index=len(chain),
            prev_hash=chain.tip.block_hash,
            whash_window=whash_window_for(len(chain) - 1, 3),
            nonce=0,
            transactions=tuple(txs),
            miner=senders[0].node_id,
            timestamp=i,
            block_hash=bytes(32),
        )
        append_block(chain, mine(chain, candidate, DL_EASY).block)
    return chain


def _traced(tracing, call):
    tracer = tracing.Tracer("contract")
    tracer.install()
    try:
        root = tracer.open("test.root")
        try:
            call()
        finally:
            tracer.close(root)
    finally:
        tracer.uninstall()
    return tracer


def test_batched_signatures_keep_the_span_stack_nested():
    """Helper threads that sign or verify must not enter a traced name: the
    tracer keeps one span stack per process, so a span opened on a helper
    would interleave with the calling thread's spans."""
    tracing = _load_tracing()
    chain = _multi_tx_chain()

    def epoch():
        config = simulation.SimConfig(n_agents=40, ticks=4, tx_per_block_mean=3, seed=2)
        simulation.run_epoch(simulation.build_world(config), Chain())

    for call in (lambda: verify_chain(chain), epoch):
        tracer = _traced(tracing, call)
        stats = tracing.span_stats(tracer)
        assert stats["trace.spans"] > 1
        assert stats["trace.self_sum_error_s"] < 1e-6
        assert tracing.installed_wrappers() == []
    # ``stats`` is the epoch's: each append validates the block once, and the
    # miner's level is worked out once by the scheduler and once on append.
    appended = stats["ledger.append_block.calls"]
    assert appended == stats["consensus.validate_block.calls"] > 0
    assert stats["credit.difficulty_for.calls"] == 2 * appended
