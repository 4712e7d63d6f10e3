"""The package's public names: every entry of ``proxichain.__all__`` resolves."""

import proxichain
from proxichain import aoa, ledger


def test_star_import_resolves_every_public_name():
    namespace = {}
    exec("from proxichain import *", namespace)
    assert [name for name in proxichain.__all__ if name not in namespace] == []


def test_removed_names_stay_out_of_the_api():
    # Removed with the second credit record; simulation.CreditStore is the only one.
    removed = "total_credit"
    assert removed not in proxichain.__all__
    assert not hasattr(proxichain, removed)

    # Removed when aoa.SPACING_OVER_LAMBDA became the only element spacing and
    # ledger.encode_block_header the only header slice.
    gone = [(aoa, "ArraySnapshot"), (aoa, "SPEED_OF_LIGHT"), (ledger, "_header_view")]
    # Removed with its last callers, the tests' own round trips.
    gone.append((ledger, "decode_contact_pairs"))
    # Removed when Chain became a list: the list itself replaces its blocks
    # field, and chain[-1] its tip property.
    gone += [(ledger.Chain, "blocks"), (ledger.Chain, "tip")]
    for owner, name in gone:
        assert not hasattr(owner, name), name
    assert isinstance(ledger.Chain(), list)
    assert ledger.Chain() == [ledger.make_genesis()]
    assert ledger.Chain([]) == []
