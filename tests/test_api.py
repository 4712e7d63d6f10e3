"""The package's public names: every entry of ``proxichain.__all__`` resolves."""

import dataclasses

import proxichain
from proxichain import aoa, ledger, simulation


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
    # Removed when the BLE burst and the venue became module constants.
    gone += [(aoa, "BlePulseConfig"), (simulation, "Venue")]
    # Removed with its last callers, the tests, which now read the entries.
    gone.append((ledger.InfectedUsersPool, "contains"))
    for owner, name in gone:
        assert not hasattr(owner, name), name
    fields = {f.name for f in dataclasses.fields(simulation.WorldState)}
    assert fields.isdisjoint({"venue", "bounds"})
    assert isinstance(ledger.Chain(), list)
    assert ledger.Chain() == [ledger.make_genesis()]
    assert ledger.Chain([]) == []
