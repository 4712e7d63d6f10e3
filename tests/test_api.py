"""The package's public names: every entry of ``proxichain.__all__`` resolves."""

import proxichain


def test_star_import_resolves_every_public_name():
    namespace = {}
    exec("from proxichain import *", namespace)
    assert [name for name in proxichain.__all__ if name not in namespace] == []


def test_removed_names_stay_out_of_the_api():
    # Removed with the second credit record; simulation.CreditStore is the only one.
    removed = "total_credit"
    assert removed not in proxichain.__all__
    assert not hasattr(proxichain, removed)
