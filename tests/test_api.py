"""The package's public names: every entry of ``proxichain.__all__`` resolves."""

import dataclasses
import io
import re
from pathlib import Path

import proxichain
from proxichain import _fork, aoa, ledger, simulation


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
    # Removed when the block process began writing its own chain.jsonl
    # lines, so no line comes back over a pipe.
    gone += [(simulation, "_LINE"), (simulation, "_PIPE_BYTES")]
    # Removed when synthesis took the SNRs alone: every burst took the one
    # line-of-sight path, and only the tests built a multipath channel.
    gone += [(aoa, "ChannelRealization"), (aoa, "CARRIER_HZ"), (aoa, "awgn_channel")]
    # Removed when every helper pipe began carrying _fork.send's records.
    gone += [(_fork, "write_all"), (simulation, "_FRAME")]
    assert not hasattr(ledger.ChainTail(io.StringIO()), "write")
    for owner, name in gone:
        assert not hasattr(owner, name), name
    fields = {f.name for f in dataclasses.fields(simulation.WorldState)}
    assert fields.isdisjoint({"venue", "bounds"})
    assert isinstance(ledger.Chain(), list)
    assert ledger.Chain() == [ledger.make_genesis()]
    assert ledger.Chain([]) == []


def test_only_fork_reads_and_writes_pipes():
    """Every helper pipe carries ``_fork.send``'s records, read back by
    ``_fork.records``: no other module calls ``os.read`` or ``os.write``,
    so the wire format lives in ``_fork`` alone."""
    package = Path(proxichain.__file__).parent
    raw = re.compile(r"\bos\.(read|write)\(")
    found = [path.name for path in sorted(package.glob("*.py")) if raw.search(path.read_text())]
    assert found == ["_fork.py"]
