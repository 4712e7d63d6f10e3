"""The package's public names: every entry of ``proxichain.__all__`` resolves."""

import dataclasses
import inspect
import io
import re
from pathlib import Path

import proxichain
from proxichain import _fork, aoa, consensus, credit, experiments, ledger, simulation


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
    # Removed when the receiver array's shape became aoa constants.
    gone += [(experiments, "_LOC_ELEMENTS"), (experiments, "_LOC_SAMPLES")]
    assert not hasattr(ledger.ChainTail(io.StringIO()), "write")
    for owner, name in gone:
        assert not hasattr(owner, name), name
    fields = {f.name for f in dataclasses.fields(simulation.WorldState)}
    assert fields.isdisjoint({"venue", "bounds"})
    assert isinstance(ledger.Chain(), list)
    assert ledger.Chain() == [ledger.make_genesis()]
    assert ledger.Chain([]) == []


def test_no_aoa_call_takes_the_array_shape():
    """The array's shape is ``aoa.ARRAY_ELEMENTS`` by ``aoa.SNAPSHOT_SAMPLES``
    and a burst has one source: no public call takes either."""
    calls = [
        aoa.synthesize_snapshots,
        aoa.synthesize_snapshot,
        aoa.steering_vector,
        aoa.music_spectra,
        aoa.music_spectrum,
    ]
    for call in calls:
        params = inspect.signature(call).parameters
        assert params.keys().isdisjoint({"n_elements", "n_samples", "n_sources"}), call


def test_fixed_coefficients_are_constants_not_config():
    """No caller varies the world's fixed parameters, the scoring rule's
    coefficients or the difficulty threshold, so they are module constants
    (``simulation.STEP_STD``, ``credit.LAMBDA_MINUS``, ``consensus.ALPHA_D``
    and the like): no config field holds them and no call takes them."""
    sim_fields = {f.name for f in dataclasses.fields(simulation.SimConfig)}
    removed = {
        "step_std", "observe_radius", "retention_ticks", "n_authorized",
        "initial_infected", "track_agents", "distance_noise_std", "violator_id",
    }
    assert sim_fields.isdisjoint(removed)
    assert len(sim_fields) == 12
    assert not hasattr(simulation.WorldState, "_violator_target")
    assert tuple(f.name for f in dataclasses.fields(credit.CreditPolicy)) == ("omega_na",)
    calls = [
        consensus.difficulty_for,
        consensus.append_block,
        credit.proximity_credit,
        credit.contact_scores,
    ]
    for call in calls:
        params = inspect.signature(call).parameters
        assert params.keys().isdisjoint({"alpha_d", "policy"}), call


def test_only_fork_reads_and_writes_pipes():
    """Every helper pipe carries ``_fork.send``'s records, read back by
    ``_fork.records``: no other module calls ``os.read`` or ``os.write``,
    so the wire format lives in ``_fork`` alone."""
    package = Path(proxichain.__file__).parent
    raw = re.compile(r"\bos\.(read|write)\(")
    found = [path.name for path in sorted(package.glob("*.py")) if raw.search(path.read_text())]
    assert found == ["_fork.py"]
