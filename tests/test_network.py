import functools
import hashlib
import json
import math
import operator
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gainregion.network import (
    Scenario,
    ScenarioFormatError,
    TransmitterSpec,
    direction_vector,
    generate_channels,
    ic_skeleton,
    load_scenario,
    mixed_skeleton,
    save_scenario,
    scenario_digest,
    scenario_from_dict,
    scenario_to_dict,
    snr_to_noise,
)


def test_direction_vector_three_user_ic():
    s = generate_channels(1, ic_skeleton(3, 3))
    assert list(direction_vector(s, "1")) == [1, -1, -1]
    assert list(direction_vector(s, "2")) == [-1, 1, -1]
    assert list(direction_vector(s, "3")) == [-1, -1, 1]


def test_direction_vector_mixed_example():
    s = mixed_skeleton()
    # The multicast transmitter serves receivers 2 and 3 and interferes
    # with receiver 1.
    assert list(direction_vector(s, "2")) == [-1, 1, 1]
    assert list(direction_vector(s, "11")) == [1, -1, -1]
    assert list(direction_vector(s, "12")) == [-1, 1, -1]


def test_direction_vector_single_link():
    s = ic_skeleton(1, 2)
    assert list(direction_vector(s, "1")) == [1]


def test_direction_vector_unknown_id():
    with pytest.raises(KeyError):
        direction_vector(ic_skeleton(2, 2), "nope")


def test_generate_channels_deterministic():
    a = generate_channels(42, ic_skeleton(3, 4))
    b = generate_channels(42, ic_skeleton(3, 4))
    for key in a.channels:
        assert np.array_equal(a.channels[key], b.channels[key])
    c = generate_channels(43, ic_skeleton(3, 4))
    assert not np.array_equal(a.channels[("1", 1)], c.channels[("1", 1)])


def test_generate_channels_full_rank():
    s = generate_channels(5, ic_skeleton(3, 3))
    h = np.column_stack(s.channels_for("1"))
    assert np.linalg.matrix_rank(h) == 3


def test_generate_channels_statistics():
    # Statistical oracle on the generator: ~CN(0, 1) entries.
    skeleton = ic_skeleton(10, 100)  # 10 keys x 10 receivers x 100 entries
    s = generate_channels(123, skeleton)
    entries = np.concatenate([v for v in s.channels.values()])
    assert entries.size == 10_000
    n = entries.size
    assert abs(entries.mean()) <= 5 / np.sqrt(n)
    var = np.mean(np.abs(entries) ** 2)
    assert abs(var - 1.0) <= 0.1


def test_generate_channels_streams_are_stable_under_growth():
    # Adding a receiver must not perturb the existing channels.
    small = generate_channels(9, ic_skeleton(2, 3))
    bigger = generate_channels(9, ic_skeleton(3, 3))
    for r in (1, 2):
        assert np.array_equal(small.channel("1", r), bigger.channel("1", r))
        assert np.array_equal(small.channel("2", r), bigger.channel("2", r))


def test_virtual_transmitters_share_channels():
    s = generate_channels(3, mixed_skeleton())
    for r in (1, 2, 3):
        assert np.array_equal(s.channel("11", r), s.channel("12", r))
        assert not np.array_equal(s.channel("11", r), s.channel("2", r))


@pytest.mark.parametrize(
    "snr_db,expected",
    [(0.0, 1.0), (15.0, 10 ** (-1.5)), (-10.0, 10.0)],
)
def test_snr_to_noise(snr_db, expected):
    assert snr_to_noise(snr_db) == pytest.approx(expected, rel=1e-15)


def test_save_load_round_trip(tmp_path):
    s = generate_channels(17, mixed_skeleton(3, noise_power=snr_to_noise(15.0)))
    path = tmp_path / "mixed.json"
    save_scenario(s, path)
    loaded = load_scenario(path)
    assert scenario_to_dict(loaded) == scenario_to_dict(s)
    for key in s.channels:
        assert np.array_equal(loaded.channels[key], s.channels[key])


def test_empty_intended_set_rejected():
    with pytest.raises(ScenarioFormatError, match=r"transmitters\[0\].intended"):
        Scenario(
            transmitters=(TransmitterSpec("1", 2, frozenset()),),
            n_receivers=2,
            noise_power=1.0,
            power_groups=(("1",),),
        )


def test_channel_dim_mismatch_rejected_names_pair():
    with pytest.raises(ScenarioFormatError, match=r"channels\[1/2\]"):
        Scenario(
            transmitters=(TransmitterSpec("1", 3, {1}),),
            n_receivers=2,
            noise_power=1.0,
            power_groups=(("1",),),
            channels={("1", 1): np.zeros(3), ("1", 2): np.zeros(2)},
        )


def test_power_groups_must_partition():
    with pytest.raises(ScenarioFormatError, match="power_groups"):
        Scenario(
            transmitters=(
                TransmitterSpec("1", 2, {1}),
                TransmitterSpec("2", 2, {2}),
            ),
            n_receivers=2,
            noise_power=1.0,
            power_groups=(("1",),),
        )


@pytest.mark.parametrize("tid", ["a,b", "c\nd", "\x00", "tab\t"])
def test_an_id_that_would_break_a_csv_line_is_refused(tid):
    # Ids name the CSV columns (lam_<id>_<r>) and the meta line of sweep-gain.
    with pytest.raises(ScenarioFormatError, match=r"^transmitters\[0\]\.id: must hold no comma"):
        Scenario((TransmitterSpec(tid, 2, {1}),), 1, 1.0, ((tid,),))


def test_an_empty_power_group_is_refused():
    with pytest.raises(ScenarioFormatError, match=r"^power_groups\[1\]: must not be empty"):
        Scenario((TransmitterSpec("1", 2, {1}),), 1, 1.0, (("1",), ()))


def test_load_rejects_bad_schema(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format": "miso-gain-region/1", "receivers": 2}')
    with pytest.raises(ScenarioFormatError, match="noise_power: missing"):
        load_scenario(path)


def test_load_rejects_wrong_format(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format": "other/9"}')
    with pytest.raises(ScenarioFormatError, match="format"):
        load_scenario(path)


@pytest.mark.parametrize("receiver", ["01", " 1", "+1", "1 ", "\u0661", "-1", "", "x"])
def test_channel_key_receiver_must_be_plain_decimal(receiver):
    # int() reads "01", " 1", "+1" and the Arabic-Indic "\u0661" as 1, so
    # such a key used to replace receiver 1's channel without a word.
    doc = scenario_to_dict(generate_channels(84, ic_skeleton(3, 2)))
    doc["channels"][f"1/{receiver}"] = doc["channels"]["2/1"]
    with pytest.raises(ScenarioFormatError, match=rf"^channels\[1/{re.escape(receiver)}\]: key"):
        scenario_from_dict(doc)
    assert "1/1" in doc["channels"]
    del doc["channels"][f"1/{receiver}"]
    scenario_from_dict(doc)


def test_channel_key_without_a_receiver_is_refused():
    doc = scenario_to_dict(generate_channels(84, ic_skeleton(3, 2)))
    doc["channels"]["1"] = doc["channels"].pop("1/1")
    with pytest.raises(ScenarioFormatError, match=r"^channels\[1\]: key"):
        scenario_from_dict(doc)


_IC = scenario_to_dict(generate_channels(84, ic_skeleton(3, 2)))
_MISSING = object()


@pytest.mark.parametrize(
    "keys, value, message",
    [
        (("receivers",), 0, "receivers: must be >= 1"),
        (("noise_power",), 0.0, "noise_power: must be positive"),
        (("transmitters",), [], "transmitters: must not be empty"),
        (("transmitters", 1, "id"), "1", "transmitters[1].id: duplicate id"),
        (("transmitters", 0, "antennas"), 0, "transmitters[0].antennas: must be >= 1"),
        (("transmitters", 0, "intended"), [4], "transmitters[0].intended: receiver indices"),
        (("transmitters", 1), {"id": "2", "antennas": 3, "intended": [2], "channel_key": "1"},
         "transmitters[1].antennas: channel key '1'"),
        (("channels", "9/1"), _IC["channels"]["1/1"], "channels[9/1]: unknown channel key"),
        (("channels", "1/4"), _IC["channels"]["1/1"], "channels[1/4]: receiver outside"),
        (("channels", "1/1", 0, 0), math.inf, "channels[1/1]: non-finite"),
        (("transmitters", 0, "antennas"), _MISSING, "transmitters[0].antennas: missing"),
        (("transmitters", 1, "id"), "a,b", "transmitters[1].id: must hold no comma"),
        (("transmitters", 2, "id"), "c\nd", "transmitters[2].id: must hold no comma"),
        (("power_groups",), [["1"], ["2"], ["3"], []], "power_groups[3]: must not be empty"),
        (None, None, "document: invalid JSON"),
    ],
    ids=["receivers-0", "noise-0", "no-transmitters", "duplicate-id", "antennas-0",
         "intended-range", "shared-key-antennas", "unknown-key", "receiver-range",
         "non-finite", "missing-field", "id-comma", "id-newline", "empty-group",
         "invalid-json"],
)
def test_a_document_out_of_range_or_unreadable_is_refused_by_path(tmp_path, keys, value, message):
    doc = json.loads(json.dumps(_IC))
    if keys is None:
        text = json.dumps(doc)[:-1]  # no closing brace
    else:
        parent = functools.reduce(operator.getitem, keys[:-1], doc)
        if value is _MISSING:
            del parent[keys[-1]]
        else:
            parent[keys[-1]] = value
        text = json.dumps(doc)
    (tmp_path / "bad.json").write_text(text)
    with pytest.raises(ScenarioFormatError, match=f"^{re.escape(message)}"):
        load_scenario(tmp_path / "bad.json")


def test_mixed_skeleton_receiver_sets():
    s = mixed_skeleton()
    t11, t12, t2 = s.transmitters
    assert (t11.intended, t12.intended, t2.intended) == ({1}, {2}, {2, 3})
    assert s.power_groups == (("11", "12"), ("2",))
    assert t11.channel_key == t12.channel_key == "1"


# A value of each JSON type, as json.load returns them.
_JSON_VALUES = {
    "null": st.none(),
    "boolean": st.booleans(),
    "number": st.one_of(st.integers(), st.floats(), st.just(10**400)),
    "string": st.text(max_size=4),
    "array": st.lists(st.integers(0, 3), max_size=3),
    "object": st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
}


def _json_type(value) -> str:
    for name, kind in (("null", type(None)), ("boolean", bool), ("number", (int, float)),
                       ("string", str), ("array", list), ("object", dict)):
        if isinstance(value, kind):
            return name
    raise TypeError(value)


def _field_keys(value, keys=()):
    """Access path of every value below the document root."""
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value)
    else:
        return []
    out = []
    for k, child in children:
        out += [keys + (k,)] + _field_keys(child, keys + (k,))
    return out


def _field_path(keys) -> str:
    """The path a ScenarioFormatError names: transmitters[0].intended[1],
    channels[1/2][0][1], power_groups[0][0]."""
    path = keys[0]
    for k in keys[1:]:
        bracketed = isinstance(k, int) or (keys[0] == "channels" and path == "channels")
        path += f"[{k}]" if bracketed else f".{k}"
    return path


_SMALL = generate_channels(4, mixed_skeleton(antennas=2))


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_a_field_of_another_json_type_loads_the_same_or_is_refused_by_path(data):
    # One field of a valid document swapped for a value of another JSON type
    # loads to the same scenario or is refused by a ScenarioFormatError that
    # names that field; never cast, never another exception.
    doc = scenario_to_dict(_SMALL)
    keys = data.draw(st.sampled_from(_field_keys(doc)))
    parent = functools.reduce(operator.getitem, keys[:-1], doc)
    kind = _json_type(parent[keys[-1]])
    parent[keys[-1]] = data.draw(st.one_of(*[v for k, v in _JSON_VALUES.items() if k != kind]))
    try:
        loaded = scenario_from_dict(doc)
    except ScenarioFormatError as exc:
        assert str(exc).startswith(_field_path(keys) + ":"), (keys, str(exc))
    else:
        assert scenario_to_dict(loaded) == scenario_to_dict(_SMALL)


@pytest.mark.parametrize(
    "skeleton, seed, digest",
    [(ic_skeleton(3, 2), 21, "3e11b1e377fed330"), (mixed_skeleton(3), 84, "c7c2cff67873c478")],
)
def test_scenario_digest_is_the_sha256_of_the_sorted_json(skeleton, seed, digest):
    s = generate_channels(seed, skeleton)
    blob = json.dumps(scenario_to_dict(s), sort_keys=True).encode()
    assert scenario_digest(s) == hashlib.sha256(blob).hexdigest()[:16] == digest


def test_channel_streams_are_pinned():
    # blake2b of "seed|key|receiver" keys each channel's Philox stream.
    ic = generate_channels(21, ic_skeleton(3, 2))
    assert ic.channels[("1", 1)][0] == complex(0.2514809698970639, 0.664405474870081)
    mixed = generate_channels(84, mixed_skeleton(3))
    assert mixed.channels[("2", 3)][2] == complex(0.2025479306077642, 0.3023623794930107)
