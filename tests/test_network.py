import numpy as np
import pytest

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


def test_mixed_skeleton_receiver_sets():
    s = mixed_skeleton()
    t11, t12, t2 = s.transmitters
    assert (t11.intended, t12.intended, t2.intended) == ({1}, {2}, {2, 3})
    assert s.power_groups == (("11", "12"), ("2",))
    assert t11.channel_key == t12.channel_key == "1"
