"""Scenario data model: transmitters, receivers, channels and file I/O.

A Scenario is immutable after construction and safe for shared concurrent
reads.  Receivers are numbered 1..K, matching the on-disk format and the
CLI; the math modules take a transmitter's channels as one (K, N) matrix
(``Scenario.channels_for``) whose rows are indexed 0-based.

Virtual transmitters (one physical transmitter split per intended
receiver, coupled by a shared power budget) are modeled by giving several
TransmitterSpec entries the same ``channel_key``: they then share channel
vectors and are listed together in one power group.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

# hashlib is heavy to load: it maps OpenSSL's libcrypto, about 3.5 MiB of a
# sweep's peak memory, for one digest per run.  Try CPython's own lean
# module first; some distribution builds ship without it.
try:
    from _sha2 import sha256  # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256


__all__ = [
    "SCENARIO_FORMAT",
    "ScenarioFormatError",
    "TransmitterSpec",
    "Scenario",
    "direction_vector",
    "generate_channels",
    "snr_to_noise",
    "scenario_to_dict",
    "scenario_from_dict",
    "save_scenario",
    "load_scenario",
    "scenario_digest",
    "ic_skeleton",
    "mixed_skeleton",
]

SCENARIO_FORMAT = "miso-gain-region/1"


class ScenarioFormatError(ValueError):
    """A scenario document violates the schema; messages carry field paths."""


@dataclass(frozen=True)
class TransmitterSpec:
    """One (possibly virtual) transmitter: antennas and receiver sets."""

    tid: str
    n_antennas: int
    intended: frozenset[int]
    channel_key: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "intended", frozenset(self.intended))
        if self.channel_key is None:
            object.__setattr__(self, "channel_key", self.tid)


@dataclass(frozen=True)
class Scenario:
    """A full network: transmitters, receivers, channels and noise level.

    ``channels`` maps ``(channel_key, receiver)`` to a complex channel
    vector of the owning transmitter's antenna dimension; it may be empty
    for a skeleton awaiting generate_channels().  Every power group shares
    one unit transmit power budget.
    """

    transmitters: tuple[TransmitterSpec, ...]
    n_receivers: int
    noise_power: float
    power_groups: tuple[tuple[str, ...], ...]
    channels: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "transmitters", tuple(self.transmitters))
        groups = tuple(tuple(g) for g in self.power_groups)
        object.__setattr__(self, "power_groups", groups)
        frozen = {}
        for key, vec in self.channels.items():
            arr = np.array(vec, dtype=np.complex128)
            arr.flags.writeable = False
            frozen[key] = arr
        object.__setattr__(self, "channels", frozen)
        _check_structure(self)

    @property
    def receivers(self) -> range:
        return range(1, self.n_receivers + 1)

    @property
    def tids(self) -> tuple[str, ...]:
        return tuple(t.tid for t in self.transmitters)

    def transmitter(self, tid: str) -> TransmitterSpec:
        for t in self.transmitters:
            if t.tid == tid:
                return t
        raise KeyError(f"unknown transmitter id {tid!r}")

    def group_of(self, tid: str) -> tuple[str, ...]:
        for g in self.power_groups:
            if tid in g:
                return g
        raise KeyError(f"transmitter {tid!r} is in no power group")

    def channel(self, tid: str, receiver: int) -> np.ndarray:
        t = self.transmitter(tid)
        try:
            return self.channels[(t.channel_key, int(receiver))]
        except KeyError:
            raise KeyError(
                f"no channel for transmitter {tid!r} (key {t.channel_key!r}) "
                f"to receiver {receiver}"
            ) from None

    def channels_for(self, tid: str) -> np.ndarray:
        """Read-only (K, N) channel matrix of one transmitter, row r - 1 to receiver r."""
        h = np.stack([self.channel(tid, r) for r in self.receivers])
        h.flags.writeable = False
        return h


def _check_structure(s: Scenario) -> None:
    """Check ranges and cross-references; scenario_from_dict checks types."""
    if s.n_receivers < 1:
        raise ScenarioFormatError("receivers: must be >= 1")
    if not math.isfinite(s.noise_power) or s.noise_power <= 0:
        raise ScenarioFormatError(f"noise_power: must be positive, got {s.noise_power}")
    if not s.transmitters:
        raise ScenarioFormatError("transmitters: must not be empty")
    seen = set()
    key_dims = {}
    for i, t in enumerate(s.transmitters):
        path = f"transmitters[{i}]"
        if t.tid in seen:
            raise ScenarioFormatError(f"{path}.id: duplicate id {t.tid!r}")
        if any(c == "," or c < " " for c in t.tid):
            # The id names CSV columns and meta lines.
            raise ScenarioFormatError(f"{path}.id: must hold no comma or control character, "
                                      f"got {t.tid!r}")
        seen.add(t.tid)
        if t.n_antennas < 1:
            raise ScenarioFormatError(f"{path}.antennas: must be >= 1")
        if not t.intended:
            raise ScenarioFormatError(
                f"{path}.intended: must contain at least one receiver "
                "(the direction vector would be all -1)"
            )
        bad = [r for r in t.intended if not 1 <= r <= s.n_receivers]
        if bad:
            raise ScenarioFormatError(
                f"{path}.intended: receiver indices {sorted(bad)} outside 1..{s.n_receivers}"
            )
        if t.channel_key in key_dims and key_dims[t.channel_key] != t.n_antennas:
            raise ScenarioFormatError(
                f"{path}.antennas: channel key {t.channel_key!r} already declared "
                f"with {key_dims[t.channel_key]} antennas"
            )
        key_dims[t.channel_key] = t.n_antennas
    for i, g in enumerate(s.power_groups):
        if not g:
            raise ScenarioFormatError(f"power_groups[{i}]: must not be empty")
    grouped = [tid for g in s.power_groups for tid in g]
    if sorted(grouped) != sorted(seen):
        raise ScenarioFormatError(
            "power_groups: must partition the transmitter ids exactly once each; "
            f"got {s.power_groups!r} for ids {sorted(seen)}"
        )
    for (key, r), vec in s.channels.items():
        if key not in key_dims:
            raise ScenarioFormatError(f"channels[{key}/{r}]: unknown channel key {key!r}")
        if not 1 <= r <= s.n_receivers:
            raise ScenarioFormatError(f"channels[{key}/{r}]: receiver outside 1..{s.n_receivers}")
        if vec.ndim != 1 or vec.size != key_dims[key]:
            raise ScenarioFormatError(
                f"channels[{key}/{r}]: expected {key_dims[key]} entries for "
                f"channel key {key!r}, got {vec.size}"
            )
        if not np.isfinite(vec).all():
            raise ScenarioFormatError(f"channels[{key}/{r}]: non-finite entries")


def direction_vector(s: Scenario, tid: str) -> np.ndarray:
    """Boundary direction for one transmitter: +1 at intended receivers."""
    t = s.transmitter(tid)
    e = np.array(
        [1 if r in t.intended else -1 for r in s.receivers], dtype=np.int64
    )
    e.flags.writeable = False
    return e


def _stream_generator(seed: int, channel_key: str, receiver: int) -> np.random.Generator:
    """Counter-based generator for one (channel key, receiver) stream.

    The Philox key is derived by hashing (seed, channel key, receiver), so
    every channel vector has its own stream: adding receivers or
    transmitters never perturbs existing channels.
    """
    # Imported here, not at the top: only gen draws channels, and its
    # numpy.random loads hashlib anyway (through secrets and hmac).
    import hashlib

    tag = f"{int(seed)}|{channel_key}|{int(receiver)}".encode()
    digest = hashlib.blake2b(tag, digest_size=16).digest()
    key = np.frombuffer(digest, dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def generate_channels(seed: int, skeleton: Scenario) -> Scenario:
    """Fill every channel with i.i.d. CN(0, 1) entries, deterministically.

    Entries are circularly symmetric complex Gaussian with zero mean and
    unit variance.  The same seed always reproduces the same channels,
    bit for bit.
    """
    keys = {}
    for t in skeleton.transmitters:
        keys.setdefault(t.channel_key, t.n_antennas)
    channels = {}
    for key, n in keys.items():
        for r in skeleton.receivers:
            rng = _stream_generator(seed, key, r)
            z = rng.standard_normal(2 * n)
            channels[(key, r)] = (z[0::2] + 1j * z[1::2]) / np.sqrt(2.0)
    return replace(skeleton, channels=channels)


def snr_to_noise(snr_db: float) -> float:
    """Noise power sigma^2 for a given SNR in dB (SNR = 1/sigma^2)."""
    snr_db = float(snr_db)
    if not math.isfinite(snr_db):
        raise ValueError("snr_db must be finite")
    try:
        noise = 10.0 ** (-snr_db / 10.0)
    except OverflowError:
        noise = math.inf
    if not 0.0 < noise < math.inf:
        raise ValueError(f"snr_db {snr_db:g} gives a noise power outside the float range")
    return noise


def _complex_to_pairs(vec: np.ndarray) -> list[list[float]]:
    return [[float(c.real), float(c.imag)] for c in vec]


def scenario_to_dict(s: Scenario) -> dict:
    """Plain-data form of a scenario, exact for round tripping."""
    return {
        "format": SCENARIO_FORMAT,
        "receivers": s.n_receivers,
        "noise_power": float(s.noise_power),
        "transmitters": [
            {
                "id": t.tid,
                "antennas": t.n_antennas,
                "intended": sorted(t.intended),
                "channel_key": t.channel_key,
            }
            for t in s.transmitters
        ],
        "power_groups": [list(g) for g in s.power_groups],
        "channels": {
            f"{key}/{r}": _complex_to_pairs(vec)
            for (key, r), vec in sorted(s.channels.items())
        },
    }


def _expect(ok: bool, path: str, what: str, value) -> None:
    if not ok:
        raise ScenarioFormatError(f"{path}: must be {what}, got {value!r}")


def _is_count(x) -> bool:
    """Whether x is a JSON integer: a Python int, not a bool."""
    return isinstance(x, int) and not isinstance(x, bool)


def _number(path: str, x) -> float:
    """A JSON number (int or float, not bool) as a float."""
    _expect(isinstance(x, (int, float)) and not isinstance(x, bool), path, "a number", x)
    try:
        return float(x)
    except OverflowError:
        raise ScenarioFormatError(f"{path}: integer outside the float range") from None


def _parse_transmitter(path: str, raw) -> TransmitterSpec:
    _expect(isinstance(raw, dict), path, "an object", raw)
    for k in ("id", "antennas", "intended"):
        if k not in raw:
            raise ScenarioFormatError(f"{path}.{k}: missing")
    tid, antennas, intended = raw["id"], raw["antennas"], raw["intended"]
    key = raw.get("channel_key", tid)
    _expect(isinstance(tid, str), f"{path}.id", "a string", tid)
    _expect(isinstance(key, str), f"{path}.channel_key", "a string", key)
    _expect(_is_count(antennas), f"{path}.antennas", "an integer", antennas)
    _expect(isinstance(intended, list), f"{path}.intended", "a list", intended)
    for j, r in enumerate(intended):
        _expect(_is_count(r), f"{path}.intended[{j}]", "an integer", r)
    return TransmitterSpec(tid=tid, n_antennas=antennas, intended=intended, channel_key=key)


def _parse_channel_entry(path: str, raw) -> np.ndarray:
    _expect(isinstance(raw, list), path, "a list of [re, im] pairs", raw)
    out = np.zeros(len(raw), dtype=np.complex128)
    for i, pair in enumerate(raw):
        _expect(isinstance(pair, list) and len(pair) == 2, f"{path}[{i}]", "a [re, im] pair", pair)
        out[i] = complex(_number(f"{path}[{i}][0]", pair[0]), _number(f"{path}[{i}][1]", pair[1]))
    return out


def scenario_from_dict(doc: dict) -> Scenario:
    """Parse and validate a scenario document; channels may be absent.

    The JSON type of every field is checked once, here, before any object
    is built, with a ScenarioFormatError naming the field path; nothing is
    cast.  The Scenario then checks ranges and cross-references.
    """
    _expect(isinstance(doc, dict), "document", "an object", doc)
    if doc.get("format") != SCENARIO_FORMAT:
        raise ScenarioFormatError(
            f"format: expected {SCENARIO_FORMAT!r}, got {doc.get('format')!r}"
        )
    for fieldname in ("receivers", "noise_power", "transmitters", "power_groups"):
        if fieldname not in doc:
            raise ScenarioFormatError(f"{fieldname}: missing")
    _expect(_is_count(doc["receivers"]), "receivers", "an integer", doc["receivers"])
    noise = _number("noise_power", doc["noise_power"])
    raw_txs = doc["transmitters"]
    _expect(isinstance(raw_txs, list), "transmitters", "a list", raw_txs)
    transmitters = [_parse_transmitter(f"transmitters[{i}]", raw) for i, raw in enumerate(raw_txs)]
    groups = doc["power_groups"]
    _expect(isinstance(groups, list), "power_groups", "a list", groups)
    for i, group in enumerate(groups):
        _expect(isinstance(group, list), f"power_groups[{i}]", "a list", group)
        for j, tid in enumerate(group):
            _expect(isinstance(tid, str), f"power_groups[{i}][{j}]", "a string", tid)
    raw_channels = doc.get("channels", {})
    _expect(isinstance(raw_channels, dict), "channels", "an object", raw_channels)
    channels = {}
    for key_str, raw in raw_channels.items():
        ckey, sep, recv_text = key_str.rpartition("/")
        # int() also reads "01", " 1" and "+1", and each would silently name
        # the same channel as "1"; only the canonical decimal names a receiver.
        recv = int(recv_text) if recv_text.isdecimal() else None
        if not sep or recv is None or str(recv) != recv_text:
            raise ScenarioFormatError(
                f"channels[{key_str}]: key must look like '<channel_key>/<receiver>', "
                "the receiver in plain decimal"
            )
        channels[(ckey, recv)] = _parse_channel_entry(f"channels[{key_str}]", raw)
    return Scenario(
        transmitters=transmitters,
        n_receivers=doc["receivers"],
        noise_power=noise,
        power_groups=groups,
        channels=channels,
    )


def save_scenario(s: Scenario, path) -> None:
    """Write a scenario file; floats round-trip exactly."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scenario_to_dict(s), fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_scenario(path) -> Scenario:
    """Read and validate a scenario file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ScenarioFormatError(f"document: invalid JSON ({exc})") from exc
    return scenario_from_dict(doc)


def scenario_digest(s: Scenario) -> str:
    """Short stable hash of the full scenario content: the first 16 hex
    digits of the SHA-256 of its sorted-key JSON, the same digest as
    hashlib.sha256, computed without loading hashlib."""
    blob = json.dumps(scenario_to_dict(s), sort_keys=True).encode()
    return sha256(blob).hexdigest()[:16]


def ic_skeleton(users: int, antennas: int, noise_power: float = 1.0) -> Scenario:
    """K-user MISO interference channel: transmitter k serves receiver k."""
    if users < 1:
        raise ValueError("users must be >= 1")
    transmitters = tuple(
        TransmitterSpec(tid=str(k), n_antennas=antennas, intended={k})
        for k in range(1, users + 1)
    )
    return Scenario(
        transmitters=transmitters,
        n_receivers=users,
        noise_power=noise_power,
        power_groups=tuple((t.tid,) for t in transmitters),
    )


def mixed_skeleton(antennas: int = 3, noise_power: float = 1.0) -> Scenario:
    """Two physical transmitters, three receivers: BC + MAC + multicast + IC.

    Transmitter 1 is split into virtual transmitters 11 (serves receiver 1)
    and 12 (serves receiver 2) sharing one power budget and one physical
    channel; transmitter 2 multicasts to receivers 2 and 3.  Receiver sets:
    intended(11)={1}, intended(12)={2}, intended(2)={2,3}; everything else
    is interference.
    """
    transmitters = (
        TransmitterSpec(tid="11", n_antennas=antennas, intended={1}, channel_key="1"),
        TransmitterSpec(tid="12", n_antennas=antennas, intended={2}, channel_key="1"),
        TransmitterSpec(tid="2", n_antennas=antennas, intended={2, 3}, channel_key="2"),
    )
    return Scenario(
        transmitters=transmitters,
        n_receivers=3,
        noise_power=noise_power,
        power_groups=(("11", "12"), ("2",)),
    )
