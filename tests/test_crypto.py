"""Bit helpers, PRG golden vectors, GGM puncturing, statistical injectivity,
sparse SKE, and keyed coin derivation."""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qwmark import crypto, elwm, wmprf
from qwmark.errors import FormatError, LengthError
from qwmark.pirates import honest_pirate

from conftest import rng_for

# ---------------------------------------------------------------------------
# bit helpers
# ---------------------------------------------------------------------------


def test_bit_round_trips():
    assert crypto.int_to_bits(11, 4) == "1011"
    assert crypto.bits_to_bytes("10110010") == b"\xb2"
    assert crypto.bytes_to_bits(b"\xb2", 8) == "10110010"
    # big-endian: leftmost bit is index 0 and carries the highest weight
    assert crypto.int_to_bits(4, 3) == "100"
    assert crypto.bytes_to_bits(b"\x80", 3) == "100"


@given(st.integers(min_value=0, max_value=2**24 - 1))
def test_int_bits_inverse(v):
    assert int(crypto.int_to_bits(v, 24), 2) == v


@given(st.text(alphabet="01", min_size=1, max_size=64))
def test_bytes_round_trip(bits):
    assert crypto.bytes_to_bits(crypto.bits_to_bytes(bits), len(bits)) == bits


def test_xor_bits():
    assert crypto.xor_bits("1100", "1010") == "0110"
    with pytest.raises(LengthError):
        crypto.xor_bits("111", "1")


def test_bits_validation():
    with pytest.raises(LengthError):
        crypto.check_bits("10a1")
    with pytest.raises(LengthError):
        crypto.check_bits("101", 4)


# The per-character definitions the C-level helpers replaced, kept as oracles.


def oracle_check_bits(bits, length=None):
    if not isinstance(bits, str) or any(c not in "01" for c in bits):
        raise LengthError("not a bit string")
    if length is not None and len(bits) != length:
        raise LengthError("wrong length")
    return bits


def oracle_bytes_to_bits(data: bytes, length: int) -> str:
    if len(data) * 8 < length:
        raise LengthError("too few bytes")
    return "".join(format(byte, "08b") for byte in data)[:length]


def oracle_xor_bits(a: str, b: str) -> str:
    if len(a) != len(b):
        raise LengthError("unequal lengths")
    return "".join("1" if x != y else "0" for x, y in zip(a, b))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except LengthError:
        return LengthError


@given(st.text(alphabet="01ab_ \n１", max_size=12), st.none() | st.integers(min_value=0, max_value=12))
def test_check_bits_matches_oracle(bits, length):
    assert _outcome(crypto.check_bits, bits, length) == _outcome(oracle_check_bits, bits, length)


@given(st.binary(max_size=40), st.integers(min_value=0, max_value=330))
def test_bytes_to_bits_matches_oracle(data, length):
    assert _outcome(crypto.bytes_to_bits, data, length) == _outcome(oracle_bytes_to_bits, data, length)


@given(st.text(alphabet="01", max_size=300), st.data())
def test_xor_bits_matches_oracle(a, data):
    b = data.draw(st.text(alphabet="01", min_size=len(a), max_size=len(a)))
    assert crypto.xor_bits(a, b) == oracle_xor_bits(a, b)
    with pytest.raises(LengthError):
        crypto.xor_bits(a, b + "1")


def test_bit_helpers_on_empty_strings():
    assert crypto.check_bits("") == ""
    assert crypto.check_bits("", 0) == ""
    assert crypto.bytes_to_bits(b"", 0) == ""
    assert crypto.bytes_to_bits(b"\xff", 0) == ""
    assert crypto.xor_bits("", "") == ""
    with pytest.raises(LengthError):
        crypto.bytes_to_bits(b"", 1)


@pytest.mark.parametrize("bits", ["0_1", " 01", "01 ", "0b1", "+1", "-1", "１", "0１", "01\n", None, b"01"])
def test_int_parsable_non_bit_strings_are_rejected(bits):
    # int(s, 2) accepts most of these; a bit string must not
    with pytest.raises(LengthError):
        crypto.check_bits(bits)


# ---------------------------------------------------------------------------
# the record layout shared by every key, tag and circuit
# ---------------------------------------------------------------------------


def test_record_layout():
    assert crypto.write_record((1, 0xFFFF), (b"ab", b"")) == b"\x00\x01\xff\xff\x00\x02\x00\x00ab"
    assert crypto.write_record((), ()) == b""


@given(
    st.lists(st.integers(0, 0xFFFF), max_size=4),
    st.lists(st.binary(max_size=24), max_size=4),
    st.binary(min_size=1, max_size=8),
)
def test_record_round_trip_prefixes_and_trailing_bytes(fields, blobs, tail):
    data = crypto.write_record(fields, blobs)
    n_fields, n_blobs = len(fields), len(blobs)
    assert crypto.read_record(data + tail, n_fields, n_blobs, "test") == (tuple(fields), blobs, tail)
    assert crypto.read_whole_record(data, n_fields, n_blobs, "test") == (tuple(fields), blobs)
    for cut in range(len(data)):
        with pytest.raises(FormatError):
            crypto.read_record(data[:cut], n_fields, n_blobs, "test")
    with pytest.raises(FormatError):
        crypto.read_whole_record(data + tail, n_fields, n_blobs, "test")


# ---------------------------------------------------------------------------
# PRG: determinism, golden vectors, crude balance
# ---------------------------------------------------------------------------

GOLDEN_ZERO16_64 = "0001000110000110001010111010001010101001010101101110000111000111"
GOLDEN_SEED_128 = (
    "01110001001011110011000101011001100101011000010001111011100110001100100100010001"
    "111000011110000111110000110000011100100011111001"
)


def test_prg_golden_vectors():
    # frozen from the reference primitive; a change here breaks every key format
    assert crypto.prg_expand(b"\x00" * 16, 64) == GOLDEN_ZERO16_64
    assert crypto.prg_expand(b"golden-seed-0001", 128) == GOLDEN_SEED_128
    assert crypto.prg("10110010", 16) == "0011110101010111"
    assert crypto.keyed_rand(b"key-material-000", b"label", 32) == "10110000010010000101010110101110"


def test_prg_determinism_and_prefix_structure():
    long = crypto.prg_expand(b"seedling", 512)
    short = crypto.prg_expand(b"seedling", 100)
    assert long[:100] == short
    assert crypto.prg_expand(b"seedling", 512) == long


def test_prg_distinct_seeds_disagree():
    a = crypto.prg_expand(b"a" * 16, 256)
    b = crypto.prg_expand(b"b" * 16, 256)
    assert a != b
    # crude balance: a fixed seed pair should not be wildly skewed
    assert 80 < a.count("1") < 176


def test_prg_bit_interface_length_aware():
    # same prefix bits, different declared length: independent streams
    assert crypto.prg("101", 32) != crypto.prg("1010", 32)[:32]


def test_keyed_rand_separates_keys_and_labels():
    assert crypto.keyed_rand(b"k1", b"x", 64) != crypto.keyed_rand(b"k2", b"x", 64)
    assert crypto.keyed_rand(b"k1", b"x", 64) != crypto.keyed_rand(b"k1", b"y", 64)
    assert len(crypto.keyed_rand(b"k1", b"z", 13)) == 13


# ---------------------------------------------------------------------------
# GGM tree
# ---------------------------------------------------------------------------


def test_ggm_eval_deterministic_and_sized():
    key = crypto.ggm_gen(8, 16, rng_for("ggm-basic"))
    x = "10110100"
    y = crypto.ggm_eval(key, x)
    assert len(y) == 16
    assert crypto.ggm_eval(key, x) == y
    with pytest.raises(LengthError):
        crypto.ggm_eval(key, "101")


def straight_line_ggm(seed: bytes, x: str, out_bits: int) -> str:
    for bit in x:
        seed = hashlib.sha256(b"node" + bit.encode() + seed).digest()[:16]
    return crypto.prg_expand(seed, out_bits, domain=b"leaf")


@given(st.binary(min_size=16, max_size=16), st.text(alphabet="01", min_size=1, max_size=130))
def test_ggm_eval_matches_straight_line_walk(seed, x):
    key = crypto.GgmKey(seed, len(x), 16)
    assert crypto.ggm_eval(key, x) == straight_line_ggm(seed, x, 16)


def test_walk_memo_hits_in_s64_extraction():
    # Sim's encryption and the marked circuit's decryption walk the same
    # paths, so an extraction must hit the memo; the memo never outgrows its bound
    params = wmprf.ExtractParams(k=2, eps=0.25, delta_prime=0.05, s=64, engine="fast")
    crypto._walk.cache_clear()
    result = wmprf.run_event_trial(
        params,
        honest_pirate,
        "10",
        rng_for("walk-memo"),
        elwm_params=elwm.ElwmParams(3, seed_bits=6, range_bits=12),
    )
    assert result.report.decoded == "10"
    info = crypto._walk.cache_info()
    assert info.maxsize == 1024
    assert info.hits > 0
    assert 0 < info.currsize <= info.maxsize


def test_ggm_exhaustive_distinctness_small_domain():
    # injectivity is not promised, but a healthy tree should not collide on 2^8
    key = crypto.ggm_gen(8, 32, rng_for("ggm-distinct"))
    outs = {crypto.ggm_eval(key, crypto.int_to_bits(v, 8)) for v in range(256)}
    assert len(outs) == 256


def test_ggm_puncture_exhaustive_tiny():
    key = crypto.ggm_gen(2, 8, rng_for("ggm-tiny"))
    punctured = crypto.ggm_puncture(key, {"01"})
    for v in range(4):
        x = crypto.int_to_bits(v, 2)
        got = crypto.ggm_eval_punctured(punctured, x)
        if x == "01":
            assert got is None
        else:
            assert got == crypto.ggm_eval(key, x)


@pytest.mark.parametrize("n_points", [1, 2, 5])
def test_ggm_puncture_exhaustive_domain8(n_points):
    local = rng_for(f"ggm-punct-{n_points}")
    key = crypto.ggm_gen(8, 12, local)
    points = {crypto.int_to_bits(int(v), 8) for v in local.choice(256, size=n_points, replace=False)}
    punctured = crypto.ggm_puncture(key, points)
    for v in range(256):
        x = crypto.int_to_bits(v, 8)
        got = crypto.ggm_eval_punctured(punctured, x)
        if x in points:
            assert got is None
        else:
            assert got == crypto.ggm_eval(key, x)


def test_ggm_punctured_key_stores_no_path_seeds():
    key = crypto.ggm_gen(6, 8, rng_for("ggm-paths"))
    point = "101100"
    punctured = crypto.ggm_puncture(key, {point})
    # no stored node may be a prefix of the punctured point (that would let
    # the holder evaluate at the point), and the point itself must be listed
    assert point in punctured.points
    for depth, prefix, _seed in punctured.nodes:
        assert not point.startswith(prefix) or depth > len(point)
    # cover size for one point is exactly the tree depth
    assert len(punctured.nodes) == 6


def test_ggm_empty_puncture_keeps_function():
    key = crypto.ggm_gen(4, 8, rng_for("ggm-empty"))
    punctured = crypto.ggm_puncture(key, set())
    for v in range(16):
        x = crypto.int_to_bits(v, 4)
        assert crypto.ggm_eval_punctured(punctured, x) == crypto.ggm_eval(key, x)


def test_ggm_key_serialization_round_trip():
    key = crypto.ggm_gen(10, 24, rng_for("ggm-ser"))
    assert crypto.GgmKey.from_bytes(key.to_bytes()) == key
    with pytest.raises(FormatError):
        crypto.GgmKey.from_bytes(key.to_bytes() + b"junk")


# ---------------------------------------------------------------------------
# statistically injective PPRF
# ---------------------------------------------------------------------------


def test_injective_pprf_width_contract():
    with pytest.raises(LengthError):
        crypto.InjectivePprfKey(crypto.ggm_gen(8, 9, rng_for("inj-bad")), b"m" * 16)


def test_injective_pprf_collision_scan():
    # in_bits=9 -> out_bits=27; expected collisions per key ~ 2^-10, so at
    # least 99 of 100 keys must scan clean over the full domain
    clean = 0
    for trial in range(100):
        key = crypto.injective_pprf_gen(9, 27, rng_for(f"inj-{trial}"))
        seen = set()
        ok = True
        for v in range(512):
            out = crypto.injective_pprf_eval(key, crypto.int_to_bits(v, 9))
            if out in seen:
                ok = False
                break
            seen.add(out)
        clean += ok
    assert clean >= 99


def test_injective_pprf_differs_from_plain_ggm():
    key = crypto.injective_pprf_gen(6, 18, rng_for("inj-mask"))
    x = "101010"
    assert crypto.injective_pprf_eval(key, x) != crypto.ggm_eval(key.ggm, x)


def test_injective_pprf_puncture_agrees_off_set():
    key = crypto.injective_pprf_gen(8, 24, rng_for("inj-punct"))
    point = crypto.int_to_bits(200, 8)
    punctured = crypto.injective_pprf_puncture(key, {point})
    assert crypto.injective_pprf_eval_punctured(punctured, point) is None
    for v in [0, 1, 77, 128, 199, 201, 255]:
        x = crypto.int_to_bits(v, 8)
        assert crypto.injective_pprf_eval_punctured(punctured, x) == crypto.injective_pprf_eval(key, x)


def test_injective_pprf_serialization_round_trip():
    key = crypto.injective_pprf_gen(6, 18, rng_for("inj-ser"))
    assert crypto.InjectivePprfKey.from_bytes(key.to_bytes()) == key


# ---------------------------------------------------------------------------
# property-based round trips
# ---------------------------------------------------------------------------


@given(st.integers(min_value=0, max_value=255), st.integers(min_value=0, max_value=2**10 - 1))
def test_ggm_puncture_pointwise(point_v, probe_v):
    key = crypto.GgmKey(b"fixed-seed-hypot", 10, 8)
    point = crypto.int_to_bits(point_v % 1024, 10)
    probe = crypto.int_to_bits(probe_v, 10)
    punctured = crypto.ggm_puncture(key, {point})
    got = crypto.ggm_eval_punctured(punctured, probe)
    if probe == point:
        assert got is None
    else:
        assert got == crypto.ggm_eval(key, probe)
