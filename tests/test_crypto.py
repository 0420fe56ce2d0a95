"""Bit helpers, PRG golden vectors, GGM puncturing, statistical injectivity,
sparse SKE, and keyed coin derivation."""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import random
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qwmark import crypto, elwm, native, pe, wmprf
from qwmark.errors import FormatError, LengthError
from qwmark.pirates import honest_pirate

import test_vectors as vectors
from conftest import bytes_to_bits, child_env, keyed_rand, prg_bits, prg_expand, rng_for

# ---------------------------------------------------------------------------
# bit helpers
# ---------------------------------------------------------------------------


def test_bit_round_trips():
    assert crypto.int_to_bits(11, 4) == "1011"
    assert crypto.bits_to_bytes("10110010") == b"\xb2"
    assert bytes_to_bits(b"\xb2", 8) == "10110010"
    # big-endian: leftmost bit is index 0 and carries the highest weight
    assert crypto.int_to_bits(4, 3) == "100"
    assert crypto.bits_to_bytes("100") == b"\x80"
    # the int form: a w-bit string s is int(s, 2), and the width is not in the int
    assert crypto._pack(0b101, 3) == b"\xa0" and crypto._pack(0b101, 4) == b"\x50"


@given(st.integers(min_value=0, max_value=2**24 - 1))
def test_int_bits_inverse(v):
    assert int(crypto.int_to_bits(v, 24), 2) == v


@given(st.text(alphabet="01", min_size=1, max_size=64))
def test_bytes_round_trip(bits):
    assert bytes_to_bits(crypto.bits_to_bytes(bits), len(bits)) == bits


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


def oracle_bits_to_bytes(bits) -> bytes:
    oracle_check_bits(bits)
    return bytes(int(bits[i : i + 8].ljust(8, "0"), 2) for i in range(0, len(bits), 8))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except LengthError:
        return LengthError


@given(st.text(alphabet="01ab_ \n１", max_size=12), st.none() | st.integers(min_value=0, max_value=12))
def test_check_bits_matches_oracle(bits, length):
    assert _outcome(crypto.check_bits, bits, length) == _outcome(oracle_check_bits, bits, length)


@given(st.text(alphabet="01", max_size=330) | st.text(alphabet="01a ", max_size=12))
def test_bits_to_bytes_matches_oracle(bits):
    assert _outcome(crypto.bits_to_bytes, bits) == _outcome(oracle_bits_to_bytes, bits)


def test_bit_helpers_on_empty_strings():
    assert crypto.check_bits("") == ""
    assert crypto.check_bits("", 0) == ""
    assert crypto.int_to_bits(0, 0) == ""
    assert crypto.bits_to_bytes("") == b""
    assert crypto._pack(0, 0) == b""
    assert prg_expand(b"\xff", 0) == ""


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
    assert prg_expand(b"\x00" * 16, 64) == GOLDEN_ZERO16_64
    assert prg_expand(b"golden-seed-0001", 128) == GOLDEN_SEED_128
    assert prg_bits("10110010", 16) == "0011110101010111"
    assert crypto._prg(0b10110010, 8, 16) == 0b0011110101010111
    assert keyed_rand(b"key-material-000", b"label", 32) == "10110000010010000101010110101110"


def test_prg_determinism_and_prefix_structure():
    long = prg_expand(b"seedling", 512)
    short = prg_expand(b"seedling", 100)
    assert long[:100] == short
    assert prg_expand(b"seedling", 512) == long


def test_prg_distinct_seeds_disagree():
    a = prg_expand(b"a" * 16, 256)
    b = prg_expand(b"b" * 16, 256)
    assert a != b
    # crude balance: a fixed seed pair should not be wildly skewed
    assert 80 < a.count("1") < 176


def test_prg_bit_interface_length_aware():
    # same prefix bits, or the same int, under a different declared width: independent streams
    assert prg_bits("101", 32) != prg_bits("1010", 32)
    assert crypto._prg(0b101, 3, 32) != crypto._prg(0b101, 4, 32)


def oracle_prg_expand(seed: bytes, out_bits: int, domain: bytes) -> str:
    """SHA-256 in counter mode, every block through the general path."""
    prefix = domain + b"|" + seed
    blocks = b"".join(hashlib.sha256(prefix + ctr.to_bytes(4, "big")).digest() for ctr in range(out_bits // 256 + 1))
    return "".join(f"{byte:08b}" for byte in blocks)[:out_bits]


@given(
    st.binary(max_size=24),
    st.integers(min_value=0, max_value=600),
    st.sampled_from([b"prg", b"leaf", b"aff", b"coin"]) | st.binary(max_size=8),
)
@example(b"edge", 7, b"prg")
@example(b"edge", 8, b"prg")
@example(b"edge", 255, b"prg")
@example(b"edge", 256, b"prg")
@example(b"edge", 257, b"prg")
def test_prg_expand_matches_counter_mode(seed, out_bits, domain):
    # out_bits <= 256 takes the one-block path
    assert prg_expand(seed, out_bits, domain=domain) == oracle_prg_expand(seed, out_bits, domain)
    with pytest.raises(LengthError):
        prg_expand(seed, -1, domain=domain)


def test_keyed_rand_separates_keys_and_labels():
    assert keyed_rand(b"k1", b"x", 64) != keyed_rand(b"k2", b"x", 64)
    assert keyed_rand(b"k1", b"x", 64) != keyed_rand(b"k1", b"y", 64)
    assert len(keyed_rand(b"k1", b"z", 13)) == 13
    for out_bits in (1, 53, 64, 300):  # the int coins are the same bits
        assert crypto._keyed_coins(b"k1", b"x", out_bits) == int(keyed_rand(b"k1", b"x", out_bits), 2)


@pytest.mark.parametrize("out_bits", [12, 256, 257, 600])  # one block, and two and three
def test_the_prg_memo_gives_the_stream_cold_and_warm(out_bits):
    # every seed of a game at seed_bits = 6, and one int under two widths; forget_leaves keeps the memo
    cases = [(seed, 6, out_bits) for seed in range(64)] + [(0b101, 3, out_bits), (0b101, 4, out_bits)]
    fresh = [crypto._stream(b"bits|" + crypto._pack(v, w) + w.to_bytes(4, "big"), n, b"prg") for v, w, n in cases]
    crypto._prg.cache_clear()
    assert [crypto._prg(*case) for case in cases] == fresh
    crypto.forget_leaves()
    assert [crypto._prg(*case) for case in cases] == fresh
    info = crypto._prg.cache_info()
    assert (info.hits, info.misses) == (len(cases), len(cases))


def test_the_prg_memo_is_bounded_and_evicts_the_least_recently_used_entry():
    size = crypto._prg.cache_info().maxsize
    assert size == crypto._PRG_MEMO_SIZE == 1024
    crypto._prg.cache_clear()
    for seed in range(size):
        crypto._prg(seed, 12, 32)
    crypto._prg(0, 12, 32)  # seed 0 is now the most recently used, and seed 1 the least
    crypto._prg(size, 12, 32)  # one entry too many
    assert crypto._prg.cache_info().currsize == size
    misses = crypto._prg.cache_info().misses
    assert crypto._prg(0, 12, 32) == crypto._prg.__wrapped__(0, 12, 32)
    assert crypto._prg.cache_info().misses == misses
    assert crypto._prg(1, 12, 32) == crypto._prg.__wrapped__(1, 12, 32)
    assert crypto._prg.cache_info().misses == misses + 1


def test_pinned_vectors_hold_with_the_prg_memo_cleared_and_warm(tmp_path, capsys):
    # PE encryption takes alpha from the PRG, and the marked circuit answers a biting Sim query with PRG(s)
    crypto._prg.cache_clear()
    for memo in ("cleared", "warm"):
        (tmp_path / memo).mkdir()
        assert vectors.pe_vectors() == (vectors.PE_CIPHERTEXTS, vectors.PE_RANDOM_DEC)
        records = vectors.cli_records(tmp_path / memo)
        assert vectors.circuit_vectors(records) == (vectors.CIRCUIT_ON_SIM, vectors.CIRCUIT_ON_RANDOM)
        assert vectors.experiment_digests(tmp_path / memo) == (vectors.ROWS_SHA, vectors.SUMMARY_SHA)
        if memo == "cleared":
            first = crypto._prg.cache_info()
    capsys.readouterr()
    info = crypto._prg.cache_info()
    assert info.hits > first.hits


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


def straight_line_walk(seed: bytes, x: str) -> bytes:
    for bit in x:
        seed = hashlib.sha256(b"node" + bit.encode() + seed).digest()[:16]
    return seed


def straight_line_ggm(seed: bytes, x: str, out_bits: int) -> str:
    return oracle_prg_expand(straight_line_walk(seed, x), out_bits, b"leaf")


def straight_line_leaf(seed: bytes, x: str, n_blocks: int) -> bytes:
    """A leaf's contract from per-character hashes: the node seed for 0 blocks, else the first n_blocks leaf blocks."""
    node = straight_line_walk(seed, x)
    blocks = b"".join(hashlib.sha256(b"leaf|" + node + ctr.to_bytes(4, "big")).digest() for ctr in range(n_blocks))
    return blocks if n_blocks else node


# The leaves this host runs: the hashlib loop always, and the native kernel
# where it builds, taken as built rather than after crypto's probe has vetted it.
LEAVES = {"hashlib": crypto._hashlib_leaf}
if (native_leaf := native.load_leaf()) is not None:
    LEAVES["native"] = native_leaf


def test_the_native_walk_runs_wherever_it_builds():
    assert native.kernels()["ggm_walk"] == ("native" if "native" in LEAVES else "hashlib")


@contextmanager
def walking_with(leaf):
    """Evaluate through `leaf` from an empty leaf memo, yielding the list of its calls; restore the leaf in use
    afterwards.

    The block must reach the leaf at least once, so that a test cannot pass
    while it runs another one.
    """
    calls = []

    def counted(*args):
        calls.append(args)
        return leaf(*args)

    saved = crypto._leaf_in_use
    crypto._leaf_in_use = lambda: counted
    crypto.forget_leaves()
    try:
        yield calls
    finally:
        crypto._leaf_in_use = saved
        crypto.forget_leaves()
    assert calls, "the block never reached the leaf under test"


@given(st.binary(min_size=16, max_size=16), st.text(alphabet="01", max_size=130))
@example(b"cover-node-seed!", "")  # a punctured cover node at full depth walks the empty path
@example(b"\x00" * 16, ("1101" * 30)[:27])  # the widths the game walks
@example(b"\x01" * 16, ("1101" * 30)[:30])
@example(b"\x02" * 16, ("1101" * 30)[:81])
@example(b"\x03" * 16, ("1101" * 30)[:90])
@example(b"\x04" * 16, ("1101" * 30)[:108])
@example(b"\xff" * 16, ("1101" * 30)[:120])
def test_ggm_eval_matches_straight_line_walk(seed, x):
    expected = straight_line_walk(seed, x)
    path = int(x or "0", 2)
    for leaf in LEAVES.values():
        assert leaf(seed, path, len(x), 0) == expected
        with walking_with(leaf):
            assert crypto._ggm_leaf(seed, path, len(x), 16) == int(straight_line_ggm(seed, x, 16), 2)
            if x:
                crypto.forget_leaves()
                assert crypto.ggm_eval(crypto.GgmKey(seed, len(x), 16), x) == straight_line_ggm(seed, x, 16)


LEAF_OUT_BITS = [0, 1, 12, 16, 90, 255, 256, 257, 600]  # 0 asks the leaf for the node seed


@given(
    st.binary(min_size=16, max_size=16),
    st.text(alphabet="01", max_size=400),
    st.sampled_from(LEAF_OUT_BITS),
)
@example(b"\x00" * 16, "", 600)
@example(b"\x05" * 16, ("0110" * 30)[:27], 257)
@example(b"\x06" * 16, ("0110" * 30)[:30], 90)
@example(b"\x07" * 16, ("0110" * 30)[:81], 0)
@example(b"\x08" * 16, ("0110" * 30)[:90], 12)
@example(b"\x09" * 16, ("0110" * 30)[:108], 256)
@example(b"\x0a" * 16, ("0110" * 30)[:120], 600)
@example(b"\x0b" * 16, ("0110" * 30)[:120], 0)
@example(b"\x0c" * 16, ("0110" * 100)[:324], 256)  # G's walk in the wide Sim probe, 9 ell = 324
@example(b"\x0d" * 16, ("0110" * 100)[:400], 0)
def test_every_leaf_matches_the_straight_line_oracle(seed, x, out_bits):
    # the native and hashlib leaves against a per-character walk and a
    # per-block leaf PRG, at every output width the kernel handles
    path, width = int(x or "0", 2), len(x)
    n_blocks = -(-out_bits // 256)
    expected = straight_line_leaf(seed, x, n_blocks)
    for leaf in LEAVES.values():
        assert leaf(seed, path, width, n_blocks) == expected
        if out_bits:
            with walking_with(leaf):
                assert crypto._ggm_leaf(seed, path, width, out_bits) == int(straight_line_ggm(seed, x, out_bits), 2)


def cpu_flags() -> set[str]:
    """The flags that /proc/cpuinfo lists for the first CPU; none where there is no such file."""
    try:
        lines = Path("/proc/cpuinfo").read_text().splitlines()
    except OSError:
        return set()
    return next((set(line.partition(":")[2].split()) for line in lines if line.startswith("flags")), set())


@pytest.mark.skipif("native" not in LEAVES, reason="the native leaf does not build on this host")
@pytest.mark.skipif(
    platform.machine() != "x86_64" or not {"sha_ni", "ssse3", "sse4_1"} <= cpu_flags(),
    reason="not an x86-64 Linux CPU with the SHA extensions",
)
def test_the_sha_ni_walk_runs_wherever_the_cpu_has_it():
    # a CPUID check that silently fell back would give the same bytes, only slower
    assert native.c_walk_name() == "sha-ni"


@pytest.mark.skipif("native" not in LEAVES, reason="the native leaf does not build on this host")
def test_the_libcrypto_c_walk_matches_the_oracles(tmp_path):
    # a CPU with the SHA extensions never runs the library's libcrypto walk, so
    # build it a second time with the SHA-NI walk compiled out and run its
    # kernels through native's own loaders
    target = tmp_path / "ggm_walk_libcrypto.so"
    command = [*native.COMPILE, "-DQWMARK_NO_SHA_NI", "-o", str(target), str(native.SOURCE), *native.LINK]
    done = subprocess.run(command, capture_output=True, text=True, timeout=native.BUILD_TIMEOUT_S)
    assert done.returncode == 0, done.stderr
    library = ctypes.PyDLL(str(target))
    assert native.c_walk_name(library) == "libcrypto"
    leaf = native.load_leaf(library)
    for width in (0, 1, 7, 8, 9, 27, 108, 120, 130, 324, 400):
        seed = hashlib.sha256(b"libcrypto-walk-%d" % width).digest()[:16]
        x = format(random.Random(width).getrandbits(width), f"0{width}b") if width else ""
        for n_blocks in (0, 1, 3):
            assert leaf(seed, int(x or "0", 2), width, n_blocks) == straight_line_leaf(seed, x, n_blocks)
    sim = elwm._native_sim(native.load_sim(library))
    reald = elwm._native_reald(native.load_reald(library))
    try:
        # F and G walk 30 and 90 bits, 108 and 324, and 396 and 1 188; the kernel builds records in groups of up
        # to 16, which this build walks one after the other, or in 16 AVX-512 lanes where there are more than 8
        for probe in (*elwm._SIM_PROBES, elwm._sim_probe(elwm.ElwmParams(2, 130, 257))):
            for s in (1, 2, 3, 5, 9, 17):
                sized = (*probe[:3], s, *probe[4:])
                assert sim(*sized) == elwm._python_sim(*sized)
        for probe in elwm._REALD_PROBES:
            expected = elwm._python_reald(*probe)
            crypto.forget_leaves()  # the Python builder reads F(x) from the leaf memo, where the kernel puts it
            assert reald(*probe) == expected
        # every 12-bit string at ell = 1, and the decryption probes at ell = 10 and 36, where F's output takes
        # one and two leaf blocks
        decrypt = native.load_decrypt(library)
        dk = pe.pe_gen(1, rng_for("libcrypto-decrypt")).dk
        cases = [*((dk, c) for c in range(1 << 12)), *pe._decrypt_probes()]
        assert [decrypt(*case) for case in cases] == [pe._python_decrypt(*case) for case in cases]
    finally:
        crypto.forget_leaves()


WALK_NAME = [sys.executable, "-c", "from qwmark import native; print(native.kernels()['ggm_walk'])"]


@pytest.mark.skipif("native" not in LEAVES, reason="the native leaf does not build on this host")
def test_processes_building_into_one_cache_at_once_each_load_the_kernel(tmp_path):
    cache = tmp_path / "cache"
    (cache / "qwmark").mkdir(mode=0o700, parents=True)
    # libraries of two other sources: a build keeps the more recently built one and unlinks the other
    older, newer = (cache / "qwmark" / f"ggm_walk-000000000000000{n}.so" for n in (0, 1))
    for age, stale in enumerate((newer, older), 1):
        stale.write_bytes(b"a library of another source")
        os.utime(stale, (1e9 - 1e6 * age, 1e9 - 1e6 * age))
    children = [
        subprocess.Popen(WALK_NAME, env=child_env(cache), stdout=subprocess.PIPE, text=True) for _ in range(2)
    ]
    outputs = [child.communicate(timeout=120)[0] for child in children]
    assert [child.returncode for child in children] == [0, 0]
    assert outputs == ["native\n"] * 2
    # one published library beside the newer stale one, and no temporary file left
    (built,) = set((cache / "qwmark").iterdir()) - {newer}
    assert newer.exists() and built.suffix == ".so" and not built.name.startswith(".")
    assert (cache / "qwmark").stat().st_mode & 0o777 == 0o700
    # a cached load needs no compiler
    (tmp_path / "empty-bin").mkdir()
    done = subprocess.run(
        WALK_NAME, env=child_env(cache, tmp_path / "empty-bin"), capture_output=True, text=True, timeout=120
    )
    assert done.stdout == "native\n", done.stderr


def test_a_short_or_long_ggm_seed_is_refused():
    for seed in (b"", b"s" * 15, b"s" * 17, "s" * 16):
        with pytest.raises(LengthError):
            crypto.GgmKey(seed, 4, 8)
    record = crypto.write_record((4, 8), (b"s" * 15,))
    with pytest.raises(FormatError):
        crypto.GgmKey.from_bytes(record)


class CountingMemo(dict):
    """A leaf memo that counts the lookups it answers."""

    hits = 0

    def get(self, key, default=None):
        value = super().get(key, default)
        self.hits += value is not None
        return value


def test_memoized_ggm_eval_matches_straight_line_walk(monkeypatch):
    seed = b"memo-seed-000001"
    xs = [crypto.int_to_bits(v, 10) for v in range(0, 1024, 37)]
    memo = CountingMemo()
    monkeypatch.setattr(crypto, "_leaves", memo)
    with walking_with(crypto._leaf_in_use()) as calls:
        for out_bits in (16, 300):  # the output width is part of the memo key
            key = crypto.GgmKey(seed, 10, out_bits)
            expected = [straight_line_ggm(seed, x, out_bits) for x in xs]
            assert [crypto.ggm_eval(key, x) for x in xs] == expected  # misses
            assert [crypto.ggm_eval(key, x) for x in xs] == expected  # hits
        # each miss walked the leaf once and left one entry; each hit walked nothing
        assert len(calls) == len(memo) == 2 * len(xs) and memo.hits == 2 * len(xs)


def test_leaf_memo_keys_on_the_path_width():
    # "0101" and "101" are the same int but different leaves
    seed = b"memo-seed-000002"
    with walking_with(crypto._leaf_in_use()) as calls:
        assert crypto._ggm_leaf(seed, 0b101, 4, 16) == int(straight_line_ggm(seed, "0101", 16), 2)
        assert crypto._ggm_leaf(seed, 0b101, 3, 16) == int(straight_line_ggm(seed, "101", 16), 2)
        assert len(calls) == len(crypto._leaves) == 2


def test_the_leaf_memo_is_emptied_when_full():
    seed = b"memo-seed-000003"
    with walking_with(crypto._leaf_in_use()) as calls:
        for path in range(crypto._LEAF_MEMO_SIZE + 1):
            crypto._ggm_leaf(seed, path, 13, 16)
        assert list(crypto._leaves) == [(seed, crypto._LEAF_MEMO_SIZE, 13, 16)]
        crypto._remember_leaves(seed, 13, 16, list(range(crypto._LEAF_MEMO_SIZE)), range(crypto._LEAF_MEMO_SIZE))
        assert len(crypto._leaves) == crypto._LEAF_MEMO_SIZE  # emptied first, since all of them did not fit
        assert crypto._ggm_leaf(seed, 7, 13, 16) == 7  # what was remembered is what is read
        assert len(calls) == crypto._LEAF_MEMO_SIZE + 1


# Multi-block leaves, computed by the string-level code that preceded the int
# forms and the fused native leaf: a 120-bit input to 257 and 600 output bits,
# and a 90 -> 270 injective PPRF, the widths of the F key of a 30-bit plaintext.
WIDE_INPUT_120 = "011011001010000100100010111010010011000110101101110011011000111011000001011110010011000000101111110010110110010000011101"
GGM_EVAL_257 = (
    "0011011000001000111011110100101010101111110111101110001001010011111101111001100100101011010100110010000100100101"
    "0100001000101011100010010101100110110011110110110111011110110010000010110101010110100100001110010000000110010101"
    "110100101111000000101111001010100"
)
GGM_EVAL_600 = (
    "0011011000001000111011110100101010101111110111101110001001010011111101111001100100101011010100110010000100100101"
    "0100001000101011100010010101100110110011110110110111011110110010000010110101010110100100001110010000000110010101"
    "1101001011110000001011110010101000111100110111011100010110001111101011001111010111010110111110111111101110100100"
    "1000101100101110011111000000010000001000001100110001101000000010111000001011100010100111011000010101011110110000"
    "0101101101100011001111101111101100010100001101001100011001100000111010100011110110100000111001011000101001011110"
    "0000101010111010001010101011011001101100"
)
INJECTIVE_EVAL_270 = (
    "0111101011110010011100100101111100000000000110101100111000110100000100010000100111010001010001000110001001001001"
    "0111011100000001011111011010110010000000001000011011100111010001111011000110001110001000110011011100110011111011"
    "0110011111101010010101111101100100100110001101"
)


def test_multi_block_leaf_vectors():
    root, mask = b"kat-ggm-root-000", b"kat-affine-mask0"
    assert WIDE_INPUT_120 == keyed_rand(b"kat-inputs", b"ggm-wide", 120)
    for leaf in LEAVES.values():
        with walking_with(leaf):
            assert crypto.ggm_eval(crypto.GgmKey(root, 120, 257), WIDE_INPUT_120) == GGM_EVAL_257
            assert crypto.ggm_eval(crypto.GgmKey(root, 120, 600), WIDE_INPUT_120) == GGM_EVAL_600
            key = crypto.InjectivePprfKey(crypto.GgmKey(root, 90, 270), mask)
            x = keyed_rand(b"kat-inputs", b"inj-wide", 90)
            assert crypto.injective_pprf_eval(key, x) == INJECTIVE_EVAL_270


def test_walk_memo_hits_in_s64_extraction(monkeypatch):
    # the marked circuit recomputes the PRF value y = F(x) of each real query
    # the live probe drew with b = 1, so a game must hit the leaf memo; Sim's
    # ciphertexts hit the plaintext memo instead.  The memo never outgrows its bound
    params = wmprf.ExtractParams(k=2, eps=0.25, delta_prime=0.05, s=64, engine="fast")
    native.kernels()  # pick the builders first: their probes on first use fill the memo with leaves of their own keys
    memo = CountingMemo()
    monkeypatch.setattr(crypto, "_leaves", memo)
    result = wmprf.run_event_trial(
        params,
        honest_pirate,
        "10",
        rng_for("walk-memo"),
        elwm_params=elwm.ElwmParams(3, seed_bits=6, range_bits=12),
    )
    assert result.report.decoded == "10"
    assert crypto._LEAF_MEMO_SIZE == elwm.MAX_TRIPLES
    assert memo.hits > 0
    assert 0 < len(memo) <= crypto._LEAF_MEMO_SIZE


def test_each_game_starts_with_an_empty_leaf_memo(monkeypatch):
    # a game's keys are fresh, so a second run of the same game may not hit
    # leaves the first one left behind
    params = wmprf.ExtractParams(k=2, eps=0.25, delta_prime=0.05, s=8, engine="fast")
    native.kernels()  # pick the builders first: their probes on first use walk leaves of their own keys
    memo = CountingMemo()
    monkeypatch.setattr(crypto, "_leaves", memo)
    stats = []
    with walking_with(crypto._leaf_in_use()) as calls:
        for _ in range(2):
            hits, misses = memo.hits, len(calls)
            wmprf.run_event_trial(
                params, honest_pirate, "10", rng_for("memo-per-game"), elwm_params=elwm.ElwmParams(3, 6, 12)
            )
            stats.append((memo.hits - hits, len(calls) - misses, len(memo)))
    assert stats[0] == stats[1]
    assert stats[0][1] > 0


def test_ggm_exhaustive_distinctness_small_domain():
    # injectivity is not promised, but a healthy tree should not collide on 2^8
    key = crypto.ggm_gen(8, 32, rng_for("ggm-distinct"))
    outs = {crypto.ggm_eval(key, crypto.int_to_bits(v, 8)) for v in range(256)}
    assert len(outs) == 256


# The punctured-key tests run under each leaf and check against the straight-line walk.


def test_ggm_puncture_exhaustive_tiny():
    key = crypto.ggm_gen(2, 8, rng_for("ggm-tiny"))
    for leaf in LEAVES.values():
        with walking_with(leaf):
            punctured = crypto.ggm_puncture(key, {"01"})
            assert (2, "00", straight_line_walk(key.seed, "00")) in punctured.nodes  # walks "" to its leaf
            for v in range(4):
                x = crypto.int_to_bits(v, 2)
                got = crypto.ggm_eval_punctured(punctured, x)
                if x == "01":
                    assert got is None
                else:
                    assert got == straight_line_ggm(key.seed, x, 8)


@pytest.mark.parametrize("n_points", [1, 2, 5])
def test_ggm_puncture_exhaustive_domain8(n_points):
    local = rng_for(f"ggm-punct-{n_points}")
    key = crypto.ggm_gen(8, 12, local)
    points = {crypto.int_to_bits(int(v), 8) for v in local.choice(256, size=n_points, replace=False)}
    for leaf in LEAVES.values():
        with walking_with(leaf):
            punctured = crypto.ggm_puncture(key, points)
            for v in range(256):
                x = crypto.int_to_bits(v, 8)
                got = crypto.ggm_eval_punctured(punctured, x)
                if x in points:
                    assert got is None
                else:
                    assert got == straight_line_ggm(key.seed, x, 12)


def test_ggm_punctured_key_stores_no_path_seeds():
    key = crypto.ggm_gen(6, 8, rng_for("ggm-paths"))
    point = "101100"
    for leaf in LEAVES.values():
        with walking_with(leaf):
            punctured = crypto.ggm_puncture(key, {point})
        # no stored node may be a prefix of the punctured point (that would let
        # the holder evaluate at the point), and the point itself must be listed
        assert point in punctured.points
        for depth, prefix, seed in punctured.nodes:
            assert not point.startswith(prefix) or depth > len(point)
            assert seed == straight_line_walk(key.seed, prefix)
        # cover size for one point is exactly the tree depth
        assert len(punctured.nodes) == 6


def test_ggm_empty_puncture_keeps_function():
    key = crypto.ggm_gen(4, 8, rng_for("ggm-empty"))
    for leaf in LEAVES.values():
        with walking_with(leaf):
            punctured = crypto.ggm_puncture(key, set())
            for v in range(16):
                x = crypto.int_to_bits(v, 4)
                assert crypto.ggm_eval_punctured(punctured, x) == straight_line_ggm(key.seed, x, 8)


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
    outputs = []
    for leaf in LEAVES.values():
        with walking_with(leaf):
            punctured = crypto.injective_pprf_puncture(key, {point})
            assert crypto.injective_pprf_eval_punctured(punctured, point) is None
            for v in [0, 1, 77, 128, 199, 201, 255]:
                x = crypto.int_to_bits(v, 8)
                outputs.append(crypto.injective_pprf_eval_punctured(punctured, x))
                assert outputs[-1] == crypto.injective_pprf_eval(key, x)
    assert outputs == outputs[:7] * len(LEAVES)


def oracle_affine(seed: bytes, in_bits: int, out_bits: int) -> tuple[list[int], int]:
    """The columns A_j, leftmost input bit first, and the offset b of the affine map, sliced from its stream."""
    stream = prg_expand(seed, out_bits * in_bits + out_bits, domain=b"aff")
    columns = [int(stream[j : out_bits * in_bits : in_bits], 2) for j in range(in_bits)]
    return columns, int(stream[out_bits * in_bits :], 2)


def oracle_affine_mask(base: str, seed: bytes, x: str) -> str:
    """base xor (A x + b), XORing in the column of every set bit of x."""
    columns, acc = oracle_affine(seed, len(x), len(base))
    for column, bit in zip(columns, x):
        if bit == "1":
            acc ^= column
    return format(int(base, 2) ^ acc, f"0{len(base)}b")


# output widths past 256 and off a multiple of 8 too, where the packed form pads each column
@given(st.integers(min_value=1, max_value=40), st.integers(1, 90) | st.integers(250, 600), st.data())
def test_table_affine_mask_matches_column_xor(in_bits, out_bits, data):
    seed = data.draw(st.binary(min_size=16, max_size=16))
    packed = crypto._derive_affine(seed, in_bits, out_bits)
    # the packed form the native kernels read: each column, then the offset, each _pack-ed
    columns, offset = oracle_affine(seed, in_bits, out_bits)
    assert packed == b"".join(crypto._pack(word, out_bits) for word in (*columns, offset))
    affine = crypto._affine_words(packed, out_bits)
    for _ in range(4):
        x = data.draw(st.text(alphabet="01", min_size=in_bits, max_size=in_bits))
        base = data.draw(st.text(alphabet="01", min_size=out_bits, max_size=out_bits))
        masked = crypto._affine_mask(int(base, 2), affine, int(x, 2))
        assert crypto.int_to_bits(masked, out_bits) == oracle_affine_mask(base, seed, x)


@pytest.mark.parametrize("ell", [1, 10, 36])  # the PE widths 3 ell -> 9 ell; 324 bits at 36 is two blocks
def test_columns_split_from_the_packed_form_match_the_column_oracle(ell):
    key = crypto.InjectivePprfKey(crypto.GgmKey(b"tables-root-key!", 3 * ell, 9 * ell), b"tables-mask-seed")
    columns, offset = oracle_affine(key.mask_seed, 3 * ell, 9 * ell)
    assert key._affine == (tuple(columns[::-1]), offset)  # the column of the rightmost bit of x first
    assert key._packed_affine == crypto._derive_affine(key.mask_seed, 3 * ell, 9 * ell)


def test_injective_pprf_eval_checks_its_input():
    key = crypto.injective_pprf_gen(6, 18, rng_for("inj-check"))
    for bad in ("10101", "1010101", "10101a"):
        with pytest.raises(LengthError):
            crypto.injective_pprf_eval(key, bad)


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
    for leaf in LEAVES.values():
        with walking_with(leaf):
            punctured = crypto.ggm_puncture(key, {point})
            got = crypto.ggm_eval_punctured(punctured, probe)
            if probe == point:
                assert got is None
            else:
                assert got == straight_line_ggm(key.seed, probe, 8)
