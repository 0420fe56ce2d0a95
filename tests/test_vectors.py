"""Known-answer vectors: raw crypto outputs, serialized records, exact API
walks and the experiment artifacts, frozen from the reference implementation.

The crypto values were computed by the straightforward per-node,
per-character code that preceded the fast paths in `crypto`; the exact-walk
values by the per-block loop that preceded the batched walk in `api`.  A
refactor that changes any of them changes the stored keys, tags, circuits or
rows of every user.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

from qwmark import api, cli, crypto, elwm, pe, spectral
from qwmark.crypto import GgmKey, InjectivePprfKey

from conftest import FakeDistribution, keyed_rand, prg_expand, random_program, random_triples, rng_for, sim

ROOT_SEED = b"kat-ggm-root-000"
MASK_SEED = b"kat-affine-mask0"


def _bits(label: str, n: int) -> str:
    return keyed_rand(b"kat-inputs", label.encode(), n)


def _sha(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# expected values
# ---------------------------------------------------------------------------

PRG_EXPAND = {0: "",
 1: "1",
 256: "1110010001000001010110011100101000110111101011101000010011101110111000111011100000000110001010001111001110001111001010000110001110111101010100001001000000101011110010011011111110010011001010110001110111010001111001010101001100001111001110010100001110000100",
 257: "11100100010000010101100111001010001101111010111010000100111011101110001110111000000001100010100011110011100011110010100001100011101111010101000010010000001010111100100110111111100100110010101100011101110100011110010101010011000011110011100101000011100001001"}
PRG_EXPAND_AFFINE_SHA = "3cbd320953de61b054a849f78e07ff5f2bfae171057fff9ee562d0c90c87ea67"
GGM_EVAL = ["0111111011010001", "1001001011110010", "1111001001011110", "0110100010001101", "0010110101110100"]
INJECTIVE_EVAL = ["101100000110000100000111001110001011001101010101100010100000111010001000111011101110010000",
 "010100110010000010000111011101000101010100010101011101101100101000110001111011001111010001",
 "011100000111000111001101101110101001110000000010100101111100001110100011100000000110010110",
 "010001000000011111100100001011001011011110110000001111101010110011000100110110111010010101",
 "111101010000100011100110011000001000011001010101101010111100110010101101001001010010011000"]
GGM_PUNCTURED = [None, None, "0100100001100110", "0000111000011011", "1010011010111000", "1100011011111101"]
INJECTIVE_PUNCTURED = [None,
 "110100010100100111011010101100",
 "011011111001111100010100111011",
 "010111110001100001000010011000",
 "001100101011010100110101001011"]
PE_CIPHERTEXTS = ["011101010001111101000110110010010110100010111110001110011101001110011111010110110101100101110010101101001010100101011000",
 "001010001011010011100011010101001100111110011001010010101101111000100100011001001101101100110000010001100011110100100101",
 "001110000100100011100110011000111001100000001111110100101100000100101001010011100000101101110011011001110011010110000111"]
PE_RANDOM_DEC = [None, None, None]
PRFK_HEX = "5157504b3100050006000c0016004500100078000c0010a76788d3b043b589094cee45fc73914102000a00280016001e005a0010e76601d79361b51e171affdf59e3ee9a0010195f8794c7279a01c29bf87bb002a85d005a000a0010e86dbbf0cfd8e5d9818470ee5e44a3c512dcde0c9d032f9150efd7a19c655f37"
TAG_HEX = "515754473100050006000c004f001000086964656e7469747901000a00280016001e005a0010e76601d79361b51e171affdf59e3ee9a0010195f8794c7279a01c29bf87bb002a85d005a000a0010e86dbbf0cfd8e5d9818470ee5e44a3c512dcde0c9d032f9150efd7a19c655f37"
XK_HEX = "6083ce576a8825f4aedb2d2ad72899ae"
CIRC_HEX = "51574d433100086964656e746974790400050006000c0016004500050078000c0010a76788d3b043b589094cee45fc73914102000a00280016001e005a0010e76601d79361b51e171affdf59e3ee9a0010195f8794c7279a01c29bf87bb002a85d005a000a0010e86dbbf0cfd8e5d9818470ee5e44a3c53130313130"
CIRCUIT_ON_SIM = [(0,
  "101101111110001000011011101000001010100110101011101010001101100010010011011001101110001000010011011011111000111100011111",
  "100111001001",
  "100111001001"),
 (0,
  "001010010110101010100000011000101001111111001111000001011011110100001001011000100001110001011110010000100011110010110100",
  "011111000110",
  "011111000110"),
 (1,
  "000110100010110011110000001000100000000101100010011011001001001000010101001100001110110010110001101001111110111110011001",
  "010011000110",
  "010011000110"),
 (1,
  "000011010001001111111111101000011100111110110111101000111000001100110111010000110111011011101010001011111001101000001000",
  "111111010010",
  "111111010010"),
 (0,
  "011010001001001101100000000010110001011001011010101101001010011110010010100111001111110101001011010011000101100010101010",
  "110101111101",
  "110101111101"),
 (0,
  "011011001100001101010000011011000111110011010111101101100100000001001011111101110011101111000000001011011111100110111001",
  "011100110111",
  "011100110111"),
 (0,
  "101011101100100111010100110000100001000010111000011110101100001101100001111011101010011110110000000111000101011010011101",
  "100010111001",
  "100010111001"),
 (0,
  "111000010100011111101001011110010111001110110011011110100001100011110010011110010001010100010000010001111110000110101111",
  "111111010010",
  "111111010010"),
 (1,
  "110000110001000001110011000001001001000000011011110011101100001000000111000100110110011100001111001000001110011111001110",
  "001111000100",
  "001111000100"),
 (0,
  "101100111110101110100001110111011001111001100010101011111010000101111110111000010111110011101000000101010110010101000111",
  "011100110111",
  "101010000101")]
CIRCUIT_ON_RANDOM = ["111111111000", "011110000110", "110010100111"]
# (s, reverse) -> (t, flush rounds, sha256 of the main-loop and flush bits)
EXACT_WALK = {(1, False): (0, 0, "b9f8bbd8e5da0e74b5ed70d34554a297a3cc8b370a4f5e5784397bd1a0a60e3a"),
 (1, True): (0, 0, "b9f8bbd8e5da0e74b5ed70d34554a297a3cc8b370a4f5e5784397bd1a0a60e3a"),
 (3, False): (105, 7, "196695e622091918d47b9486396ba8b4857e3a750684a4937a85e0c9b21a45f8"),
 (3, True): (19, 2, "0c7ee800afe7719e9c6843e3aa36e85f43f61ceb5f66ab74886ffdea39d62854"),
 (8, False): (53, 1, "f8b69b5cf99d21c81d3855a9cad718b33463ab70330c4b76b9d4ef96c9ea3f8d"),
 (8, True): (79, 1, "ce2e5059dad442567eaaba9e6deb8df109810ca40fe3b749630a740ab0d5785b")}
ROWS_SHA = "b54e3600932edbe1e62c367d5f19517a768ee3aa11e0719e1cb191f2ccc1d982"
SUMMARY_SHA = "01b623fc8a7eaa47cbcbf0ef9d02afb70a3853e2a2832449c6ac74535c547e01"
EXACT_ROWS_SHA = "334bc9c0a5482345f068ebe9a06b01e838ae5ce0f2ce2e41fa93f5328adfd806"
EXACT_SUMMARY_SHA = "9dc741e79bb3994fabd81292166b1f9b1abd08bbec29e581feb479af9d492ece"


# ---------------------------------------------------------------------------
# raw crypto outputs
# ---------------------------------------------------------------------------


def prg_expand_vectors():
    return {n: prg_expand(ROOT_SEED, n) for n in (0, 1, 256, 257)}


def prg_expand_affine_sha():
    # the length of the affine-mask stream for in_bits=30, out_bits=90
    return _sha(prg_expand(MASK_SEED, 90 * 30 + 90, domain=b"aff"))


def ggm_eval_vectors():
    key = GgmKey(ROOT_SEED, 120, 16)
    inputs = ["0" * 120, "1" * 120] + [_bits(f"ggm-{i}", 120) for i in range(3)]
    return [crypto.ggm_eval(key, x) for x in inputs]


def injective_eval_vectors():
    key = InjectivePprfKey(GgmKey(ROOT_SEED, 30, 90), MASK_SEED)
    inputs = ["0" * 30, "1" * 30] + [_bits(f"inj-{i}", 30) for i in range(3)]
    return [crypto.injective_pprf_eval(key, x) for x in inputs]


def _probes(n_bits: int, label: str, points: list[str]) -> list[str]:
    return points + [_bits(f"{label}-{i}", n_bits) for i in range(4)]


def ggm_punctured_vectors():
    key = GgmKey(ROOT_SEED, 12, 16)
    points = [_bits("punct-a", 12), _bits("punct-b", 12)]
    pkey = crypto.ggm_puncture(key, set(points))
    return [crypto.ggm_eval_punctured(pkey, x) for x in _probes(12, "punct-probe", points)]


def injective_punctured_vectors():
    key = InjectivePprfKey(GgmKey(ROOT_SEED, 10, 30), MASK_SEED)
    points = [_bits("inj-punct", 10)]
    pkey = crypto.injective_pprf_puncture(key, set(points))
    return [crypto.injective_pprf_eval_punctured(pkey, x) for x in _probes(10, "inj-probe", points)]


def pe_vectors():
    rng = np.random.default_rng(11)
    keys = pe.pe_gen(10, rng)
    messages = ["0000000000", "1111111111", _bits("pe-m", 10)]
    cts = [pe.pe_enc(keys.ek, m, rng) for m in messages]
    assert [pe.pe_dec(keys.dk, c) for c in cts] == messages
    randoms = [pe.pe_dec(keys.dk, _bits(f"pe-rand-{i}", 120)) for i in range(3)]
    return cts, randoms


def test_prg_expand_vectors():
    assert prg_expand_vectors() == PRG_EXPAND
    assert prg_expand_affine_sha() == PRG_EXPAND_AFFINE_SHA


def test_ggm_eval_vectors():
    assert ggm_eval_vectors() == GGM_EVAL


def test_injective_pprf_eval_vectors():
    assert injective_eval_vectors() == INJECTIVE_EVAL


def test_punctured_eval_vectors():
    assert ggm_punctured_vectors() == GGM_PUNCTURED
    assert injective_punctured_vectors() == INJECTIVE_PUNCTURED


def test_pe_vectors():
    cts, randoms = pe_vectors()
    assert cts == PE_CIPHERTEXTS
    assert randoms == PE_RANDOM_DEC


# ---------------------------------------------------------------------------
# serialized records and the marked circuit
# ---------------------------------------------------------------------------


def cli_records(tmp_path):
    prefix = tmp_path / "kat"
    assert cli.main(["keygen", "--k", "4", "--seed-bits", "6", "--range-bits", "12", "--seed", "7", "--out", str(prefix)]) == 0
    circ = tmp_path / "kat.circ"
    prfk_path = prefix.with_suffix(".prfk")
    assert cli.main(["mark", "--key", str(prfk_path), "--message", "1011", "--out", str(circ)]) == 0
    return {
        "prfk": prfk_path.read_bytes(),
        "tag": prefix.with_suffix(".tag").read_bytes(),
        "xk": prefix.with_suffix(".xk").read_bytes(),
        "circ": circ.read_bytes(),
    }


def circuit_vectors(records):
    tag = elwm.TagIo.from_bytes(records["tag"])
    circuit = elwm.marked_circuit_from_bytes(records["circ"])
    params = tag.params
    on_sim = []
    for i in range(1, params.msg_bits + 1):
        for r in range(2):
            coins = keyed_rand(records["xk"], f"kat-sim-{i}-{r}".encode(), elwm.sim_coin_bits(params))
            gamma, x, y = sim(params, tag, i, coins)
            on_sim.append((gamma, x, y, circuit.run(x)))
    on_random = [circuit.run(_bits(f"circ-rand-{i}", params.domain_bits)) for i in range(3)]
    return on_sim, on_random


def test_serialized_records(tmp_path, capsys):
    records = cli_records(tmp_path)
    capsys.readouterr()
    assert records["prfk"].hex() == PRFK_HEX
    assert records["tag"].hex() == TAG_HEX
    assert records["xk"].hex() == XK_HEX
    assert records["circ"].hex() == CIRC_HEX


def test_marked_circuit_vectors(tmp_path, capsys):
    records = cli_records(tmp_path)
    capsys.readouterr()
    on_sim, on_random = circuit_vectors(records)
    assert on_sim == CIRCUIT_ON_SIM
    assert on_random == CIRCUIT_ON_RANDOM


# ---------------------------------------------------------------------------
# exact API walk
# ---------------------------------------------------------------------------


def exact_walk_vectors():
    """One seeded exact run per (s, reverse) on a fixed 4-dim program.

    Every case with s > 1 ends its main loop on an IsU reject and so takes
    flush rounds; at s = 1 IsU is the identity and never does.
    """
    prog = random_program(4, "kat-exact")
    params = api.ApiParams(0.25, 0.1)
    out = {}
    for s in (1, 3, 8):
        dist = FakeDistribution(random_triples(s, f"kat-exact-{s}"))
        for reverse in (False, True):
            rng = rng_for(f"kat-exact-run-{s}-{int(reverse)}-0")
            _, _, tr = api.api_exact(dist, prog, params, rng, reverse=reverse)
            out[s, reverse] = (tr.t, tr.flush_rounds, _sha("".join(map(str, tr.bits + tr.flush_bits))))
    return out


def test_exact_walk_vectors():
    assert exact_walk_vectors() == EXACT_WALK


# ---------------------------------------------------------------------------
# experiment artifacts
# ---------------------------------------------------------------------------

EXPERIMENT_CONFIG = {
    "k": 2,
    "eps": 0.25,
    "trials": 2,
    "seed": 99,
    "seed_bits": 6,
    "range_bits": 12,
    "delta_prime": 0.05,
    "s": 8,
    "engine": "fast",
    "message": "random",
    "pirates": [
        {"kind": "honest"},
        {"kind": "anti"},
        {"kind": "noisy", "eta": 0.125},
        {"kind": "superposed", "theta": math.pi / 4},
    ],
}


# every trial of this config runs the exact engine (T = 2524 per measurement)
EXACT_EXPERIMENT_CONFIG = {
    "k": 2,
    "eps": 0.5,
    "trials": 2,
    "seed": 17,
    "seed_bits": 6,
    "range_bits": 12,
    "delta_prime": 0.05,
    "s": 4,
    "engine": "exact",
    "message": "random",
    "pirates": [
        {"kind": "honest"},
        {"kind": "coin"},
        {"kind": "noisy", "eta": 0.125},
        {"kind": "superposed", "theta": math.pi / 4},
    ],
}


def experiment_digests(tmp_path, config_dict=EXPERIMENT_CONFIG):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(config_dict))
    out = tmp_path / "run"
    assert cli.main(["experiment", "--config", str(config), "--out", str(out)]) == 0
    return _sha((out / "rows.csv").read_bytes()), _sha((out / "summary.json").read_bytes())


def test_experiment_artifact_digests(tmp_path, capsys):
    rows_sha, summary_sha = experiment_digests(tmp_path)
    capsys.readouterr()
    assert rows_sha == ROWS_SHA
    assert summary_sha == SUMMARY_SHA


def test_exact_experiment_artifact_digests(tmp_path, capsys):
    rows_sha, summary_sha = experiment_digests(tmp_path, EXACT_EXPERIMENT_CONFIG)
    capsys.readouterr()
    assert rows_sha == EXACT_ROWS_SHA
    assert summary_sha == EXACT_SUMMARY_SHA


def test_pinned_digests_hold_with_the_spectral_memo_cleared_and_warm(tmp_path, capsys):
    # the memo is empty when the test starts; the second pass measures on
    # every spectrum the first one left in it
    for memo in ("cleared", "warm"):
        (tmp_path / memo).mkdir()
        assert exact_walk_vectors() == EXACT_WALK
        assert experiment_digests(tmp_path / memo) == (ROWS_SHA, SUMMARY_SHA)
        (tmp_path / memo / "exact").mkdir()
        assert experiment_digests(tmp_path / memo / "exact", EXACT_EXPERIMENT_CONFIG) == (EXACT_ROWS_SHA, EXACT_SUMMARY_SHA)
        if memo == "cleared":
            first = spectral._spectrum.cache_info()
    capsys.readouterr()
    info = spectral._spectrum.cache_info()
    assert info.misses == first.misses and info.hits > first.hits
