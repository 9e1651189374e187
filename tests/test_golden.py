"""Golden outputs: the byte-stable files of `surelock run` are pinned.

Each case runs the CLI and compares the sha256 of `trace.jsonl` and
`summary.json` with the digests below. The matrix covers every mode on the
README toy model and on a grouped-K/V model with blocks and the unlock
protocol on, at two seeds, plus one temperature-1.0 run. A change that is
meant to keep outputs (a refactor, a faster kernel) must keep these bytes; a
change that is meant to move them must update the digests and say why.
"""

import hashlib
import json

import pytest

from surelock.cli import DEFAULT_MODEL, main

MODES = ("baseline", "surelock", "selection", "hybrid")

CONFIGS = {
    "toy": {
        "model": DEFAULT_MODEL,
        "weights_seed": 1234,
        "run": {"n_prompt": 16, "n_gen": 16, "steps": 16},
        "policy": {"epsilon": 5e-3, "hybrid_fraction": 0.5},
    },
    "gqa": {
        "model": {"vocab_size": 24, "d_model": 32, "n_layers": 2, "n_heads": 4, "n_kv_heads": 2,
                  "d_ff": 48, "max_seq": 64},
        "weights_seed": 4321,
        "run": {"n_prompt": 8, "n_gen": 16, "steps": 16, "block_length": 8},
        "policy": {"epsilon": 5e-2, "percentile": 50.0, "hybrid_fraction": 0.5, "unlock_enabled": True,
                   "probe_period": 2, "epsilon_unlock": 1e-12, "min_locked_duration": 1,
                   "relock_cooldown": 2},
    },
}

# (config, mode, seed, temperature) -> (sha256 of trace.jsonl, sha256 of summary.json)
GOLDEN = {
    ('toy', 'baseline', 0, 0.0): (
        'cf0792a5087afdfc8f85c72cc3257e29c55f12b3c23143a9b370024ba77633a2',
        '3fb9437018d73e67ddd6e3a7ca0084efd44beedbfc0e15e72075c84d794124de',
    ),
    ('toy', 'baseline', 1, 0.0): (
        '015666c0026c45a809578df470f50767779ddaf12e7d8aebd1381d31cddb4763',
        'd957759bc87721f2546abe0157065b4966b6e03e83c352f4ada6a3ca6871076f',
    ),
    ('toy', 'surelock', 0, 0.0): (
        '4c2f7eb6031105a00dc110a627b063c01f7ffd0cd484f083dd99d6cedb9dee40',
        '544305d0f46659b849ede0faf55a0e914baac878af240b08d9848d21c2ab367b',
    ),
    ('toy', 'surelock', 1, 0.0): (
        '29edc8ab65cb322f83400e1ce2cc6f68b61c43796a3eef377428d6fec8825758',
        '7cb19aee988fd8029eef6ae4e3e907f89262c1f80593c8ce3261403016577e85',
    ),
    ('toy', 'selection', 0, 0.0): (
        '2a03906fbd228eaeb1bc9181027e6834d9fb5916d0e63d1aefdd96e692422c0a',
        '6ffd480b02d11a64e740efa33f69a90e7fdf22b513d0c0a6ceb2ba008b1b0657',
    ),
    ('toy', 'selection', 1, 0.0): (
        'dbe12bf627ff59eb04be37f8bc947934318ffe059b17e0ea1bea76ddd83e8df9',
        '0602676880345190b66aac2f7b9a9bdb1ac0dd4523b4f09b2d68407915ad42f7',
    ),
    ('toy', 'hybrid', 0, 0.0): (
        '96c64f4e0851ddbec7804806fc09423d69034ebe28025270468149de985c4d6f',
        'b746040e9477ed0668f0fa70162a5e742fd9f76c941dde93fe86645458d14c54',
    ),
    ('toy', 'hybrid', 1, 0.0): (
        '4065c3b08c46102123210c9bfce38d19da926aec5ef3f0a7d2b602b00aafeee5',
        '487f039efef3ee780ef072bdcc0b39efe727298deddee75c9ab0ff29c0868508',
    ),
    ('gqa', 'baseline', 0, 0.0): (
        '2b8b6cc73622868e3a1139a8bad07dfc64ee724ad77692adc53888697b3dd95c',
        'fa1cd635bdeb9933fac64620f5548b51e8870fbdcd4c79be2f22760447e991e9',
    ),
    ('gqa', 'baseline', 1, 0.0): (
        'f56c71026347d8579c6618b81ec2fb3bf91c1d8d33556342ef2a8cf98351174d',
        '199d1627ba960c5ce67434882ff0542207b7ef6b8aa51b994b64b20df48ed917',
    ),
    ('gqa', 'surelock', 0, 0.0): (
        '9f0984aafb3f0d75b06d4edd72510cc68674b4fd72a1258375de6bb412634a25',
        '11f1d47d2f471741c29de410af5a3c3a36d894a7c17c3dfdcdd5b7d07da60147',
    ),
    ('gqa', 'surelock', 1, 0.0): (
        '19501ce243bff63fd0c4468bddec2ee688dd8a80cbe82ca4afefbc97d9f666ea',
        '333a0430c60b3f88e11472c7d9178d93b0efc82a59e1e38ddb8f9950aaaad3da',
    ),
    ('gqa', 'selection', 0, 0.0): (
        'c0d377377f57d7eb2b381c2ad22716f2e16489e8454b60269799c6f1d96627c6',
        '9eec2317b368d9131986f0cf262f0a68471028b5be01bf4f8915239838205dd3',
    ),
    ('gqa', 'selection', 1, 0.0): (
        '135883543a8cc4882af924fe90710f746a8feca0ab53c4a624ad1b3d63b15ef1',
        'aa3c868d81fd2e111fdfe71c8be13a43241867b5bdf426a0536710076c3dcc7c',
    ),
    ('gqa', 'hybrid', 0, 0.0): (
        'd6808e0a1743d506c3aa59848f8f1f41db728805a957eb9de42a53fb37a94a3d',
        '231654beacab93d2e4cc63a91813bd8505be3796633ffb280e6b537dadb5e614',
    ),
    ('gqa', 'hybrid', 1, 0.0): (
        '0227acb3a6eefe38881fa708769a76584eec369d7524b2880b60658a36a0d734',
        '0facd20021a855113af964859b55ddc434adb2c32d45c116fd264454ede88c05',
    ),
    ('gqa', 'hybrid', 0, 1.0): (
        'e5051be72b83dca1e8c113c56c2040f430925ad22006101b79433fb7df46f8cf',
        '9400c139f609e2b3df2f66cd6b2ca8ce89b32cde34686f55393fdb2781488560',
    ),
}

CASES = sorted(GOLDEN)


def run_case(tmp_path, config: str, mode: str, seed: int, temperature: float):
    path = tmp_path / f"{config}.json"
    path.write_text(json.dumps(CONFIGS[config]))
    out = tmp_path / "out"
    argv = ["run", "--config", str(path), "--mode", mode, "--seed", str(seed),
            "--temperature", repr(temperature), "--out", str(out)]
    assert main(argv) == 0
    return (out / "trace.jsonl").read_bytes(), (out / "summary.json").read_bytes()


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_matrix_covers_modes_configs_and_seeds():
    assert {(c, m, s) for c, m, s, temp in CASES if temp == 0.0} == {
        (c, m, s) for c in CONFIGS for m in MODES for s in (0, 1)
    }
    assert any(temp == 1.0 for *_, temp in CASES)


@pytest.mark.parametrize("case", CASES, ids=lambda c: "-".join(map(str, c)))
def test_golden_bytes(tmp_path, case):
    config, mode = case[:2]
    trace, summary = run_case(tmp_path, *case)
    assert (sha256(trace), sha256(summary)) == GOLDEN[case]
    if config == "gqa" and mode in ("surelock", "hybrid"):
        # the unlock path is pinned only if these runs really take it
        kinds = [e["kind"] for e in json.loads(summary)["lock_events"]]
        assert "unlock" in kinds and "relock" in kinds
