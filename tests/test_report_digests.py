"""Golden digests of whole CLI runs: exit code, stdout, stderr and report.

Each invocation runs ``cli.main`` in-process, in a directory holding the
presentation files, with ``--output report.json``.  Its digest is the SHA-256
of the exit code, stdout, stderr and the report text, with every
``"elapsed_s": <number>`` replaced by a fixed token.  A change that means to
keep every report byte-identical must keep every digest; a change that means
to alter output updates ``DIGESTS`` from the failure messages.
"""

import hashlib
import json
import re

import pytest

from fourfree.cli import main
from fourfree.verifier import SHIPPED_SAMPLES

PRESENTATIONS = {
    "z2_z6.pres": "generators: 2\nrelations:\n2 0\n0 6\n",
    "z4.pres": "generators: 1\nrelations:\n4\n",
    "z3_z5.pres": "generators: 2\nrelations:\n3 0\n0 5\n",
}


def window_flags(spec) -> list:
    """``verify`` flags that select the sample window ``spec``."""
    sig = spec.signature
    return [
        "--signature", f"prufer={','.join(map(str, sig.prufer_factors))};s={sig.s};r={sig.r}",
        "--free-mode", sig.free_mode,
        "--prufer-depth", str(spec.prufer_depth),
        "--q-bound", str(spec.q_numerator_bound),
        "--q-den-bound", str(spec.q_denominator_bound),
        "--mode", spec.mode,
        "--count", str(spec.count),
        "--seed", str(spec.seed),
    ]


CASES = {
    **{f"verify-{name}": ["verify", *window_flags(spec)] for name, spec in SHIPPED_SAMPLES.items()},
    **{
        f"verify-{name}-drop-{layer}": ["verify", *window_flags(SHIPPED_SAMPLES[name]), "--drop-layer", layer]
        for name, layer in (("d-layer", "d"), ("y-layer", "y"), ("t-block", "halvable"))
    },
    # the benchmark's search cases
    "search-4,4-min": ["search", "--group", "4,4", "--min-colours"],
    "search-16-min": ["search", "--group", "16", "--min-colours"],
    "search-27-min": ["search", "--group", "27", "--min-colours"],
    "search-3,9-min": ["search", "--group", "3,9", "--min-colours", "--budget", "3000000"],
    "search-32-3": ["search", "--group", "32", "--colours", "3", "--budget", "2000000"],
    "search-4,4,2-3": ["search", "--group", "4,4,2", "--colours", "3", "--budget", "2000000"],
    "demo-4,4": ["demo", "--group", "4,4"],
    "colour": ["colour", "--signature", "prufer=3,5;s=2;r=2", "d:{};t:00;q:(0,0)",
               "d:{0=1/9,1=2/5};t:01;q:(0,3/2)", "d:{1=4/25};t:10;q:(-1/2,2)"],
    **{
        f"{command}-{name.removesuffix('.pres')}": [command, "--input", name]
        for command in ("analyze", "embed", "verify")
        for name in PRESENTATIONS
    },
}

DIGESTS = {
    "verify-demo-default": "d37b38218d7a27aa3c2b4ab61cf4c57d2e406322afcb762aa0b0933d49e02694",
    "verify-depth-two": "5a4eba81d2dd99187f18cff1944268acde18b8f56ea8c2bf03343655b118c27c",
    "verify-main-sweep": "edddd75a84f51882ddbcd02b0a68efa32f619769d3add4c3f0051356fe96385f",
    "verify-t-block": "5464a0f8e48e289ac408e81ab6be842577a5d1fe5f39fac99b07ec48874952a6",
    "verify-d-layer": "285f9afaaf0c77381226e7cf6457ea7bef137b8de66ae7c087f9939604632b7b",
    "verify-y-layer": "6e5e2bb4818804a18ba6c8bd9b8c545fe98cc86eb3102c950c46173ce026eea0",
    "verify-odd-square": "83fd8cdc19077102a7134929154aba80c17ea60825aeeeb1913ff45bb8145fea",
    "verify-integer-free": "daa74afb49d1ad519067954a03aa6569de537fe89ac2c49c1925e3ea2c9faae0",
    "verify-d-layer-drop-d": "60843e62eadb99d4d8635302aa09bef118ec1259c6e027f683ad0ef81c1c1e5b",
    "verify-y-layer-drop-y": "bc92c5325d08ee040d242c46153b47f944125c01ebf1b5d542ff5f8010271f88",
    "verify-t-block-drop-halvable": "62a01352c2582745eabca98b124d18bc5626af90864c7cbbe5107f96068cac5b",
    "search-4,4-min": "7accd8b37817c56ad665747b631e95140cb829b7232a73affaedaed2795e1490",
    "search-16-min": "4f3b05d211d6af505a2dc70e38552d7e51bde0860f08fb70b566d413d41ac543",
    "search-27-min": "debc5675979f2c731c48862806389b3ec3ee2210604bb69a3b0429c6b05599c4",
    "search-3,9-min": "c3931d685a0de1cb6f584efb4733218a91c4aa2df4162b33214704992a9050d7",
    "search-32-3": "55a4974970f74ef8e891801894a5e59a6fd3c6edac6b9f64faae19693026045d",
    "search-4,4,2-3": "01d15bb4ac5d679a1c3309a58fe714311f6fbb9caf668166bb39a9e67ab92c54",
    "demo-4,4": "74b147cd382c0826fd9153e6d9aeaefc54a6c862c66989510118d0370a190f68",
    "colour": "0c9163256e2289873c18c156e7b361a886782867d5b1674a515380d9c247aff6",
    "analyze-z2_z6": "da986f6c70ac4f79ddb0eadbad8b25a16b93980f9a086723dd4d339d33a962ad",
    "analyze-z4": "2982b519f4d332e4eb2a5154ffbb640bf210e5b9f719c89341f1d5d5338b396e",
    "analyze-z3_z5": "e7cd5daaff20d9ebd835ce6af3a1c33f0ff85f37fb4f5522cb9caf2a775e2dfd",
    "embed-z2_z6": "b33e97f1a39cdfec96f01942ebb140f998dd948b8169fd0b02fbea8802d4466d",
    "embed-z4": "437941c0ac3c92b794af02938cb74816e286acaded77c15cc9a12ca7102f393e",
    "embed-z3_z5": "6754167fa2f0a8d6af25e95d57acbf434a6f615979869c267ac2e670a358f88e",
    "verify-z2_z6": "da542b5a9f02dc9f06aa535a335c201c430549702bee1d8bad09ace5adac5be5",
    "verify-z4": "8ed270e9dbb2a87bbdf44948ab81d4cc9eff1efb4f6f2dd32121d89835c71cb3",
    "verify-z3_z5": "1fc09fd1e2fb645509223728923dd8b38d3aaf16585e8b217c79dc10d0311027",
}


@pytest.mark.parametrize("name", list(CASES))
def test_report_digest(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for file_name, text in PRESENTATIONS.items():
        (tmp_path / file_name).write_text(text, encoding="utf-8")
    code = main([*CASES[name], "--output", "report.json"])
    out, err = capsys.readouterr()
    report = (tmp_path / "report.json").read_text(encoding="utf-8")
    report = re.sub(r'"elapsed_s": [-+.\deE]+', '"elapsed_s": "<elapsed>"', report)
    digest = hashlib.sha256(json.dumps([code, out, err, report]).encode()).hexdigest()
    assert digest == DIGESTS.get(name), f'"{name}": "{digest}",'


def test_every_case_has_a_digest():
    assert set(DIGESTS) == set(CASES)
