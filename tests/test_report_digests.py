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
    "z2_z.pres": "generators: 2\nrelations:\n2 0\n",
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
    ]


CASES = {
    **{f"verify-{name}": ["verify", *window_flags(spec)] for name, spec in SHIPPED_SAMPLES.items()},
    **{
        f"verify-{name}-drop-{layer}": ["verify", *window_flags(SHIPPED_SAMPLES[name]), "--drop-layer", layer]
        for name, layer in (("d-layer", "d"), ("y-layer", "y"), ("t-block", "halvable"),
                            # reports of many write batches (depth-two) and of just over one (demo-default)
                            ("depth-two", "halvable"), ("demo-default", "halvable"))
    },
    # the benchmark's search cases
    "search-4,4-min": ["search", "--group", "4,4", "--min-colours"],
    "search-16-min": ["search", "--group", "16", "--min-colours"],
    "search-27-min": ["search", "--group", "27", "--min-colours"],
    "search-3,9-min": ["search", "--group", "3,9", "--min-colours", "--budget", "3000000"],
    "search-32-3": ["search", "--group", "32", "--colours", "3", "--budget", "2000000"],
    "search-4,4,2-3": ["search", "--group", "4,4,2", "--colours", "3", "--budget", "2000000"],
    "demo-4,4": ["demo", "--group", "4,4"],
    "demo-3,9": ["demo", "--group", "3,9"],  # no order-4 element: no witness
    "search-4-2": ["search", "--group", "4", "--colours", "2"],
    "search-4-1": ["search", "--group", "4", "--colours", "1"],
    "embed-z2_z-integer": ["embed", "--input", "z2_z.pres", "--free-mode", "integer"],
    "colour": ["colour", "--signature", "prufer=3,5;s=2;r=2", "d:{};t:00;q:(0,0)",
               "d:{0=1/9,1=2/5};t:01;q:(0,3/2)", "d:{1=4/25};t:10;q:(-1/2,2)"],
    **{
        f"{command}-{name.removesuffix('.pres')}": [command, "--input", name]
        for command in ("analyze", "embed", "verify")
        for name in PRESENTATIONS
    },
}

DIGESTS = {
    "verify-demo-default": "8659c3cf74d72f44b8a1cdbcc91c81518038b000a27b40b9c9e0b24f2bb07b3d",
    "verify-depth-two": "460f28ea78acdbd5b0a7d69c6ffa2861d8233cdaa16ae511ae7f58bb2c30eb8a",
    "verify-main-sweep": "fc4dfeffebccc589a010b1dd0578178ffce09c64664e7a6e541a2a5e2469f280",
    "verify-t-block": "3c7e877b6e773191785e4d2b1e24cd157181ff6a5a2681c430341354ee93f550",
    "verify-d-layer": "b2e7eaf03bf8788860dc12de83951d67ea27b218e7cf59d833ebba6cfa2bd4d7",
    "verify-y-layer": "97724f904b5a5bb4784f1e47fd9544583c949f1ec6b7cc722d2b8267316f0dfc",
    "verify-odd-square": "248532e344d91efe8b398f48760156f5169084464a4931dc454494425e566493",
    "verify-integer-free": "5623411c6289f583a04d1f3189365079696f3b3cba35cd60332191a17631ca02",
    "verify-d-layer-drop-d": "7a4d61db97ccb922afb767add2a8663ffc6b4577b6704d6b57455ff17516459d",
    "verify-y-layer-drop-y": "bc40ef40676aa209472d4baa2a8c8169b4fdb9880754efeda1254ff4be6cd3c3",
    "verify-t-block-drop-halvable": "e56d120f42caca497ec13228b6f1d12295c72efc030845618ca55e10af152d8b",
    "verify-depth-two-drop-halvable": "bbf0805064a7833e1626b1a1ad97bf951c3914b2bb80956772917b34ec514ecd",
    "verify-demo-default-drop-halvable": "180856fc3406855e452728db63727d6af80a5cbf7ad9657754a97e2c975ce40d",
    "search-4,4-min": "7accd8b37817c56ad665747b631e95140cb829b7232a73affaedaed2795e1490",
    "search-16-min": "4f3b05d211d6af505a2dc70e38552d7e51bde0860f08fb70b566d413d41ac543",
    "search-27-min": "debc5675979f2c731c48862806389b3ec3ee2210604bb69a3b0429c6b05599c4",
    "search-3,9-min": "c3931d685a0de1cb6f584efb4733218a91c4aa2df4162b33214704992a9050d7",
    "search-32-3": "55a4974970f74ef8e891801894a5e59a6fd3c6edac6b9f64faae19693026045d",
    "search-4,4,2-3": "01d15bb4ac5d679a1c3309a58fe714311f6fbb9caf668166bb39a9e67ab92c54",
    "demo-4,4": "74b147cd382c0826fd9153e6d9aeaefc54a6c862c66989510118d0370a190f68",
    "demo-3,9": "9a5606bd9924f460aa94ddd04c225f263d3c5936ac53485f266011a66b9cb3e0",
    "search-4-2": "f92c6d846ea2ccc3d18d2fb7a5debbd4f4b49b5e89d4b18b4e7e3966242e313a",
    "search-4-1": "7f01bec06421b3239df9dd7af20deeec59c6971caf4cbebeed7d1fd1a6193ad5",
    "embed-z2_z-integer": "12a71a4472105b54f78beafc635d9b24ddc7d5af92f1fde5aa9f6c4b79fb1950",
    "colour": "0c9163256e2289873c18c156e7b361a886782867d5b1674a515380d9c247aff6",
    "analyze-z2_z6": "da986f6c70ac4f79ddb0eadbad8b25a16b93980f9a086723dd4d339d33a962ad",
    "analyze-z4": "2982b519f4d332e4eb2a5154ffbb640bf210e5b9f719c89341f1d5d5338b396e",
    "analyze-z3_z5": "e7cd5daaff20d9ebd835ce6af3a1c33f0ff85f37fb4f5522cb9caf2a775e2dfd",
    "embed-z2_z6": "b33e97f1a39cdfec96f01942ebb140f998dd948b8169fd0b02fbea8802d4466d",
    "embed-z4": "437941c0ac3c92b794af02938cb74816e286acaded77c15cc9a12ca7102f393e",
    "embed-z3_z5": "6754167fa2f0a8d6af25e95d57acbf434a6f615979869c267ac2e670a358f88e",
    "verify-z2_z6": "4d7b811f0806c4805d9ccef8c7f8e8d83d11c8b42487dda4e6a606b7b4883433",
    "verify-z4": "8b1e758aec08e24ffa4aea3584d66aad50692c19fbd380282ad1301e5f534b83",
    "verify-z3_z5": "5fd5e954fb136ae33d401038fa1d94c721fcdb26a9579206eb4d78e32f2b02ee",
    "analyze-z2_z": "62a3d332447897b3eb89c97a181e9ca1ded62c3af6ef6221e132798bdf6f7221",
    "embed-z2_z": "9ffb150a7143d73b3036c1fa91ef3e310073551e07cce11599df230d2793cdab",
    "verify-z2_z": "bbebebf23c25fef5ae92ee5971368a2b63c4a38cbd8fc16cc7d74a059f950a99",
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
