"""Golden digests of the ``fragility`` command's output.

Each case runs ``cli.main`` in-process inside its own empty directory, so
paths in manifests are relative, and hashes the exit code, stdout, stderr
and every file left in that directory.  Timing figures (the last CSV column
of curve and bench rows, ``wall_time_s`` and ``median_wall_time_s`` in JSON)
are masked first.  A digest changes only when an output byte changes: a
change meant to alter output updates the table and says why in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

import pytest

from fragility.cli import main

# Two hubs, a triangle, a pendant chain, an isolated node, a label that LP
# export sanitizes and one duplicate edge record (a warning on stderr).
NET = """\
# golden corpus graph
hub-a hub-b
hub-a a1
hub-a a2
hub-a a3
hub-a a4
hub-b b1
hub-b b2
hub-b b3
a1 a2
b1 b2
b2 b3
b3 c1
c1 c2
a4,hub-a  # duplicate
solo
"""

INPUTS = {
    "net.txt": NET,
    "ns.txt": "hub-a\nb2  # protected\n",
    "bad_ns.txt": "nobody\n",
    "ring.txt": "a b\nb c\nc d\nd a\n",
    "loop.txt": "a b\nc c\n",
}

G = ["--graph", "net.txt"]
NS = ["--no-strike", "ns.txt"]

# (case id, argv); each runs once per format in FORMATS unless it sets one
CASES = [
    ("centrality", ["centrality", *G]),
    ("centrality-ns", ["centrality", *G, *NS]),
    ("greedy", ["greedy", *G, "--k", "3"]),
    ("greedy-ns-manifest", ["greedy", *G, *NS, "--k", "3", "--manifest", "run.json"]),
    ("exact", ["exact", *G, "--k", "2"]),
    ("exact-ns", ["exact", *G, *NS, "--k", "3"]),
    ("decision-true", ["decision", *G, "--k", "2", "--x", "0.4"]),
    ("decision-false", ["decision", *G, *NS, "--k", "2", "--x", "0.99"]),
    ("baseline-degree", ["baseline", *G, "--strategy", "degree", "--m", "2"]),
    ("baseline-closeness", ["baseline", *G, *NS, "--strategy", "closeness", "--m", "3"]),
    ("baseline-betweenness", ["baseline", *G, "--strategy", "betweenness", "--m", "2"]),
    ("curve", ["curve", *G, "--max-fraction", "0.3"]),
    ("curve-out", ["curve", *G, *NS, "--strategies", "greedy,degree", "--out", "c.csv"]),
    # an explicit --manifest overrides the <output>.manifest.json default
    ("curve-out-manifest", ["curve", *G, "--max-fraction", "0.2", "--out", "c.csv",
                            "--manifest", "run.json"]),
    ("bench", ["bench", *G, "--strategies", "degree,greedy", "--budgets", "1,2"]),
    ("emit-ip-stdout", ["emit-ip", *G, "--k", "2", "--linearize-i", "2"]),
    ("emit-ip-out", ["emit-ip", *G, *NS, "--k", "2", "--linearize-i", "1",
                     "--out", "m.lp"]),
    ("emit-ip-all-relax", ["emit-ip", *G, "--k", "2", "--all-i", "--relax",
                           "--out-dir", "models"]),
    # no --out-dir: the models go to the current directory
    ("emit-ip-all-prefix-cwd", ["emit-ip", *G, "--k", "2", "--all-i", "--prefix", "p"]),
    # k = N = 12: i = 10..12 leave fewer than three survivors (unscaled
    # objectives), and the protected set adds the c11 rows
    ("emit-ip-all-ns-full", ["emit-ip", *G, *NS, "--k", "12", "--all-i",
                             "--out-dir", "models"]),
    ("synth-stdout", ["synth", "--kind", "scale-free", "--n", "20", "--m", "40",
                      "--seed", "3"]),
    ("synth-out", ["synth", "--kind", "star-of-stars", "--n", "10", "--out", "s.txt"]),
    # synth never reads --graph
    ("synth-graph-ignored", ["synth", "--kind", "random", "--n", "6", "--m", "5",
                             "--graph", "missing.txt"]),
    # exit 1: bad input or usage
    ("no-graph", ["greedy", "--k", "1"]),
    ("usage", ["greedy", *G]),
    ("unreadable-graph", ["greedy", "--graph", "missing.txt", "--k", "1"]),
    ("self-loop", ["centrality", "--graph", "loop.txt"]),
    ("unknown-protected-label", ["greedy", *G, "--no-strike", "bad_ns.txt", "--k", "1"]),
    ("unreadable-protected-file", ["greedy", *G, "--no-strike", "missing.txt",
                                   "--k", "1"]),
    ("negative-k", ["greedy", *G, "--k", "-1"]),
    ("baseline-m-range", ["baseline", *G, "--strategy", "degree", "--m", "99"]),
    ("emit-ip-no-mode", ["emit-ip", *G, "--k", "2"]),
    ("emit-ip-all-k0", ["emit-ip", *G, "--k", "0", "--all-i"]),
    ("curve-bad-strategy", ["curve", *G, "--strategies", "greedy,voodoo"]),
    ("curve-no-strategies", ["curve", *G, "--strategies", ","]),
    ("bench-bad-budgets", ["bench", *G, "--budgets", "1,x"]),
    ("bench-no-budgets", ["bench", *G, "--budgets", ","]),
    # exit 2: infeasible or over the work limit
    ("exact-work-limit", ["exact", *G, "--k", "3", "--work-limit", "5"]),
    ("decision-work-limit", ["decision", *G, "--k", "3", "--x", "0.1",
                             "--work-limit", "5"]),
    ("curve-zero-baseline", ["curve", "--graph", "ring.txt", "--max-fraction", "0.5"]),
    ("synth-infeasible", ["synth", "--kind", "random", "--n", "5", "--m", "99"]),
]
FORMATS = ("text", "json")
# csv is accepted by curve and bench only
CSV_CASES = [
    ("curve-csv", ["curve", *G, "--max-fraction", "0.3", "--format", "csv"]),
    ("bench-csv", ["bench", *G, "--strategies", "degree", "--budgets", "1",
                   "--format", "csv"]),
    ("greedy-csv", ["greedy", *G, "--k", "1", "--format", "csv"]),
    ("synth-csv", ["synth", "--kind", "random", "--n", "5", "--m", "4",
                   "--format", "csv"]),
]

GOLDEN: dict[str, str] = {
    "centrality-text": "524acd7edf238443af043a7c20c7be98f5751a3ca792271715c5145d7bae4b54",
    "centrality-json": "992cfeb430eb4225e0e953ebe3baccfd23da6844a0b4e93063736e978951e4de",
    "centrality-ns-text": "524acd7edf238443af043a7c20c7be98f5751a3ca792271715c5145d7bae4b54",
    "centrality-ns-json": "44529f449ddec324573c59687d82a91a864e3ffecccea2b15de27bd00cc98a77",
    "greedy-text": "8d01128dafbf648b79dd3f9e78afeebc70167eee0ec7306e571dddf6b7ae01da",
    "greedy-json": "49e5dcd2de0ce6d46d19d0152843acda682748af6df5b195064ecded0561db22",
    "greedy-ns-manifest-text": "30f6fe4e74d5e7148e25dcbab87df1cfe48f76ef4a4f0258e0d214023fe8aac4",
    "greedy-ns-manifest-json": "cc2ccc3b9dc8435c5fc0858b113a075411ebba5e043ce737463d819c4ea4fac1",
    "exact-text": "596b88c32b01f84f246b8c0d9bd709d6f4eb2a5ad9b515451df52c584cc4a97b",
    "exact-json": "003af77331997f2b446d446de6718af907681d12e74ac7d7b782271a3fcd981f",
    "exact-ns-text": "26c06f70ad791b4f4a29e5f67bc2e8c9782733c9c7ef9781c29c5f05efdfae7d",
    "exact-ns-json": "dde3166bcc62e9c80e57fc27171be1c9f7042a036a3910e8808215a5b843de82",
    "decision-true-text": "354a1111c3ebbd47cd82815dc2020ac48453074f50d2e8df471a054230ffb8f3",
    "decision-true-json": "21cc2c316f1c369e6e437ec0962726d2d4bf1669557518a4b3139280e015090d",
    "decision-false-text": "c1d7642b2908e740df55c58a650b221c6f4fe02d92d367ee68fe5acb75ce2487",
    "decision-false-json": "e0eb5843916b76d17ae454b2d361733b3069a94a2ded249d7959c25ec20ba004",
    "baseline-degree-text": "67642fb5f1cf56e75778f06ca8a9e0b8be9536006f541f1d3135ecc226a6562e",
    "baseline-degree-json": "287d4eb59a2fd880935581a62ec6f5e671f85f90187a28f19dc8e9b476963f98",
    "baseline-closeness-text": "232f6b2e4569eb860c7a557dd47f50d0c37ae6070a860c591d2494cffdbba442",
    "baseline-closeness-json": "9b5223108401ff43eefcd34e743eccc93df6635eaba5bd2a5f5b1ea1e3a1e0dc",
    "baseline-betweenness-text": "ec1ccc541e50b02e5fe021e06e340689e167c90c5fa4d89b4942a2bca1889538",
    "baseline-betweenness-json": "65d9a4695d70f2a817b557f42dc7d6f222ee69ce63e85570f235f1fa292f2002",
    "curve-text": "14fbabb7f26514a171ff5d41369054de9fb3271ca5169d73af78aa699d7df5cb",
    "curve-json": "ff8f3d03b9aab039f4c7419fa2b6e5fb1668ce81150bb93f01e7a0aefb9eec2c",
    "curve-out-text": "fdda3f4321cea5d179bf02acaed9eb7fbe2b789a4cb2d2556234aa3c41759295",
    "curve-out-json": "98b4cc2af9eefb1ed1dd550d0f5f33d147f1852ba8f64d18c2e39116530ba0ec",
    "curve-out-manifest-text": "2ca09c68f84d46424dfe20c842c10b82f9551b9cac1bb086df98024d5e09041d",
    "curve-out-manifest-json": "703cf839815ca9e26f0ec3d1532fd10141538a171f329f634d11d54c51d59361",
    "bench-text": "dce7af62d7dd87ae3ca8429cb3e9f7acd984c8164de0737f230661f4d955549e",
    "bench-json": "cfdbcfc02a73b7198f78da332f219a059a3981c5d011a134b8ea833e46a03cde",
    "emit-ip-stdout-text": "dd0d96375aceafd21f86e79a426a6f5b5fe6d76e5aeb3a00b4b04053a98290e0",
    "emit-ip-stdout-json": "63d3371a463ff21ae2f2826ce619a50793d10739a35434ded094b22be44b0601",
    "emit-ip-out-text": "aee2a0a77a0d1c8c3ca426048e8e765f9c73f78d6bcea4d4f1e42ba10ee465fa",
    "emit-ip-out-json": "0a818b8076a1b6e418168f7d25e2b2f97df929c29135145e67ebabd8119141e3",
    "emit-ip-all-relax-text": "f478548ef633eacd2918f5efe71d82ff1ad69739f20860b3215e4f7e2f592a4f",
    "emit-ip-all-relax-json": "7f6334f0bf6bac8b4e558a523a63f384d3676222cd0e31c113b6952189551d47",
    "emit-ip-all-prefix-cwd-text": "8a54fca485247cb9f93a25c13a582e4c532458614e4d414b5a8b28c5353568ab",
    "emit-ip-all-prefix-cwd-json": "ae9d53b3dbfa102fc7616fbf1a16e58f12c494abac3c343b639a3bd13c9d5c47",
    "emit-ip-all-ns-full-text": "b70b7310bff81808dac30ff9c38bd00f4fb79745bfe51445f102dbe894406777",
    "emit-ip-all-ns-full-json": "7000e9b132e78c05e4032fb6407e23233272ca4f740793f02e0fdb9168ea1106",
    "synth-stdout-text": "804d1b754916f50bfabcb4260229ab6c76783c85a617374c2dd601699ed31f69",
    "synth-stdout-json": "456e02262576085b911e1675f210c8f8e9fcbb4758b1049aa4c1ae69c3fa08d7",
    "synth-out-text": "1399308abcaa5bd60d2c4c040e4858aeb5bcf743a8489b96531158915c9fcfea",
    "synth-out-json": "ebc002f456e5024de22cf21d74b00efb858cd1154f3428985f4dfcb5cf5817f9",
    "synth-graph-ignored-text": "905663c2476eda4fd01ae9b8a5c36c1a5a8c93948b143a50677298505013af0b",
    "synth-graph-ignored-json": "3fe26f458fc19fbe6dcfb1d78f06db7442140e6c8efe62b0fafec2af7bd6a517",
    "no-graph-text": "c8db9d4ea64ada666bdf72f6109b33a55cf5eecd25163cc35dc6244ab71838bf",
    "no-graph-json": "c8db9d4ea64ada666bdf72f6109b33a55cf5eecd25163cc35dc6244ab71838bf",
    "usage-text": "8a6e2bcf0c6dc3d0fb4d33ecd05059292f66705a41772f3b528318a22dd8896b",
    "usage-json": "8a6e2bcf0c6dc3d0fb4d33ecd05059292f66705a41772f3b528318a22dd8896b",
    "unreadable-graph-text": "5e4b350dd31ea677e70e0ff464def658bee636f8160f6d4c7cb7c8099fd0be83",
    "unreadable-graph-json": "5e4b350dd31ea677e70e0ff464def658bee636f8160f6d4c7cb7c8099fd0be83",
    "self-loop-text": "eee8f1e16ae28f47af40872d5e4811557482cd158cff02762ed04d060feb1e19",
    "self-loop-json": "eee8f1e16ae28f47af40872d5e4811557482cd158cff02762ed04d060feb1e19",
    "unknown-protected-label-text": "95ff55e91ffbeb0a7f830bdea3deea2f505ac68e69e056ee3cec734426b0e9fe",
    "unknown-protected-label-json": "95ff55e91ffbeb0a7f830bdea3deea2f505ac68e69e056ee3cec734426b0e9fe",
    "unreadable-protected-file-text": "a5b615838ce1003c8fb3ef4af44023aae749676dd840ee3597b4275b1f1199c6",
    "unreadable-protected-file-json": "a5b615838ce1003c8fb3ef4af44023aae749676dd840ee3597b4275b1f1199c6",
    "negative-k-text": "22ef8165a2d545b542961cdb6b9429848f8b7653bd825986e41ca19c58f99b44",
    "negative-k-json": "22ef8165a2d545b542961cdb6b9429848f8b7653bd825986e41ca19c58f99b44",
    "baseline-m-range-text": "be416ef2768b908d82cef7608fd315bb2fd55a578b0aa80ac46cd62c74595dac",
    "baseline-m-range-json": "be416ef2768b908d82cef7608fd315bb2fd55a578b0aa80ac46cd62c74595dac",
    "emit-ip-no-mode-text": "d612d0f0268c83088d8edd651a3f6d451a11d5bb2f416403e16b87e33d0b656b",
    "emit-ip-no-mode-json": "d612d0f0268c83088d8edd651a3f6d451a11d5bb2f416403e16b87e33d0b656b",
    "emit-ip-all-k0-text": "46d51b898dda98359f4db91945c8945a097d3431ac325588572077327e2521f1",
    "emit-ip-all-k0-json": "46d51b898dda98359f4db91945c8945a097d3431ac325588572077327e2521f1",
    "curve-bad-strategy-text": "fd7f2a0da9b6b887d7f2f0ea1515199849513ba2a4f9012f322d7fc8ee4ef392",
    "curve-bad-strategy-json": "fd7f2a0da9b6b887d7f2f0ea1515199849513ba2a4f9012f322d7fc8ee4ef392",
    "curve-no-strategies-text": "9c6cab10a87e165583e2e78259479a774843269576c94ab0046345df554b79c8",
    "curve-no-strategies-json": "9c6cab10a87e165583e2e78259479a774843269576c94ab0046345df554b79c8",
    "bench-bad-budgets-text": "c142a3f4afed902aa3afd5223c83d06d1ee2dfd2d92eeec05837016fc817eb45",
    "bench-bad-budgets-json": "c142a3f4afed902aa3afd5223c83d06d1ee2dfd2d92eeec05837016fc817eb45",
    "bench-no-budgets-text": "ab51549a4303f54a96e46c339289d27a67cfc657647217ab76e7fb7408513441",
    "bench-no-budgets-json": "ab51549a4303f54a96e46c339289d27a67cfc657647217ab76e7fb7408513441",
    "exact-work-limit-text": "673d377b65fabee2a0635e894fcf1a1e8cb2d734847869da0f4d93d3a97c9e57",
    "exact-work-limit-json": "673d377b65fabee2a0635e894fcf1a1e8cb2d734847869da0f4d93d3a97c9e57",
    "decision-work-limit-text": "673d377b65fabee2a0635e894fcf1a1e8cb2d734847869da0f4d93d3a97c9e57",
    "decision-work-limit-json": "673d377b65fabee2a0635e894fcf1a1e8cb2d734847869da0f4d93d3a97c9e57",
    "curve-zero-baseline-text": "ad3060632481096a0b0900ae23db3618ecd1a435c548c8042ad84a8b00ebe499",
    "curve-zero-baseline-json": "ad3060632481096a0b0900ae23db3618ecd1a435c548c8042ad84a8b00ebe499",
    "synth-infeasible-text": "0108a085bcc6f5d20539c6842a1d7d659850cfad9cde46b4144a6e686249ade5",
    "synth-infeasible-json": "0108a085bcc6f5d20539c6842a1d7d659850cfad9cde46b4144a6e686249ade5",
    "curve-csv": "14fbabb7f26514a171ff5d41369054de9fb3271ca5169d73af78aa699d7df5cb",
    "bench-csv": "bbaddd820109e1a3c4099a57bba924db1780b444de171294d28986515e1513e2",
    "greedy-csv": "deba58457c83c80acd44446be4bf876d5d68775e9cd0ca5cda8f6ad8347b503e",
    "synth-csv": "deba58457c83c80acd44446be4bf876d5d68775e9cd0ca5cda8f6ad8347b503e",
}

_STRATEGY_ROW = re.compile(
    r"^((?:betweenness|closeness|degree|greedy),.*),[-0-9.e]+$", re.M)
_JSON_TIME = re.compile(r'("(?:median_)?wall_time_s": )[-0-9.e]+')


def _mask(text: str) -> str:
    return _JSON_TIME.sub(r"\1*", _STRATEGY_ROW.sub(r"\1,*", text))


def _params():
    for case, argv in CASES:
        for fmt in FORMATS:
            yield pytest.param(argv + ["--format", fmt], id=f"{case}-{fmt}")
    for case, argv in CSV_CASES:
        yield pytest.param(argv, id=case)


@pytest.mark.parametrize("argv", _params())
def test_cli_output_digest(argv, request, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to this width
    for name, text in INPUTS.items():
        Path(name).write_text(text, encoding="utf-8")
    code = main(argv)
    out, err = capsys.readouterr()
    files = {str(p.relative_to(tmp_path)): _mask(p.read_text(encoding="utf-8"))
             for p in sorted(tmp_path.rglob("*")) if p.is_file()}
    record = {"exit": code, "stdout": _mask(out), "stderr": err, "files": files}
    blob = json.dumps(record, sort_keys=True).encode("utf-8")
    assert hashlib.sha256(blob).hexdigest() == GOLDEN[request.node.callspec.id]
