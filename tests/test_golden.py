"""Pinned `rescheck solve` output on seeded random instances.

Each case is one seeded random instance run through every --algorithm
under three budget settings, which together reach every route, team
witnesses from every rung, refusals (exit 2) and budget failures
(exit 3). The SHA-256 of all those runs' exit codes, stdout and stderr
is pinned, so a refactor that changes a single verdict, witness, node
count, route name or error message fails here.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from rescheck import INF, emit_instance, random_instance
from rescheck.cli import main

ALGORITHMS = ("auto", "dp", "ilp", "branch", "reduced", "oracle", "fastpath")
SETTINGS = ((), ("--dp-bits", "0"), ("--dp-bits", "0", "--max-classes", "1"))


def _draw(seed: int) -> tuple[int, int, int, int, int | float]:
    # (n, p, s, d, t) drawn from the seed through Random.random() alone,
    # whose stream is stable across Python versions.
    rng = random.Random(seed)
    pick = lambda values: values[int(rng.random() * len(values))]  # noqa: E731
    p = pick((1, 2, 3, 4, 5, 7))
    n = 1 + int(rng.random() * 10)
    return n, p, pick((0, 1, 2)), pick((1, 2, 3)), pick((1, 2, 3, INF))


# name -> (seed, n, p, s, d, t). The p = 0 cases have d >= 2, so that
# the fast path does not take them under auto; with t unbounded the file
# is not in normal form, and normalizing refuses its empty target.
CASES = {f"seed{seed}": (seed, *_draw(seed)) for seed in range(30)}
CASES.update(
    {
        "p0-s0": (100, 4, 0, 0, 2, 1),
        "p0-s0-tinf": (101, 6, 0, 0, 3, INF),
        "p0-s1": (102, 5, 0, 1, 2, 2),
    }
)


def _transcript(case: str, capsys) -> str:
    seed, n, p, s, d, t = CASES[case]
    gen = random_instance(seed, n, p, 0.4, s=s, d=d, t=t)
    with open("case.json", "w", encoding="utf-8") as f:
        f.write(emit_instance(gen.instance, provenance=gen.provenance_block()))
    parts = []
    for algorithm in ALGORITHMS:
        for setting in SETTINGS:
            argv = ["solve", "case.json", "--witness", "--stats", "--algorithm", algorithm]
            code = main([*argv, *setting])
            captured = capsys.readouterr()
            parts.append(f"{' '.join(argv[5:] + list(setting))}\n{code}\n")
            parts.append(f"{captured.out}\n--\n{captured.err}\n==\n")
    return "".join(parts)


GOLDEN = {
    "seed0": "146f1a369353adcebe7cd6f79e2d3d56a5d2c26dd1bb0504de646abbe82249bf",
    "seed1": "c2ef0fc6199582e7969df23b230bddb0b2c311738143a0d44a0c34113555a951",
    "seed2": "d5f10e527e2849871a88fd3f5024260a8834d7ed511bcb130ad877171c7ac939",
    "seed3": "b1de22004e01dc00cc90c60b38857b95868d43ba81fc1a6bd59fcfd66ee0fb6c",
    "seed4": "ec3f3aa404cd4c949280b2586a4587e703722d961665fb1cc67620ddce03c522",
    "seed5": "be2db3305bc16643c86be3e2b317f3b16fbd1e8a969427b0eb80051413d2a7d0",
    "seed6": "3d34361e7a1799e622d93025ddf346b90551c8453b3e31fcbf8a1d30c2ce832b",
    "seed7": "efd2abe073d5a9233cb13672fdc8ee44d0848015f3a02b41be7ae450ce2ce137",
    "seed8": "a2f799a5ca2760db191e12d65e6b0d88f89c29b1d95404bd9b91db4d35f07579",
    "seed9": "3f362ff8f7611f1aed9116465720fb0065407e9a22bb2939fbae5034488429b2",
    "seed10": "25a3ec7b7ea9d952db967c03b8201b9e1cb38a08b9d99859da466ab814580e5c",
    "seed11": "7fdd6ec61feb74b93b133ffb625cac16d8585c6db22ecf7e34bfe609e19f4866",
    "seed12": "655656ae3ef21dd26b903bc522f53f868818ccb74eadba7200814127816ec79f",
    "seed13": "2ecbafbce06bdc574ef454beb1cf86641eb833a88993b465156ce65c99a5a5fa",
    "seed14": "faa06d0b46bf3f71c45a1761633efcdbd24f97bb97fd908d027bb3cb76d6dcf6",
    "seed15": "a6f9e03bb546d2ea0a94df67972c39e52c66f83e47f1167fb1f51140ecf37bb8",
    "seed16": "74eb6159701bfb488b6b56c8474c51b3667de2bd56e2d6add03bf186acda32cc",
    "seed17": "2b0a8036a5b3e888dd18dffd7f97a8a71ed7fd43cd363013fe1005389f1c8404",
    "seed18": "1a592adc421c0020d7f050076de4059a805557870c24d45ff7dc2aa5f6d0f55b",
    "seed19": "aea76ea8d53ceb7bcbd4f288363a88ac44b3d0a40ab36692f343e6aa2c46e077",
    "seed20": "6e3c5ec2b6541803d970bbfd4add015c0445b7ca7dbf28b49afedf80fac118c7",
    "seed21": "f6fc592c44dfaeccf810b63e9b3736a96d4334110a9940c1b2005f5edaad7b9f",
    "seed22": "4a87b61ad789bc097e7ffddb4bc7075cac8b107f47b037a9bb7252208863ec2d",
    "seed23": "8fa330c844145d22de09ad6b0b72596eb0eed2791e7805e714df77850a9c30a0",
    "seed24": "f6bee6af19d598b1c39f41e9a3676fecb80ec04aa35b58794b5c13414238286f",
    "seed25": "e2a296cbe7a90c42f2688e8764b20b52a4c8a7c9e45236b9ac39bae8d501c3fa",
    "seed26": "a2dd22355300482373339f3f3cf6981b4be9dd001a4aca152058469569cb0dc6",
    "seed27": "d1219a12377d7bf30c5513d831071ddcfded251fb672d2db8c186a50a8dd3c12",
    "seed28": "365473128116bbf5742a5b24fe1b05e8372b862babc4beb679501379f5b4dc6c",
    "seed29": "16c9ef3b704b89fc513b7abf5cc7da54d1b1b75d605ad5708a131f5270dfc9b8",
    "p0-s0": "8bdcf209e704486d5bf6c8dec2e3b93f7231080fc0ab7efdff700856e2f1d9da",
    "p0-s0-tinf": "e83c5db0584932ea88788159128be99ac51f4c37d2b484a6c50d8ca37663e21f",
    "p0-s1": "eb6bbd6709b59051ef1e1c700cb51436d03c8904c383c3c6015f98490dc40152",
}


@pytest.mark.parametrize("case", CASES)
def test_solve_output_is_pinned(case, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    digest = hashlib.sha256(_transcript(case, capsys).encode("utf-8")).hexdigest()
    assert digest == GOLDEN[case], CASES[case]
