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
    "seed0": "cbcc5c54ea939102346072b26b13019bb438fc67cee5d49a88502871fd2a3b1f",
    "seed1": "c2ef0fc6199582e7969df23b230bddb0b2c311738143a0d44a0c34113555a951",
    "seed2": "d5f10e527e2849871a88fd3f5024260a8834d7ed511bcb130ad877171c7ac939",
    "seed3": "a226b6890702dbb28768b11e7a5a3e46e2c0678d740f85b080d0c8cc99ecab4b",
    "seed4": "a4fcc8d9f92bd85396213c6ee3b58ee995669264c7fc502614566b6d0651643e",
    "seed5": "c6dfb7ef5dfa5795d9389f71c14aec5ab3a7b0aec7aa4b6b9ef777e83a620f68",
    "seed6": "85dc19608a6a44c067024ddf8b3d49f4edecd9f146fdb47c4488c6a26cb01a28",
    "seed7": "efd2abe073d5a9233cb13672fdc8ee44d0848015f3a02b41be7ae450ce2ce137",
    "seed8": "007a4508387b3bb1e99883ff8b7ef2b8dd3118dad8f0dba39f25115bf4f3ae23",
    "seed9": "4462bf3d16be919e9a555300997517e7407a97f71bf6f82ca394eb6c7194764f",
    "seed10": "25a3ec7b7ea9d952db967c03b8201b9e1cb38a08b9d99859da466ab814580e5c",
    "seed11": "efda4b96af0d6bc9ee23dc6ebf5e9395dd18a0ce225ca940855e1902c4ccb24c",
    "seed12": "bdb6775d9744571cc633e76abaa419cebcc5e7c006f16ede0f44593c43f6e918",
    "seed13": "4345ff37feac92d1489730e035be587dc50b89592fc3b65d25990f79d5846251",
    "seed14": "08bfb06735b94ce4a9e3e78bbbe7264bc4f95528c47c12d8cc8de55a4edcd4ce",
    "seed15": "a6f9e03bb546d2ea0a94df67972c39e52c66f83e47f1167fb1f51140ecf37bb8",
    "seed16": "26d53ec80a407c7d09eaba5929eda14c6fb2a0ab3180ca7cb796d48552b151de",
    "seed17": "2b0a8036a5b3e888dd18dffd7f97a8a71ed7fd43cd363013fe1005389f1c8404",
    "seed18": "1a592adc421c0020d7f050076de4059a805557870c24d45ff7dc2aa5f6d0f55b",
    "seed19": "0e6448ba3a472ac0528d109086f6caeec00192ba4ea11af94dc22fe871cef9d1",
    "seed20": "fb588a736a993ca866836d8113743626d4ff306e4746e1fa6a07b575eeed4bc8",
    "seed21": "72b92f9dea78f219c3d4d25d830ffe2342c15b6421e069cd44c9be83e80be49f",
    "seed22": "30e42b993827dc96a6e513a48719e328bf2e6ca47820a94cf2077376f764cbb7",
    "seed23": "9c2cefb540d6ee873f3f22d63563c37118d5da0d2b21546213dda8e603733070",
    "seed24": "7861a1c29565e31a680273a8da00e2f57022d51ccc2440d10ece9f172c53c40a",
    "seed25": "e2a296cbe7a90c42f2688e8764b20b52a4c8a7c9e45236b9ac39bae8d501c3fa",
    "seed26": "177c98bd817b05955ea84ca5ecaff326ed5ea34a0d53ad751cc198d13aaa3db0",
    "seed27": "9c0c4478da3e93767ffbbc1c71218d851dd88a538a80647f1dbf9073bc98e303",
    "seed28": "365473128116bbf5742a5b24fe1b05e8372b862babc4beb679501379f5b4dc6c",
    "seed29": "64722d64d9306b0ae222d9482d826b3fc465d96fd2db293ef137cdf95981fe9e",
    "p0-s0": "8bdcf209e704486d5bf6c8dec2e3b93f7231080fc0ab7efdff700856e2f1d9da",
    "p0-s0-tinf": "e83c5db0584932ea88788159128be99ac51f4c37d2b484a6c50d8ca37663e21f",
    "p0-s1": "eb6bbd6709b59051ef1e1c700cb51436d03c8904c383c3c6015f98490dc40152",
}


@pytest.mark.parametrize("case", CASES)
def test_solve_output_is_pinned(case, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    digest = hashlib.sha256(_transcript(case, capsys).encode("utf-8")).hexdigest()
    assert digest == GOLDEN[case], CASES[case]
