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
    "seed0": "509d655c9ca1350016c772b4f99c11c3e5776915dc490fd8229fc0a3b8f4771b",
    "seed1": "8f420320fa49cfa4d548eac4ea460c90e9981c3c9e8630252187ccdd130bb481",
    "seed2": "4136572d70e66e77b0cad449dd10f1b639c9613e40f51f0df927ef287b3d2587",
    "seed3": "c61ecb836ce380b79e17d281fb6207f4072644d788f73b02c304d20850a25014",
    "seed4": "34c8e874d85916ee0023b1ed09fae4191ad841c9d5ce83d26dee5617ec3a1953",
    "seed5": "3db7e86588de3118070fa1528657039944d0f76d2f4ec7c5a9892dd36e41f630",
    "seed6": "98f92ab3c69a2becd47299c93fde17c57b520f01400b11df64627ef425d6e636",
    "seed7": "36dd6b6825ed6b6a4969d11d05909e8a81fa4bc2a9b29d0f331e1201eee3cdce",
    "seed8": "69b884466597f348506422db5795bb975d2c6cb00b2cfb26754d1177ede6c13f",
    "seed9": "8ecf1634de8fd9800f6428c5d00323e13df664fd549c55b100bc2a94c546c82b",
    "seed10": "5ffe8e9cbba4255ea53c14e00621228df908fc6c3134019237a90f231d4b6308",
    "seed11": "f1cd027984389a4606dbb87c627230dac55827e257160f30b7f67aaef89ca22d",
    "seed12": "4478d129a5ae4a52277e7a4e370627784db59ffbf14a7dc36609492e2cd88737",
    "seed13": "852b991c834adb774ddcbc9770276bf97e5031580e3d2bc1c49b44c590dde627",
    "seed14": "d9cf9575f58f24e20410347f7b4e75f7d8e4fba3afb603ca52368a891420d1c6",
    "seed15": "9a86e500225be1ac4da43f74aa26f875faffea67b33a072977a4743d8e6d15f1",
    "seed16": "a1eb4c533eaf2ed8c1a767f1f988802ce42cb18cbf0fd59280c57da236a5b6a9",
    "seed17": "4836aa36fb8bb45443b7ae14a76dcb2a2c98261b4d0e0902e723c582545a2f0b",
    "seed18": "0dd70c65d9509f8a45482759d9ae779b2ed049e60eda36429f17a75af25cce28",
    "seed19": "2f935fd9da99bd22d6e5caef54a4c0115ef99852efb96408228c71fe65e0c280",
    "seed20": "3dfb15d94d1fc5256377d6ec26697b424953c9b87ce88e65079fa4124ceaa3e1",
    "seed21": "6d4da1637b234e84d3a8d9f6b5d25d07a924e72d1855458e665f94d5648e3edc",
    "seed22": "79dc805a2a88d7d149e3f5f9c393445d5b1448468f35aeea445f298988c8646a",
    "seed23": "cac1f3fef3941baf81a4b938f42d8f1db6dabff80a26401f900aa8c1ecf91385",
    "seed24": "165c6a69fab288176eddbdcc46483cf2218d9317e6dfadc66063418cd378f0ca",
    "seed25": "e360e5a6c694e97a5666a45702eddeaa345ab812d8c4b56a7ac68d3742618637",
    "seed26": "11eef9715c54d0c5acf3d48736d90deb183e1dfdb0c467056c9c43fb5f3f0256",
    "seed27": "217e59186e0a6505ae71c6e91673802e072c0bad700157ca20a90ce8e57de6f9",
    "seed28": "d7a9234f96824b5a1c152fa31c051341f937658849476e22f2d0b3f8c57b286e",
    "seed29": "99f0f619b3477c1cf77869d4e5a47025156dd368e1e8b88844c8dc093b8c238a",
    "p0-s0": "332ab248bf579ae5947e09e54dc24949d2d9bcc383e6b396f50db87edff039e1",
    "p0-s0-tinf": "e83c5db0584932ea88788159128be99ac51f4c37d2b484a6c50d8ca37663e21f",
    "p0-s1": "24b28bf76fe853984236091d91ac96aa90ad9ceaa3472ea570a744304de966a3",
}


@pytest.mark.parametrize("case", CASES)
def test_solve_output_is_pinned(case, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    digest = hashlib.sha256(_transcript(case, capsys).encode("utf-8")).hexdigest()
    assert digest == GOLDEN[case], CASES[case]
