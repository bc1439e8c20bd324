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
    "seed0": "40721570a8386b7cbd8665c2a9abee256f0031144135ddd9e0a8f9ba739c3291",
    "seed1": "c2ef0fc6199582e7969df23b230bddb0b2c311738143a0d44a0c34113555a951",
    "seed2": "d5f10e527e2849871a88fd3f5024260a8834d7ed511bcb130ad877171c7ac939",
    "seed3": "762b44ebadac866c5256a8dbbf7b8510e2d8963d5851d764dd1da3da666ece8a",
    "seed4": "5e7baec52f0beb7fec39761393d9107cfc7fdccd58490f99da1ec34bd1f34f29",
    "seed5": "e0d74dca6777761d73650ee95bc2b6fc22e9380fa011facec0fdbd5a4bf509b1",
    "seed6": "578db6233626855b1e825521e664c00b7f3e858f86bb26613d1c78b23effdac4",
    "seed7": "efd2abe073d5a9233cb13672fdc8ee44d0848015f3a02b41be7ae450ce2ce137",
    "seed8": "007a4508387b3bb1e99883ff8b7ef2b8dd3118dad8f0dba39f25115bf4f3ae23",
    "seed9": "4462bf3d16be919e9a555300997517e7407a97f71bf6f82ca394eb6c7194764f",
    "seed10": "25a3ec7b7ea9d952db967c03b8201b9e1cb38a08b9d99859da466ab814580e5c",
    "seed11": "e75ff3bac0deafe35c80df8cb45bc36308c0aba6843f1140079d5957f9aba768",
    "seed12": "71f37cce2cc71221dd5aa6a5165d69eb9711b47e3dd714528ac36a267e771b6b",
    "seed13": "bf68f62131df11b4fe905b5e6f13308a4035a8f6f0c564aa426674655f4fa923",
    "seed14": "c86431cd457cb9ae58534a768ac2c9b70e4e1270ba3b3ce47c96dd42b7217a95",
    "seed15": "a6f9e03bb546d2ea0a94df67972c39e52c66f83e47f1167fb1f51140ecf37bb8",
    "seed16": "3cd4f28fb25cd7fba5cb545932ec798191586b74da85f9cfca89ecfe2f813d85",
    "seed17": "2b0a8036a5b3e888dd18dffd7f97a8a71ed7fd43cd363013fe1005389f1c8404",
    "seed18": "1a592adc421c0020d7f050076de4059a805557870c24d45ff7dc2aa5f6d0f55b",
    "seed19": "28df4f860f23124bf3274aa3aec8e3ab530354db10b19e6d0dce6b9c859e1a35",
    "seed20": "2705a37c650e8f197a057f62019daa40cef9f2a96dbaea7c7654a77947b36584",
    "seed21": "666473d301cfe9486f3ec886bd12542a311ca1c7f1c95ad027b4342da639cd6f",
    "seed22": "30e42b993827dc96a6e513a48719e328bf2e6ca47820a94cf2077376f764cbb7",
    "seed23": "e2d679f5c1d6fb52ff8054c6d0033af040a58454a2cb7b100ee7811e39bac816",
    "seed24": "7861a1c29565e31a680273a8da00e2f57022d51ccc2440d10ece9f172c53c40a",
    "seed25": "e2a296cbe7a90c42f2688e8764b20b52a4c8a7c9e45236b9ac39bae8d501c3fa",
    "seed26": "177c98bd817b05955ea84ca5ecaff326ed5ea34a0d53ad751cc198d13aaa3db0",
    "seed27": "801a0b8555c5f903033052bfd08476fb7506e7458d8ca1257adb91e83fd84ffd",
    "seed28": "365473128116bbf5742a5b24fe1b05e8372b862babc4beb679501379f5b4dc6c",
    "seed29": "571cca36f50cf15413a46ea4e15705ada58f9b0638da6764d6064dd5927b56d8",
    "p0-s0": "8bdcf209e704486d5bf6c8dec2e3b93f7231080fc0ab7efdff700856e2f1d9da",
    "p0-s0-tinf": "e83c5db0584932ea88788159128be99ac51f4c37d2b484a6c50d8ca37663e21f",
    "p0-s1": "dc095b020d08bbc79eb2bb73a67c3516a18548a204861fc41129075d3910fc3f",
}


@pytest.mark.parametrize("case", CASES)
def test_solve_output_is_pinned(case, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    digest = hashlib.sha256(_transcript(case, capsys).encode("utf-8")).hexdigest()
    assert digest == GOLDEN[case], CASES[case]
