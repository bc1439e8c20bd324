"""Shared helpers for building small instances in tests.

Instances are written as lists of per-user resource index lists, which
reads better in assertions than raw bitmasks.
"""

from __future__ import annotations

from hypothesis import strategies as st

from rescheck import (
    INF,
    BlockerSet,
    Instance,
    Verdict,
    restrict,
    solve_rcp_bruteforce,
    solve_s0_bruteforce,
)


def mask(resources) -> int:
    m = 0
    for r in resources:
        m |= 1 << r
    return m


def inst(
    rows,
    p: int,
    *,
    target=None,
    s: int = 0,
    d: int = 1,
    t=INF,
) -> Instance:
    """Instance with num_resources=p; rows[u] lists u's resource indices.

    target defaults to all p resources.
    """
    access = tuple(mask(row) for row in rows)
    tgt = (1 << p) - 1 if target is None else mask(target)
    return Instance(access=access, num_resources=p, target=tgt, s=s, d=d, t=t)


def norm(rows, p: int, **kw) -> Instance:
    """Like inst(), but normalized (t clamped, target projected)."""
    from rescheck import normalize

    return normalize(inst(rows, p, **kw))


@st.composite
def instances(draw, max_n=6, max_p=4, max_s=2, max_d=3):
    """Arbitrary small instances; target is a nonempty submask.

    The target's size is drawn evenly over 1..max_p first, then the
    resource count m evenly over size..max_p, so that normalized
    instances are spread over every p rather than mostly
    single-resource ones.
    """
    size = draw(st.sampled_from(range(1, max_p + 1)))
    m = draw(st.sampled_from(range(size, max_p + 1)))
    n = draw(st.integers(0, max_n))
    full = (1 << m) - 1
    access = tuple(draw(st.integers(0, full)) for _ in range(n))
    target = mask(draw(st.permutations(range(m)))[:size])
    s = draw(st.integers(0, max_s))
    d = draw(st.integers(1, max_d))
    t = draw(st.sampled_from([1, 2, 3, INF]))
    return Instance(access=access, num_resources=m, target=target, s=s, d=d, t=t)


def find_minimal_blocker(
    inst: Instance, *, verdict: Verdict | None = None
) -> BlockerSet | None:
    """Inclusion-minimal blocker of size <= s, or None when resilient.

    Starts from the given verdict's blocker, by default the guarded
    oracle's minimum-cardinality one, and drops members one at a time
    while the remainder still blocks, until no single removal can be
    spared.
    """
    if verdict is None:
        verdict = solve_rcp_bruteforce(inst)
    if verdict.sat:
        return None
    assert isinstance(verdict.witness, BlockerSet)
    blocker = set(verdict.witness.users)

    def blocks(removed: set[int]) -> bool:
        survivors = [u for u in range(inst.n) if u not in removed]
        return not solve_s0_bruteforce(restrict(inst, survivors), user_limit=None).sat

    shrunk = True
    while shrunk:
        shrunk = False
        for u in sorted(blocker):
            if blocks(blocker - {u}):
                blocker.discard(u)
                shrunk = True
                break
    return BlockerSet(frozenset(blocker))
