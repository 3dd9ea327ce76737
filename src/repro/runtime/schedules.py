"""Round schedules of the collectives, as data.

Each function answers one question — *whom does rank ``r`` of ``p`` send
to, and whom does it receive from, in every round?* — and nothing else: no
I/O, no payloads, no configuration.  A schedule is the list of this rank's
rounds ``(send_to, recv_from)``, indexed by the *global* round number: a
rank that sits a round out holds ``(None, None)``, so every rank's list has
the same length and that length is the algorithm's latency term (the
``steps`` the α-β model charges).  Within a round a rank sends before it
receives.  Schedules are *matched*: ``r`` sends to ``d`` in round ``t``
exactly when ``d`` receives from ``r`` in round ``t``.

:meth:`repro.runtime.comm.Communicator._walk` is the only consumer: it
either executes a schedule (one real send/receive per round) or replays it
(one ledger entry per send round while a hub wave moves the data).  The
closed forms in :mod:`repro.perfmodel.collectives` are checked against
these lists in ``tests/runtime/test_schedules.py``.
"""

from __future__ import annotations

#: how a :func:`doubling` round combines the value it receives with the
#: rank's accumulator: as the LEFT or RIGHT operand, or by REPLACing it
LEFT, RIGHT, REPLACE = -1, 1, 0


def swap(rounds: list[tuple]) -> list[tuple]:
    """The same rounds with every message flowing the other way (still
    matched).  Read back to front, a swapped broadcast tree is the
    reduction tree."""
    return [(rnd[1], rnd[0]) for rnd in rounds]


def dissemination(p: int, r: int) -> list[tuple]:
    """⌈log₂p⌉ rounds at distances 1, 2, 4, …: send ``k`` ahead, receive
    from ``k`` behind.  After the round at distance ``k`` a rank has heard
    (transitively) from the ``2k`` ranks behind it — the barrier as is, the
    Bruck allgather when swapped."""
    rounds = []
    k = 1
    while k < p:
        rounds.append(((r + k) % p, (r - k) % p))
        k *= 2
    return rounds


def pairwise(p: int, r: int) -> list[tuple]:
    """p-1 rounds: in round ``t`` exchange with the ranks ``t+1`` ahead and
    behind, so every ordered pair meets exactly once (minimum volume)."""
    return [((r + step) % p, (r - step) % p) for step in range(1, p)]


def binomial(p: int, r: int, root: int) -> list[tuple]:
    """⌈log₂p⌉-round binomial broadcast tree rooted at ``root`` (MPICH's:
    ranks are rotated so the root is virtual rank 0, and the farthest
    subtree is served first)."""
    if p == 1:
        return []
    vr = (r - root) % p
    rounds = []
    mask = 1 << ((p - 1).bit_length() - 1)
    while mask:
        if vr % (2 * mask) == 0 and vr + mask < p:
            rounds.append(((vr + mask + root) % p, None))
        elif vr % (2 * mask) == mask:
            rounds.append((None, (vr - mask + root) % p))
        else:
            rounds.append((None, None))
        mask >>= 1
    return rounds


def doubling(p: int, r: int) -> list[tuple]:
    """MPICH recursive doubling: fold the ``rem = p - 2^⌊log₂p⌋`` surplus
    ranks into their odd neighbours, run log₂ rounds of pairwise exchange
    on the power-of-two core, then fold the result back out.

    Rounds carry a third entry: how the received value meets the
    accumulator.  The lower rank's contribution always goes on the LEFT, so
    every rank evaluates the same reduction tree and even order-sensitive
    operators stay rank-consistent; the fold-out REPLACEs."""
    if p == 1:
        return []
    pof2 = 1 << (p.bit_length() - 1)
    rem = p - pof2
    idle = (None, None, None)
    if r >= 2 * rem:
        fold_in = fold_out = idle
        newr = r - rem
    elif r % 2:  # absorbs its even neighbour, stands in for both in the core
        fold_in, fold_out = (None, r - 1, LEFT), (r - 1, None, None)
        newr = r // 2
    else:  # gives its value away and sits the core out
        fold_in, fold_out = (r + 1, None, None), (None, r + 1, REPLACE)
        newr = None
    core = []
    mask = 1
    while mask < pof2:
        if newr is None:
            core.append(idle)
        else:
            partner_new = newr ^ mask
            partner = partner_new * 2 + 1 if partner_new < rem else partner_new + rem
            core.append((partner, partner, LEFT if partner < r else RIGHT))
        mask <<= 1
    return [fold_in, *core, fold_out] if rem else core
