"""Per-edge link degradation for the α-β model.

The base model charges every message the same (α, β) regardless of which
pair of ranks exchanges it.  Real interconnects degrade *asymmetrically*: a
flaky cable or a congested switch port inflates latency and bandwidth on
specific (source, destination) edges while the rest of the fabric is
healthy.  :class:`LinkModel` captures that: a set of degraded directed
edges, each with its own latency/bandwidth inflation factors.  ``-1`` in an
edge endpoint is a wildcard ("any rank"), so one entry can damage a whole
rank's uplink (``src=2, dst=*``).

It has one reading, :meth:`LinkModel.worst_factors`: a bulk-synchronous
collective runs at the pace of its slowest participant, so it sees the
worst degraded edge among its ranks — the rule the paper's Section IV-B
model assumes.  The scenario suite applies it once per run
(:func:`~repro.perfmodel.collectives.degraded_params`).
"""

from __future__ import annotations

from dataclasses import dataclass

#: Edge endpoint wildcard: matches any rank.
ANY_RANK = -1


@dataclass(frozen=True)
class LinkModel:
    """Per-(src, dst)-edge inflation factors of the α-β model.

    ``degraded`` is a tuple of ``(src, dst, alpha_factor, beta_factor)``
    entries; endpoints may be :data:`ANY_RANK`.  Factors must be >= 1 —
    this models damage, not improvement.
    """

    degraded: tuple[tuple[int, int, float, float], ...] = ()

    def __post_init__(self) -> None:
        for src, dst, fa, fb in self.degraded:
            if fa < 1.0 or fb < 1.0:
                raise ValueError(
                    f"link ({src},{dst}) inflation factors must be >= 1, "
                    f"got alpha={fa}, beta={fb}"
                )

    def worst_factors(self, group=None) -> tuple[float, float]:
        """Worst (α-factor, β-factor) over edges inside ``group``.

        ``group`` is an iterable of participating ranks (``None`` = every
        rank).  A bulk-synchronous collective runs at the pace of its
        slowest participant, so its (α, β) inflate by the worst degraded
        edge with both endpoints in the communicator.  Wildcard endpoints
        match any group.
        """
        members = None if group is None else set(group)

        def _in(endpoint: int) -> bool:
            return endpoint == ANY_RANK or members is None or endpoint in members

        fa = fb = 1.0
        for s, d, ea, eb in self.degraded:
            if _in(s) and _in(d):
                fa = max(fa, ea)
                fb = max(fb, eb)
        return fa, fb


__all__ = ["ANY_RANK", "LinkModel"]
