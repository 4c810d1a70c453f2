"""Ablation variants of the InteGrade GRM.

:class:`OptimisticGrm` answers the A1 ablation: what if the GRM treated
its (possibly stale) Trader contents as the truth instead of a *hint*?
It asks only the single best-ranked node per task and pass; a refusal
(stale offer) costs a full scheduling interval instead of moving down
the candidate list.  It ranks and accounts exactly as the GRM does —
the same per-job view, the same debits and refusal payloads — so the
fallback is the only thing ablated.  The paper's negotiate-then-reserve
protocol is the default GRM behaviour; E2/A1 quantify the difference.
"""

from repro.core.grm import Grm


class OptimisticGrm(Grm):
    """A GRM that trusts the hint: one candidate, no fallback."""

    def _place_task(self, job, task, view, exclude=()):
        # Exactly one attempt: stale information means a lost pass.
        for record in self._candidates(job, task, view, exclude):
            return self._negotiate(record, job, task)
        return False
