"""Revisited PARA security analysis (§9.1, Expressions 2–9).

PARA refreshes a neighbour of every activated row with probability
``pth / 2`` per side.  The paper models a RowHammer attack as a sequence of
*failed attempts* (the victim is refreshed before the hammer count reaches
the threshold) followed by one *successful attempt*, and derives the overall
success probability

    pRH = Σ_{Nf=0}^{Nf_max} (1 − pth/2)^{Nf + NRH − NRefSlack} · (pth/2)^{Nf}
                                                            (Expression 8)

with ``Nf_max = (tREFW/tRC − NRH − NRefSlack)/2`` (Expression 7).  The sum
is a geometric series in ``x = (pth/2)(1 − pth/2)``, so we evaluate it in
closed form in the log domain — exact even at the 1e-15 reliability target.

``PARA-Legacy`` [84] assumed the attacker hammers exactly ``NRH`` times and
no more: ``pRH_legacy = (1 − pth/2)^NRH``.  Expression 9's ``k`` factor is
the ratio of the two.
"""

from __future__ import annotations

import math

#: Consumer memory reliability target used throughout §9.1.
DEFAULT_TARGET = 1e-15

#: DDR4 defaults used by the paper's evaluation (§9.1.2, footnote 13).
DEFAULT_TREFW_NS = 64_000_000.0
DEFAULT_TRC_NS = 46.25


def max_failed_attempts(
    nrh: float,
    n_ref_slack: float = 0.0,
    trefw_ns: float = DEFAULT_TREFW_NS,
    trc_ns: float = DEFAULT_TRC_NS,
) -> int:
    """Expression 7: the maximum number of failed attempts in a window."""
    activations = trefw_ns / trc_ns
    nf_max = (activations - nrh - n_ref_slack) / 2.0
    if nf_max < 0:
        return 0
    return int(nf_max)


def log_rowhammer_success_probability(
    pth: float,
    nrh: float,
    n_ref_slack: float = 0.0,
    trefw_ns: float = DEFAULT_TREFW_NS,
    trc_ns: float = DEFAULT_TRC_NS,
) -> float:
    """Natural log of Expression 8 (exact, log-domain geometric series)."""
    if not 0.0 < pth <= 1.0:
        raise ValueError("pth must be in (0, 1]")
    if nrh <= 0:
        raise ValueError("NRH must be positive")
    q = pth / 2.0
    exponent = nrh - n_ref_slack
    log_base = exponent * math.log1p(-q)
    x = q * (1.0 - q)  # ratio of the geometric series, always < 1/4
    nf_max = max_failed_attempts(nrh, n_ref_slack, trefw_ns, trc_ns)
    # (1 - x^(Nf_max + 1)) / (1 - x), guarded against underflow of x^n.
    log_x_pow = (nf_max + 1) * math.log(x) if x > 0.0 else float("-inf")
    if log_x_pow < -60:
        series = 1.0 / (1.0 - x)
    else:
        series = (1.0 - math.exp(log_x_pow)) / (1.0 - x)
    return log_base + math.log(series)


def rowhammer_success_probability(
    pth: float,
    nrh: float,
    n_ref_slack: float = 0.0,
    trefw_ns: float = DEFAULT_TREFW_NS,
    trc_ns: float = DEFAULT_TRC_NS,
) -> float:
    """Expression 8: overall RowHammer success probability under PARA."""
    return math.exp(
        log_rowhammer_success_probability(pth, nrh, n_ref_slack, trefw_ns, trc_ns)
    )


def legacy_pth(nrh: float, target: float = DEFAULT_TARGET) -> float:
    """PARA-Legacy's probability threshold for a success-probability target."""
    if not 0.0 < target < 1.0:
        raise ValueError("target must be in (0, 1)")
    return 2.0 * (1.0 - math.exp(math.log(target) / nrh))


def solve_pth(
    nrh: float,
    n_ref_slack: float = 0.0,
    target: float = DEFAULT_TARGET,
    trefw_ns: float = DEFAULT_TREFW_NS,
    trc_ns: float = DEFAULT_TRC_NS,
    tol: float = 1e-12,
) -> float:
    """Step 5 (§9.1.2): the pth that meets the reliability target.

    ``log pRH`` is strictly decreasing in pth, so bisection converges; the
    result maintains ``pRH ≤ target`` across all RowHammer thresholds
    (Fig. 11b's flat revisited curves).
    """
    log_target = math.log(target)
    lo, hi = 1e-9, 1.0
    if log_rowhammer_success_probability(hi, nrh, n_ref_slack, trefw_ns, trc_ns) > log_target:
        raise ValueError(
            f"even pth=1 cannot reach the target {target} for NRH={nrh}"
        )
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        value = log_rowhammer_success_probability(mid, nrh, n_ref_slack, trefw_ns, trc_ns)
        if value > log_target:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    return hi


def k_factor(
    pth: float,
    nrh: float,
    n_ref_slack: float = 0.0,
    trefw_ns: float = DEFAULT_TREFW_NS,
    trc_ns: float = DEFAULT_TRC_NS,
) -> float:
    """Expression 9: ``pRH = k × pRH_legacy``.

    With the paper's parameters this gives k ≈ 1.0331 at NRH = 1024 and
    k ≈ 1.3212 at NRH = 64 (using PARA-Legacy's pth values).
    """
    log_k = log_rowhammer_success_probability(
        pth, nrh, n_ref_slack, trefw_ns, trc_ns
    ) - nrh * math.log1p(-pth / 2.0)
    return math.exp(log_k)


def n_ref_slack_for(tref_slack_ns: float, trc_ns: float = DEFAULT_TRC_NS) -> float:
    """Activations an attacker fits into a tRefSlack window (§9.1.2 step 4)."""
    if tref_slack_ns < 0:
        raise ValueError("tRefSlack must be non-negative")
    return tref_slack_ns / trc_ns
