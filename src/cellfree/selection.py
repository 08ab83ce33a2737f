"""Per-user access-point selection masks.

A mask is a binary (M, K) matrix with AP-block structure: all N antennas of
an AP are kept or dropped together, and every user keeps exactly S APs.
Masked channel quantities are plain Hadamard products, so selection composes
with any precoder or power-allocation stage downstream. A stack of B masks,
``q`` of shape (B, M, K), masks a channel into a stack of B channels; this is
how exhaustive selection scores its candidates.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .channel import ChannelRealization


@dataclass(frozen=True)
class SelectionMask:
    """Binary selection matrix plus the per-user AP index lists behind it."""

    q: np.ndarray                       # (M, K) of {0.0, 1.0}, or (B, M, K)
    selected: tuple                     # K tuples of AP indices, or B such tuples


def _mask_from_ap_choices(choices, num_aps: int, antennas_per_ap: int) -> SelectionMask:
    k = len(choices)
    q_ap = np.zeros((num_aps, k))
    for j, aps in enumerate(choices):
        q_ap[list(aps), j] = 1.0
    return SelectionMask(q=np.repeat(q_ap, antennas_per_ap, axis=0),
                         selected=tuple(tuple(sorted(aps)) for aps in choices))


def full_mask(num_aps: int, antennas_per_ap: int, num_users: int) -> SelectionMask:
    """All-ones mask: every AP serves every user."""
    everyone = tuple(range(num_aps))
    return _mask_from_ap_choices([everyone] * num_users, num_aps, antennas_per_ap)


def ls_aps(beta, num_selected: int, antennas_per_ap: int) -> SelectionMask:
    """Keep, for each user, the S APs with the largest large-scale gain.

    Deterministic given beta; ties resolve to the lower AP index. The ranking
    only compares per-AP gains, so any positive rescaling of beta yields the
    same mask.
    """
    beta = np.asarray(beta, dtype=float)
    beta_ap = beta[::antennas_per_ap, :]               # (L, K), block representative
    num_aps, num_users = beta_ap.shape
    choices = []
    for k in range(num_users):
        order = np.argsort(-beta_ap[:, k], kind="stable")
        choices.append(tuple(int(a) for a in order[:num_selected]))
    return _mask_from_ap_choices(choices, num_aps, antennas_per_ap)


# Candidate masks scored per ``evaluate`` call by exhaustive selection, as a
# count of mask entries (candidates x M x K); it bounds the memory of one call.
ES_CHUNK_ENTRIES = 2 ** 15


def es_aps(num_aps: int, num_users: int, num_selected: int, antennas_per_ap: int,
           evaluate: Callable[[SelectionMask], np.ndarray],
           budget: int = 10 ** 6):
    """Exhaustive search over every per-user choice of S APs.

    ``evaluate`` must run the complete downstream chain (precoding, power
    allocation, SINR evaluation) on a stack of candidate masks (``q`` of
    shape (B, M, K)) and return the B minimum per-user SINRs. All C(L, S)^K
    candidates are scored, in chunks of at most ``ES_CHUNK_ENTRIES`` mask
    entries, in the lexicographic order of ``itertools.product`` over the
    users' AP combinations. The best mask is returned together with its
    score; ties keep the first candidate in that order, and a NaN score
    never wins.
    """
    per_user = math.comb(num_aps, num_selected)
    total = per_user ** num_users
    if total > budget:
        raise ValueError(
            f"exhaustive selection needs {total} candidate evaluations, "
            f"exceeding the budget of {budget}")
    combos = list(itertools.combinations(range(num_aps), num_selected))
    members = np.zeros((per_user, num_aps))            # combination -> AP indicator
    for c, aps in enumerate(combos):
        members[c, list(aps)] = 1.0
    # digit j of a candidate index in base C(L, S) picks user j's combination,
    # most significant first: the order of itertools.product
    place = per_user ** np.arange(num_users - 1, -1, -1)
    chunk = max(1, ES_CHUNK_ENTRIES // (num_aps * antennas_per_ap * num_users))
    best_choice = None
    best_score = -np.inf
    for start in range(0, total, chunk):
        index = np.arange(start, min(start + chunk, total))
        choice = index[:, None] // place % per_user      # (B, K)
        q_ap = members[choice].transpose(0, 2, 1)         # (B, L, K)
        masks = SelectionMask(
            q=np.repeat(q_ap, antennas_per_ap, axis=1),
            selected=tuple(tuple(combos[c] for c in row) for row in choice.tolist()))
        scores = np.asarray(evaluate(masks), dtype=float)
        scores = np.where(np.isnan(scores), -np.inf, scores)
        i = int(np.argmax(scores))                        # first of the maxima
        if scores[i] > best_score:
            best_score = float(scores[i])
            best_choice = [combos[c] for c in choice[i]]
    if best_choice is None:
        return None, best_score
    return _mask_from_ap_choices(best_choice, num_aps, antennas_per_ap), best_score


def apply_mask(mask: SelectionMask, realization: ChannelRealization) -> ChannelRealization:
    """Hadamard-mask beta, alpha and the channel matrices; input is untouched."""
    q = mask.q
    return replace(realization,
                   beta=q * realization.beta,
                   alpha=q * realization.alpha,
                   g=q * realization.g,
                   g_hat=q * realization.g_hat,
                   g_tilde=q * realization.g_tilde)
