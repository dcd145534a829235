"""Evaluation metrics: ROC AUC (Fig. 16's y-axis), accuracy, log loss.

Implemented from scratch (pure numpy -- no sklearn or scipy): AUC via
the Mann-Whitney U statistic with midrank tie handling, which is exact
and O(n log n).
"""

from __future__ import annotations

import numpy as np


def midrank(x: np.ndarray) -> np.ndarray:
    """1-based ranks with ties assigned the mean rank of their run.

    Pure-numpy equivalent of ``scipy.stats.rankdata(x)`` (the default
    "average" method): sort once, find the tie runs, give every member of
    a run occupying sorted positions ``[s, e)`` the midrank
    ``(s + e + 1) / 2`` (1-based, hence exact halves for even runs).
    """
    x = np.asarray(x).ravel()
    if x.size == 0:
        return np.empty(0, dtype=np.float64)
    order = np.argsort(x, kind="stable")
    xs = x[order]
    run_start = np.r_[True, xs[1:] != xs[:-1]]
    run_id = np.cumsum(run_start) - 1
    starts = np.flatnonzero(run_start)
    ends = np.r_[starts[1:], xs.size]
    mid = (starts + ends + 1) / 2.0
    out = np.empty(x.size, dtype=np.float64)
    out[order] = mid[run_id]
    return out


def roc_auc(labels: np.ndarray, scores: np.ndarray) -> float:
    """Area under the ROC curve of binary ``labels`` given ``scores``.

    Uses the rank-sum identity: AUC = (R_pos - n_pos(n_pos+1)/2) /
    (n_pos * n_neg), with midranks for ties.  Raises if only one class is
    present (AUC undefined).
    """
    y = np.asarray(labels).ravel()
    s = np.asarray(scores, dtype=np.float64).ravel()
    if y.shape != s.shape:
        raise ValueError(f"labels/scores shape mismatch: {y.shape} vs {s.shape}")
    pos = y > 0.5
    n_pos = int(pos.sum())
    n_neg = y.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("roc_auc needs both classes present")
    ranks = midrank(s)
    r_pos = ranks[pos].sum()
    return float((r_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def accuracy(labels: np.ndarray, scores: np.ndarray) -> float:
    """Fraction of correct binary predictions (score >= 0.5 predicts 1)."""
    y = np.asarray(labels).ravel() > 0.5
    p = np.asarray(scores).ravel() >= 0.5
    if y.shape != p.shape:
        raise ValueError("labels/scores shape mismatch")
    return float(np.mean(y == p))


def log_loss(labels: np.ndarray, probs: np.ndarray, eps: float = 1e-7) -> float:
    """Mean binary cross-entropy of predicted probabilities."""
    y = np.asarray(labels, dtype=np.float64).ravel()
    p = np.clip(np.asarray(probs, dtype=np.float64).ravel(), eps, 1.0 - eps)
    if y.shape != p.shape:
        raise ValueError("labels/probs shape mismatch")
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log1p(-p)))
