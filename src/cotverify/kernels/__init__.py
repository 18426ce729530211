"""Kernel engines, one per game; the search itself lives in pure.py."""

from __future__ import annotations

from . import pure

INF_LABEL = pure.INF_LABEL

BACKEND = pure.BACKEND


def ldim_engine(yes_masks):
    """The plain game is the weighted game at unit costs."""
    return pure.WscEngine(yes_masks, 1, 1)


def sc_engine(yes_masks):
    return pure.ScEngine(yes_masks)


def wsc_engine(yes_masks, ws: int, wc: int):
    return pure.WscEngine(yes_masks, ws, wc)


def scl_engine(label_masks, ws: int, wc: int, wl: int):
    return pure.SclEngine(label_masks, ws, wc, wl)
