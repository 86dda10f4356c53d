"""Independent output checks. numpy only; no code shared with octoplan."""
from __future__ import annotations

import hashlib
from collections import deque

import numpy as np


def label_free_4(occupancy: np.ndarray) -> np.ndarray:
    """Label the 4-connected components of free cells; occupied cells get -1.

    With no corner cutting a diagonal step needs both flanking cardinal
    cells free, so 8-connected reachability equals 4-connected
    reachability and these labels tell which cell pairs have a route.
    """
    free = ~np.asarray(occupancy, dtype=bool)
    w, h = free.shape
    labels = np.full((w, h), -1, dtype=np.int64)
    free_list = free.tolist()
    lab = labels.tolist()
    n = 0
    for i in range(w):
        for j in range(h):
            if not free_list[i][j] or lab[i][j] >= 0:
                continue
            lab[i][j] = n
            queue = deque([(i, j)])
            while queue:
                a, b = queue.popleft()
                for c, d in ((a + 1, b), (a - 1, b), (a, b + 1), (a, b - 1)):
                    if 0 <= c < w and 0 <= d < h and free_list[c][d] \
                            and lab[c][d] < 0:
                        lab[c][d] = n
                        queue.append((c, d))
            n += 1
    return np.asarray(lab, dtype=np.int64)


def rows_subset(part: np.ndarray, whole: np.ndarray) -> bool:
    """True when every row of part is also a row of whole (exact values)."""
    whole_rows = np.unique(whole, axis=0)
    both = np.unique(np.vstack([whole_rows, part]), axis=0)
    return len(both) == len(whole_rows)


def support_mismatches(kept: np.ndarray, cloud: np.ndarray,
                       directions: np.ndarray) -> int:
    """Directions in which max(u . p) over kept differs from that over cloud.

    A subset that holds every vertex of the cloud's convex hull reaches the
    same support value in every direction. Dot products are formed term by
    term, so equal rows give bit-equal values on both sides.
    """
    bad = 0
    for u in directions:
        full = cloud[:, 0] * u[0] + cloud[:, 1] * u[1] + cloud[:, 2] * u[2]
        sub = kept[:, 0] * u[0] + kept[:, 1] * u[1] + kept[:, 2] * u[2]
        bad += int(full.max() != sub.max())
    return bad


def unit_directions(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def csv_digest(csv_text: str, timing_columns: int) -> str:
    """sha256 of a CSV with its last timing_columns columns dropped."""
    h = hashlib.sha256()
    for line in csv_text.splitlines():
        fields = line.split(",")
        h.update(",".join(fields[:len(fields) - timing_columns]).encode())
        h.update(b"\n")
    return h.hexdigest()
