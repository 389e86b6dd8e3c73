"""Seeded `gram` workloads: inputs, command line and sizes.

Each workload fixes a kernel, a weight or cost matrix and a pool of
histogram profiles (bin counts sorted in descending order). The run
seed permutes the bins of every profile and the order of the
histograms, and draws the cost matrix where the workload has a random
one. The number of tables with margins (r, c) does not change when the
bins of r and of c are permuted, so every seed gives the same total
table count, and nearly the same work, while the values differ.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Profiles come from one fixed draw, independent of the run seed.
PROFILE_SEED = 20120912


@dataclass(frozen=True)
class Workload:
    name: str
    kernel: str
    d: int
    mass: int
    m: int
    r_size: int = 8
    # False where the kernel's path never visits the table set, which is
    # then far too large to count.
    visits_tables: bool = True

    @property
    def pairs(self) -> int:
        return self.m * (self.m + 1) // 2


WORKLOADS = {
    w.name: w
    for w in (
        Workload("volume-dp", "volume", d=4, mass=12, m=21),
        Workload("volume-forbidden", "volume", d=4, mass=10, m=13),
        Workload("nw-wide", "nw", d=32, mass=400, m=11, r_size=32, visits_tables=False),
        Workload("pseudo-certify", "pseudo", d=4, mass=50, m=75, visits_tables=False),
        Workload("pseudo-scan", "pseudo", d=4, mass=10, m=13),
    )
}

# The corner-rule permutation set is drawn by the program from this seed.
NW_SEED = 5


def _profiles(w: Workload) -> list[tuple[int, ...]]:
    rng = np.random.default_rng([PROFILE_SEED, w.d, w.mass, w.m])
    draws = rng.multinomial(w.mass, np.full(w.d, 1.0 / w.d), size=w.m)
    return [tuple(sorted((int(v) for v in row), reverse=True)) for row in draws]


def histograms(w: Workload, seed: int) -> list[tuple[int, ...]]:
    """The workload's histograms for one seed, pairwise distinct."""
    rng = np.random.default_rng([seed, 1])
    seen: set[tuple[int, ...]] = set()
    out = []
    for profile in _profiles(w):
        while True:
            h = tuple(profile[j] for j in rng.permutation(w.d))
            if h not in seen:
                break
        seen.add(h)
        out.append(h)
    return [out[i] for i in rng.permutation(len(out))]


def matrix(w: Workload, seed: int) -> tuple[str, np.ndarray]:
    """(mode, matrix) for the weights file."""
    i = np.arange(w.d, dtype=float)
    gap = np.abs(i[:, None] - i[None, :])
    if w.name == "volume-dp":
        return "weight", np.exp(-(gap**2) / 2.0)
    if w.name == "volume-forbidden":
        return "cost", np.where(gap > 2, np.inf, 0.5 * gap)
    if w.name == "nw-wide":
        return "cost", gap * 0.5 / w.mass
    if w.name == "pseudo-certify":
        return "cost", gap * 4.0 / w.mass
    if w.name == "pseudo-scan":
        rng = np.random.default_rng([seed, 2])
        while True:
            a = rng.random((w.d, w.d))
            m = (a + a.T) / 2.0
            np.fill_diagonal(m, 0.0)
            if not _is_monge(m):
                return "cost", m
    raise KeyError(w.name)


def _is_monge(m: np.ndarray) -> bool:
    return bool((m[:-1, :-1] + m[1:, 1:] <= m[:-1, 1:] + m[1:, :-1]).all())


def write_inputs(w: Workload, seed: int, directory: Path) -> tuple[Path, Path]:
    """Write the histogram and weight files; return their paths."""
    hist_path = directory / "histograms.txt"
    weight_path = directory / "weights.txt"
    hist_path.write_text(
        "".join(",".join(str(v) for v in h) + "\n" for h in histograms(w, seed))
    )
    mode, mat = matrix(w, seed)
    rows = [",".join(repr(float(v)) for v in row) for row in mat]
    weight_path.write_text(f"mode: {mode}\n" + "\n".join(rows) + "\n")
    return hist_path, weight_path


def gram_argv(w: Workload, hist_path: Path, weight_path: Path, out: Path) -> list[str]:
    argv = [
        "gram",
        "--input", str(hist_path),
        "--weights", str(weight_path),
        "--kernel", w.kernel,
        "--out", str(out),
    ]
    if w.kernel == "nw":
        argv += ["--seed", str(NW_SEED), "--r-size", str(w.r_size)]
    return argv
