"""Output checks that hold for any workload seed.

Each check returns a list of failure messages and never raises: a check
that cannot even run (a corrupted output, say) reports that as a failure.
Per-entry checks return one message per bad cache entry, so the caller can
count failed operations; the other checks fail the run as a whole.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from taskprune.calibrate import AdapterCache
from taskprune.factorize import rank_for_factor
from taskprune.linalg import derive_rng
from taskprune.model import ActivationCapture, ModelWeights, site_dims, sites

# calib_error is the best iterate of a descent that starts at the svd_w
# factors, so it can only match or beat the svd_w error; the reference here
# comes from LAPACK instead of the library's Jacobi SVD, hence the slack.
SVD_W_SLACK = 1e-9
CAPTURE_RTOL = 1e-9
SAMPLE_COLUMNS = 16


def guarded(what: str, check: Callable[[], list[str]]) -> list[str]:
    try:
        return check()
    except Exception as exc:  # a broken output is a finding, not a crash
        return [f"{what}: check raised {exc!r}"]


def svd_w_errors(model: ModelWeights, capture: ActivationCapture,
                 ranks: dict) -> dict:
    """Relative output error of the rank-R truncated SVD of each site's W,
    keyed by (site, rank), from one SVD per site."""
    out = {}
    for site in sites(model.config):
        w = model.site_weight(site)
        x, y = capture.entries[site]
        u, s, vt = np.linalg.svd(w, full_matrices=False)
        denom = float(np.linalg.norm(y))
        for rank in sorted({r for (st, r) in ranks if st == site}):
            y_hat = (u[:, :rank] * s[:rank]) @ (vt[:rank] @ x)
            out[(site, rank)] = float(np.linalg.norm(y - y_hat)) / denom
    return out


def check_cache(model: ModelWeights, capture: ActivationCapture,
                cache: AdapterCache) -> tuple[int, list[str]]:
    """(entries checked, one failure per bad entry): coverage of every
    (site, level) pair, rank and factor shapes, not flagged, and a finite
    calib_error no worse than the svd_w starting point."""
    def run() -> tuple[int, list[str]]:
        failures = []
        wanted = {}
        for site in sites(model.config):
            d_in, d_out = site_dims(model.config, site)
            for fi in range(1, len(cache.factor_set)):
                rank, _ = rank_for_factor(cache.factor_set[fi], d_in, d_out)
                wanted[(site, fi)] = (rank, d_in, d_out)
        reference = svd_w_errors(model, capture, {(s, r) for (s, _), (r, _, _) in wanted.items()})
        for (site, fi), (rank, d_in, d_out) in wanted.items():
            where = f"cache entry {site} level {cache.factor_set[fi]}"
            if (site, fi) not in cache.entries:
                failures.append(f"{where}: missing")
                continue
            fm = cache.entries[(site, fi)]
            if (site, fi) in cache.flagged or fm is None:
                failures.append(f"{where}: flagged")
                continue
            if fm.rank != rank or fm.b.shape != (d_out, rank) or fm.c.shape != (rank, d_in):
                failures.append(f"{where}: rank {fm.rank}, b {fm.b.shape}, c {fm.c.shape}; "
                                f"want rank {rank}")
                continue
            limit = reference[(site, rank)] * (1.0 + SVD_W_SLACK)
            if not math.isfinite(fm.calib_error) or fm.calib_error > limit:
                failures.append(f"{where}: calib_error {fm.calib_error!r} "
                                f"above the svd_w error {reference[(site, rank)]!r}")
        for site in sites(model.config):
            if cache.entries.get((site, 0), "missing") is not None:
                failures.append(f"cache entry {site} level 1.0: not dense")
        return len(wanted), failures

    try:
        return run()
    except Exception as exc:
        return 1, [f"cache check raised {exc!r}"]


def capture_sample(model: ModelWeights, capture: ActivationCapture) -> list[tuple]:
    """A few seeded columns of every site's captured pair, with its weight."""
    rng = derive_rng(capture.tokens)
    out = []
    for site in sites(model.config):
        x, y = capture.entries[site]
        cols = rng.choice(x.shape[1], size=min(SAMPLE_COLUMNS, x.shape[1]), replace=False)
        out.append((str(site), model.site_weight(site), x[:, cols].copy(), y[:, cols].copy()))
    return out


def check_capture_sample(sample: list[tuple]) -> list[str]:
    """Captured pairs satisfy y = W x to rounding."""
    def run() -> list[str]:
        failures = []
        for name, w, x, y in sample:
            err = float(np.linalg.norm(y - w @ x)) / max(float(np.linalg.norm(y)), 1e-300)
            if not err <= CAPTURE_RTOL:
                failures.append(f"capture {name}: y differs from W x by {err:.3e} relative")
        return failures
    return guarded("capture sample", run)


def check_unpruned(a_star: float) -> list[str]:
    """Under baseline agreement the unpruned model agrees with itself."""
    return [] if a_star == 1.0 else [f"unpruned accuracy a* = {a_star!r}, want 1.0"]


def check_feasible(accuracy: float, a0: float, feasible: bool = True) -> list[str]:
    if feasible and accuracy >= a0:
        return []
    return [f"returned vector infeasible: accuracy {accuracy!r} < a0 {a0!r} "
            f"or feasible={feasible}"]


def check_ga_history(result, population: int, history_path) -> list[str]:
    """The history holds one record per population member per generation,
    in memory and on disk."""
    def run() -> list[str]:
        want = population * result.generations
        with open(history_path, "r", encoding="utf-8") as fh:
            on_disk = sum(1 for line in fh if line.strip())
        if len(result.history) == want and on_disk == want:
            return []
        return [f"GA history holds {len(result.history)} records ({on_disk} on disk), "
                f"want {population} x {result.generations} = {want}"]
    return guarded("GA history", run)


def eval_ok(result, n_prompts: int) -> bool:
    """An evaluated vector's result is a well-formed accuracy."""
    try:
        return (len(result.verdicts) == n_prompts
                and result.accuracy == sum(result.verdicts) / n_prompts)
    except Exception:
        return False
