"""Seeded samplers for the generative models used in the experiments.

All copula sampling runs through Marshall-Olkin frailty mixtures. The
outer-power Clayton generator is psi(t) = (1 + t^(1/beta))^(-1/theta); its
frailty is V = Gamma^beta * S with Gamma ~ Gamma(1/theta, 1) and S positive
stable with exponent 1/beta, because

    E[exp(-t V)] = E[ E[exp(-t Gamma^beta S) | Gamma] ]
                 = E[ exp(-(t^(1/beta) Gamma)) ] = psi(t).

For the nested model with a common theta, the inner-to-outer generator
composition psi0^{-1}(psi_g(t)) = t^(beta0/beta_g) is itself a stable
exponent, so each group reuses the global frailty as V_g = V0^(beta_g/beta0)
times an independent stable(beta0/beta_g) factor. A block-maxima limit of
the outer-power Clayton is the logistic (Gumbel-Hougaard) extreme-value
copula, sampled directly from a single stable frailty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    IncompatibleDimension,
    InvalidAlpha,
    InvalidParam,
    MaximaMatrix,
    Partition,
    SeriesMatrix,
    _adopt,
    _check_block_length,
    _from_labels,
)

__all__ = [
    "NestedModel",
    "RepetitionConfig",
    "sample_positive_stable",
    "sample_outer_power_clayton",
    "sample_nested",
    "sample_logistic_ev",
    "repetition_process",
    "repetition_block_maxima",
    "build_experiment_model",
]


@dataclass(frozen=True)
class NestedModel:
    """Nested Archimedean dependence: global (theta, beta0) over per-group betas.

    Variables are laid out contiguously, group g covering group_sizes[g]
    consecutive columns. Requires 1 <= beta0 <= min(group_betas) so the
    nesting is a valid copula.
    """

    theta: float
    beta0: float
    group_betas: tuple[float, ...]
    group_sizes: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "group_betas", tuple(float(b) for b in self.group_betas))
        object.__setattr__(self, "group_sizes", tuple(int(s) for s in self.group_sizes))
        # nan fails no comparison below, and inf passes them all
        for name, value in (("theta", self.theta), ("beta0", self.beta0)):
            if not math.isfinite(value):
                raise InvalidParam(f"{name} must be finite")
        if not all(math.isfinite(b) for b in self.group_betas):
            raise InvalidParam("every group beta must be finite")
        if not self.theta > 0.0:
            raise InvalidParam("theta must be positive")
        if not self.beta0 >= 1.0:
            raise InvalidParam("beta0 must be at least 1")
        if len(self.group_betas) != len(self.group_sizes) or not self.group_betas:
            raise InvalidParam("need one beta per group, at least one group")
        if any(b < self.beta0 for b in self.group_betas):
            raise InvalidParam("every group beta must be >= beta0")
        if any(s < 1 for s in self.group_sizes):
            raise InvalidParam("group sizes must be positive")

    @property
    def d(self) -> int:
        return sum(self.group_sizes)

    def partition(self) -> Partition:
        """Ground-truth grouping of the contiguous layout."""
        return _from_labels(np.repeat(np.arange(len(self.group_sizes)), self.group_sizes))


@dataclass(frozen=True)
class RepetitionConfig:
    """Stationary random-repetition process: refresh with probability p, else repeat."""

    p: float
    n: int
    model: NestedModel
    margins: str = "uniform"

    def __post_init__(self):
        if not 0.0 < self.p <= 1.0:
            raise InvalidParam("innovation probability p must lie in (0, 1]")
        if self.n < 1:
            raise InvalidParam("length n must be positive")
        if self.margins not in ("uniform", "frechet"):
            raise InvalidParam("margins must be 'uniform' or 'frechet'")


def sample_positive_stable(alpha: float, rng: np.random.Generator, size=None):
    """Positive alpha-stable draws with Laplace transform exp(-t^alpha).

    Kanter's representation: with U ~ Uniform(0, pi) and E ~ Exp(1),

        S = [sin(alpha U) sin((1-alpha) U)^((1-alpha)/alpha) / sin(U)^(1/alpha)]
            * E^(-(1-alpha)/alpha).

    alpha = 1 is the unit point mass (returned without touching rng). With
    size=None a scalar is returned, otherwise an ndarray of that shape.
    """
    if not 0.0 < alpha <= 1.0:
        raise InvalidAlpha(f"alpha = {alpha} outside (0, 1]")
    if alpha == 1.0:
        return 1.0 if size is None else np.ones(size)
    scalar = size is None
    u = rng.uniform(0.0, np.pi, size=1 if scalar else size)
    e = rng.exponential(1.0, size=1 if scalar else size)
    ratio = (1.0 - alpha) / alpha
    # the product above, left to right, in place: the same operations in
    # the same order, so the same bits as the one-expression form
    s = np.multiply(alpha, u)
    np.sin(s, out=s)
    t = np.multiply(1.0 - alpha, u)
    np.sin(t, out=t)
    t **= ratio
    s *= t
    np.sin(u, out=t)
    t **= 1.0 / alpha
    s /= t
    e **= -ratio
    s *= e
    return float(s[0]) if scalar else s


def sample_outer_power_clayton(
    theta: float, beta: float, dim: int, n: int, rng: np.random.Generator
) -> np.ndarray:
    """n draws from the outer-power Clayton copula on dim variables.

    Marshall-Olkin scheme: V = Gamma^beta * S with Gamma ~ Gamma(1/theta, 1)
    and S ~ stable(1/beta), then U_j = (1 + (E_j / V)^(1/beta))^(-1/theta)
    for iid unit exponentials E_j. beta = 1 recovers the Clayton copula.
    This is the nested model with one group at beta_g = beta0 = beta.
    """
    return sample_nested(NestedModel(theta, beta, (beta,), (dim,)), n, rng)


def sample_nested(model: NestedModel, n: int, rng: np.random.Generator) -> np.ndarray:
    """n draws from the nested model, one column block per group.

    Global frailty V0 = Gamma^beta0 * S0; group g reuses it as
    V_g = V0^(beta_g/beta0) * S_g with S_g ~ stable(beta0/beta_g), which
    degenerates to V_g = V0 when beta_g = beta0. Cross-group pairs follow
    the outer copula, within-group pairs the group copula. Each group's
    margins are mapped one row chunk at a time and written straight into
    the output, so the scratch beyond it is one chunk and O(n) frailties.
    """
    if n < 1:
        raise InvalidParam("n must be positive")
    out = np.empty((n, model.d))
    for beta_g, cols, rows, x in _frailty_ratios(model, np.arange(n), 1, n, rng):
        out[rows, cols] = _clayton_margin(x, beta_g, model.theta)
    return out


# float64 entries of the buffer that one group's innovations are drawn into
# a chunk at a time (512 KiB); a chunk holds at least one whole block
_DRAW_CHUNK = 1 << 16


def _frailty_ratios(
    model: NestedModel, steps: np.ndarray, m: int, n: int, rng: np.random.Generator
):
    """Yield (beta_g, column slice, block slice, E / V_g) per chunk of whole blocks.

    Every draw of the nested model is made here, in generator order, so
    sample_nested and repetition_block_maxima consume the generator
    identically. The model is drawn at n innovations. Step t is innovation
    steps[t] (steps[0] = 0, each next step the same innovation or the next
    one) and block b is steps b*m .. (b+1)*m - 1. Group by group, the blocks
    come in chunks: the yielded block slice names them, and row i of x is
    innovation steps[blocks.start * m] + i, up to steps[blocks.stop * m - 1].

    x is a view of one buffer of at most _DRAW_CHUNK entries (or of one
    block, if that is larger), which the next chunk overwrites. The
    exponentials are drawn into it with standard_exponential(out=...) in
    the C order of one n x size draw, so the bits and the generator state
    are those of that draw: the same as rng.exponential(1.0, ...), whose
    only extra work is an exact multiply by the unit scale. When a chunk
    starts on the previous chunk's last innovation, that row of x is copied
    to its top, so a caller that writes into x must not have such steps.
    The innovations after the last whole block are drawn and dropped. The
    caller must exhaust the iterator before drawing anything else.
    """
    theta, beta0 = model.theta, model.beta0
    v0 = rng.gamma(1.0 / theta, 1.0, size=n) ** beta0
    v0 *= sample_positive_stable(1.0 / beta0, rng, size=n)
    k = len(steps) // m
    per_chunk = [max(1, _DRAW_CHUNK // (m * size)) for size in model.group_sizes]
    flat = np.empty(max(min(b * m, n) * size for b, size in zip(per_chunk, model.group_sizes)))
    powers = {}  # V0^(beta_g/beta0) per distinct exponent; groups often share one
    start = 0
    for beta_g, size, per in zip(model.group_betas, model.group_sizes, per_chunk):
        v_g = sample_positive_stable(beta0 / beta_g, rng, size=n)
        r = beta_g / beta0
        if r not in powers:
            powers[r] = v0**r
        v_g *= powers[r]
        cols = slice(start, start + size)
        buf = flat[: min(per * m, n) * size].reshape(-1, size)
        lo = drawn = 0  # innovation in buf's first row, innovations drawn so far
        for b0 in range(0, k, per):
            blocks = slice(b0, min(b0 + per, k))
            if steps[b0 * m] < drawn:  # starts on the last row drawn
                buf[0] = buf[drawn - 1 - lo]
            lo = int(steps[b0 * m])
            x = buf[: int(steps[blocks.stop * m - 1]) + 1 - lo]
            fresh = x[drawn - lo :]
            rng.standard_exponential(out=fresh)
            fresh /= v_g[drawn : lo + len(x), None]
            drawn = lo + len(x)
            yield beta_g, cols, blocks, x
        if drawn < n:
            rng.standard_exponential(out=buf[: n - drawn])
        start += size


def _clayton_margin(x: np.ndarray, beta: float, theta: float) -> np.ndarray:
    """U = (1 + X^(1/beta))^(-1/theta), a decreasing map of X = E / V, computed in x.

    x ** c and x **= c take the same scalar-power path, and 1 + y = y + 1,
    so the bits are those of the out-of-place expression.
    """
    x **= 1.0 / beta
    x += 1.0
    x **= -1.0 / theta
    return x


def sample_logistic_ev(
    beta: float, dim: int, n: int, rng: np.random.Generator
) -> np.ndarray:
    """n draws from the logistic (Gumbel-Hougaard) extreme-value copula.

    V ~ stable(1/beta), U_j = exp(-(E_j / V)^(1/beta)). Its extremal
    coefficient on any subset of size p is p^(1/beta); beta = 1 gives
    independence.
    """
    if not beta >= 1.0:
        raise InvalidParam("beta must be at least 1")
    if dim < 1 or n < 1:
        raise InvalidParam("dim and n must be positive")
    v = sample_positive_stable(1.0 / beta, rng, size=n)
    e = rng.exponential(1.0, size=(n, dim))
    return np.exp(-((e / np.asarray(v)[:, None]) ** (1.0 / beta)))


def repetition_process(cfg: RepetitionConfig, rng: np.random.Generator) -> SeriesMatrix:
    """Sample the phi-mixing repetition process as a SeriesMatrix.

    Row 0 is a fresh model draw; row t repeats row t-1 with probability
    1 - p and refreshes otherwise. Implementation draws the n-1 refresh
    indicators first, then all needed innovations in one batch, and expands
    by cumulative indexing. margins='frechet' maps u to -1/log(u).
    """
    rows = _refresh_rows(cfg, rng)
    if rows is None:
        vals = sample_nested(cfg.model, cfg.n, rng)
    else:
        vals = sample_nested(cfg.model, int(rows[-1]) + 1, rng)[rows]
    if cfg.margins == "frechet":
        vals = _frechet(vals)
    return SeriesMatrix(vals)


def repetition_block_maxima(
    cfg: RepetitionConfig, m: int, rng: np.random.Generator
) -> MaximaMatrix:
    """block_maxima(repetition_process(cfg, rng), m) without the n x d series.

    Same generator calls in the same order, same bits out. The series is
    never built: per group, each block's minimum of X = E / V_g is taken
    over the innovations the block covers, and the margin map is applied to
    the minima only. u = (1 + x^(1/beta_g))^(-1/theta) is decreasing in x,
    so the largest u of a block is the map of its smallest x; the Frechet
    map -1/log(u) is increasing, so it commutes with the maximum. Both hold
    bit for bit as long as the floating-point maps are monotone as well,
    which the property tests check. The innovations are drawn in chunks of
    whole blocks into one reused buffer (_frailty_ratios), so the scratch
    is one chunk and O(n) vectors, whatever n x d.
    """
    n = cfg.n
    _check_block_length(m, n)
    k = n // m
    rows = _refresh_rows(cfg, rng)
    if rows is None:  # every step draws its own innovation
        rows = np.arange(n)
    # step t of the series is innovation rows[t]; block b is steps b*m .. (b+1)*m - 1
    steps = rows[: k * m]
    out = np.empty((k, cfg.model.d))
    for beta_g, cols, blocks, x in _frailty_ratios(cfg.model, steps, m, int(rows[-1]) + 1, rng):
        at = steps[blocks.start * m : blocks.stop * m]
        out[blocks, cols] = _clayton_margin(
            _block_minima(x, at - at[0], m), beta_g, cfg.model.theta
        )
    if cfg.margins == "frechet":
        out = _frechet(out)
    return _adopt(MaximaMatrix, out, block_length=m, source_length=n)


def _block_minima(x: np.ndarray, steps: np.ndarray, m: int) -> np.ndarray:
    """Per-block column minima of x over the rows steps[b * m : (b + 1) * m].

    One strided row gather per position in the block, folded with
    np.minimum; a minimum is exact, so the fold order cannot change a bit.
    np.take into one reused buffer, and a gather straight into the output's
    strided view, both measured slower at m = 3 (CHANGES.md).
    """
    mn = x[steps[0::m]]
    for j in range(1, m):
        np.minimum(mn, x[steps[j::m]], out=mn)
    return mn


def _refresh_rows(cfg: RepetitionConfig, rng: np.random.Generator) -> np.ndarray | None:
    """Innovation index of each of the n steps, or None if every step is fresh.

    Draws the n - 1 refresh indicators; p = 1 or n = 1 draws nothing.
    """
    if cfg.p >= 1.0 or cfg.n == 1:
        return None
    fresh = rng.random(cfg.n - 1) < cfg.p
    return np.concatenate([[0], np.cumsum(fresh)])


def _frechet(u: np.ndarray) -> np.ndarray:
    """Unit Frechet margins -1/log(u), increasing in u."""
    # u == 1.0 can occur by rounding; nudge below 1 so -1/log stays finite
    return -1.0 / np.log(np.minimum(u, np.nextafter(1.0, 0.0)))


_MULTINOMIAL_WEIGHTS = (0.5, 0.25, 0.125, 0.0625, 0.0625)


def build_experiment_model(
    experiment: str, d: int, beta: float, rng: np.random.Generator
) -> tuple[NestedModel, Partition]:
    """Model and ground-truth partition for the three experiment layouts.

    E1: two equal blocks. E2: five blocks with sizes multinomial(d) over
    weights (1/2, 1/4, 1/8, 1/16, 1/16), redrawn until all five are nonempty.
    E3: the E2 layout on d - 5 variables plus five appended singletons
    (asymptotically independent blocks of size one). All layouts use
    theta = 1 and beta0 = 1.
    """
    _check_layout(experiment, d)
    if experiment == "E1":
        sizes = (d // 2, d // 2)
    elif experiment == "E2":
        sizes = _nonempty_multinomial(d, rng)
    else:
        sizes = _nonempty_multinomial(d - 5, rng) + (1,) * 5
    model = NestedModel(
        theta=1.0,
        beta0=1.0,
        group_betas=(float(beta),) * len(sizes),
        group_sizes=sizes,
    )
    return model, model.partition()


def _check_layout(experiment: str, d: int) -> None:
    """Reject an unknown experiment, or a d its layout cannot split."""
    if experiment == "E1":
        if d < 2 or d % 2:
            raise IncompatibleDimension("E1 needs an even d >= 2")
    elif experiment == "E2":
        if d < 5:
            raise IncompatibleDimension("E2 needs d >= 5")
    elif experiment == "E3":
        if d < 10:
            raise IncompatibleDimension(
                "E3 needs d >= 10 (five multinomial blocks on d-5 plus five singletons)"
            )
    else:
        raise InvalidParam(f"unknown experiment {experiment!r}")


def _nonempty_multinomial(d: int, rng: np.random.Generator) -> tuple[int, ...]:
    while True:
        sizes = rng.multinomial(d, _MULTINOMIAL_WEIGHTS)
        if sizes.min() >= 1:
            return tuple(int(s) for s in sizes)
