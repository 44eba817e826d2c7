"""Finite-size Monte Carlo and exact small-N evaluation of the correlators.

The limit coefficient n_{k,m} equals lim_N N * Cov(M_k, M_m), where
M_k = Tr(A^k) / N is the k-th spectral moment of one sampled matrix.  This
module measures that covariance at finite N, providing the third, statistical
route to the same numbers, plus an exact rational evaluation for tiny N used
to validate the sampler itself.  ``WeightDistribution`` draws the law that
``model.WeightLaw``, the one parser of weight-law specs, reads from its spec,
so routes 1 and 2 take the exact moments of every law drawn here.

Sampling layout
---------------
Samples are drawn a chunk at a time.  Chunk j holds samples j * c to
j * c + c - 1, with c = ``EnsembleSpec.chunk_size``, which depends on N,
alpha and p alone.  The chunk lays its samples out as one block-diagonal
cross block of c * n1 * n2 cells, sample s at rows s * n1 and columns s * n2
on, and uses one counter-based generator (Philox) keyed by (seed, j).  It
draws only the entries that are present, in this fixed order: the edge
count, from Binomial(c * n1 * n2, p / N); then that many distinct cells,
sorted so the entries come in row-major order; then that many weights.

This is the law of the dense layout that drew a presence and a weight for
every cross pair of every sample.  A Binomial(n, q) count followed by a
uniform subset of that size puts each of the n cells in the subset
independently with probability q, so every cell of the chunk is present
independently with probability p / N and carries its own independent
weight.  The blocks share no cell, so they are independent samples of the
ensemble, and chunks are independent by their keys.

A sampled matrix is therefore determined by (seed, sample_index) alone, as
block sample_index mod c of chunk sample_index // c: the whole chunk is
always drawn, and the blocks after the last sample asked for are cut off.
The values drawn for a given (seed, sample_index) differ from those of the
dense layout and of a layout keyed by the sample.  The sample count, kmax
and worker threads cannot affect any sampled value, and estimates are
bit-identical for any thread count.

Spectral moments
----------------
For a bipartite matrix with cross block X, Tr(A^2j) = 2 Tr(H^j) with the
Gram matrix of the columns H = X^T X, and every odd moment is exactly zero.
The sampler keeps X as its nonzero entries and builds H from its structure,
not from a general sparse product.  The diagonal of H holds the column sums
of squared weights.  Two distinct columns meet only in a shared row, so an
entry above the diagonal is the sum, over the pairs of entries of one row, of
their products: the entries already come in row-major order, each is paired
with the later entries of its row, and the pairs are keyed by their two
columns.  A key repeats only where two columns share two or more rows, a
4-cycle of the graph, and its products are merged.  Then Tr(H) = sum x^2 and
Tr(H^2) = sum diag^2 + 2 sum upper^2.  From j = 3, Tr(H^j) = ||B_j||_F^2 in one
chain of sparse products: B_2 = H (diagonal, upper and lower entries in
row-major order), B_j = X B_(j-1) for odd j and X^T B_(j-1) for even j.  So
B_2h = H^h, and B_(2h+1) = X H^h has squared norm Tr(H^h X^T X H^h).  Every
link multiplies by the sparse X or X^T, never by the denser H.
There is no dense matrix and no decomposition.

The kernel takes a chunk of samples at once, to share numpy's per-call cost:
it reads the block-diagonal layout as drawn and splits every trace by block,
so a sample's moments are bit-identical whichever samples share its chunk.
``estimate_correlators`` hands the kernel each drawn chunk whole up to kmax
4, and one sample of it at a time from kmax 6, where the chain's products
outweigh the per-call cost.  The chunks depend on the ensemble alone, never
on the thread count, and worker threads map chunks.  ``trace_moments`` takes
a dense bipartite matrix and the size of its first part, and passes the
cross block's nonzeros to the same kernel as a chunk of one.
"""

from __future__ import annotations

import functools
import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .model import InvalidParamsError, ModelParams, WeightLaw

_MASK64 = (1 << 64) - 1
_MAX_INT64 = (1 << 63) - 1

# One generator per thread, re-keyed for every chunk by ``_keyed_generator``.
_thread_rng = threading.local()

# Expected nonzeros per drawn chunk, and per call of the moments kernel up to
# kmax 4: 8 samples at N = 400 and 2 at N = 1600 (alpha 1/2, p 4).  Larger
# chunks save little per-call cost and raise peak memory by their temporaries.
_CHUNK_ENTRIES = 3200


class FiniteSizeCapError(ValueError):
    code = "finite_size_cap"


class WeightDistribution:
    """Sampler of ``model.WeightLaw(name)``, plus the printable ``name``.

    ``model.WeightLaw`` owns the spec language and parses ``name``; here its
    exact arguments become floats, each of which must lie within float range.
    """

    def __init__(self, name: str):
        law = WeightLaw(name)
        self.name = name
        self._kind = law.kind
        self._args = tuple(self._float(x) for x in law.args)

    def _float(self, value: Fraction) -> float:
        try:
            result = float(value)
        except OverflowError:
            result = 0.0
        # Beyond float range, or a nonzero value that would run as 0.0.
        if result == 0.0 != value:
            raise ValueError(f"weight parameter out of float range in {self.name!r}")
        return result

    def sample(self, rng: np.random.Generator, shape) -> np.ndarray:
        if self._kind == "rademacher":
            return rng.integers(0, 2, size=shape).astype(np.float64) * 2.0 - 1.0
        if self._kind == "constant":
            return np.full(shape, self._args[0])
        if self._kind == "gaussian":
            return rng.standard_normal(shape) * self._args[0]
        v1, q, v2 = self._args
        u = rng.random(shape)
        return np.where(u < q, v1, v2)


def _part1_size(N: int, alpha) -> int:
    """floor(alpha * N), computed exactly."""
    alpha = Fraction(alpha)
    return (alpha.numerator * N) // alpha.denominator


@dataclass(frozen=True)
class EnsembleSpec:
    """One finite ensemble: size, limit parameters, weight law, seed.

    The derived sizes and floats are worked out once per spec, not once per
    sample.
    """

    matrix_size: int
    params: ModelParams
    dist: WeightDistribution
    seed: int

    @functools.cached_property
    def part1_size(self) -> int:
        return _part1_size(self.matrix_size, self.params.alpha)

    @functools.cached_property
    def edge_probability(self) -> float:
        """p / N, the presence probability of each cross pair."""
        return float(self.params.p) / self.matrix_size

    @functools.cached_property
    def weight_scale(self) -> float:
        """sqrt(p), which every drawn weight is divided by."""
        return math.sqrt(float(self.params.p))

    @functools.cached_property
    def chunk_size(self) -> int:
        """Samples per drawn chunk: about ``_CHUNK_ENTRIES`` over the
        expected entry count p * n1 * n2 / N, and at least 1."""
        n1 = self.part1_size
        expected = Fraction(self.params.p) * n1 * (self.matrix_size - n1) / self.matrix_size
        return max(1, math.floor(_CHUNK_ENTRIES / expected))


def _validate_parts(N: int, params: ModelParams) -> None:
    """Check 0 < alpha < 1, that both parts of size N are nonempty, and 1 <= p <= N."""
    if not 0 < params.alpha < 1:
        raise InvalidParamsError("alpha_out_of_range", f"alpha out of range: {params.alpha}")
    if _part1_size(N, params.alpha) == 0:
        raise InvalidParamsError(
            "empty_part", f"part 1 is empty: floor(alpha * N) = 0 for alpha={params.alpha}, N={N}"
        )
    if not 1 <= params.p <= N:
        raise InvalidParamsError(
            "p_out_of_range", f"need 1 <= p <= N for finite size N={N}, got p={params.p}"
        )


def validate_ensemble(spec: EnsembleSpec) -> None:
    N = spec.matrix_size
    if N < 1:
        raise InvalidParamsError("bad_matrix_size", f"matrix size must be >= 1, got {N}")
    _validate_parts(N, spec.params)
    _check_seed(spec.seed)


def _check_seed(seed: int) -> None:
    """Reject a seed outside [0, 2^64): the generator is keyed by 64 bits of it,
    so such a seed would draw the samples of another."""
    if seed < 0:
        raise InvalidParamsError("bad_seed", f"seed must be >= 0, got {seed}")
    if seed > _MASK64:
        raise InvalidParamsError("bad_seed", f"seed must be < 2^64, got {seed}")


def _draw_chunk(spec: EnsembleSpec, chunk: int):
    """Nonzeros (rows, cols, values) of the ``spec.chunk_size`` samples of ``chunk``.

    The samples form one block-diagonal cross block, sample s of the chunk
    at rows s * n1 and columns s * n2 on; the entries are in row-major order.
    """
    n1 = spec.part1_size
    n2 = spec.matrix_size - n1
    cells = spec.chunk_size * n1 * n2
    rng = _keyed_generator(spec.seed, chunk)
    count = int(rng.binomial(cells, spec.edge_probability))
    flat = np.sort(rng.choice(cells, size=count, replace=False, shuffle=False))
    values = spec.dist.sample(rng, count) / spec.weight_scale
    # Cell s * n1 * n2 + i * n2 + j is (s * n1 + i) * n2 + j: its row is
    # already the block-diagonal one, and its column moves by s * n2.
    rows, cols = np.divmod(flat, n2)
    cols += rows // n1 * n2
    return rows, cols, values


def _block(entries, block: int, n1: int, n2: int):
    """The entries of sample ``block`` of a chunk, in its own rows and columns."""
    rows, cols, values = entries
    start, stop = np.searchsorted(rows, (block * n1, block * n1 + n1))
    return rows[start:stop] - block * n1, cols[start:stop] - block * n2, values[start:stop]


def sample_entries(spec: EnsembleSpec, sample_index: int):
    """Nonzeros (rows, cols, values) of the cross block for (spec.seed, sample_index).

    Rows index part 1 and columns part 2, both from zero; the entries are in
    row-major order and independent of call history.  The whole chunk of the
    sample is drawn, and its block is cut out.
    """
    if not 0 <= sample_index <= _MASK64:
        raise ValueError(f"sample index must be in [0, 2^64), got {sample_index}")
    n1 = spec.part1_size
    chunk, block = divmod(sample_index, spec.chunk_size)
    return _block(_draw_chunk(spec, chunk), block, n1, spec.matrix_size - n1)


def _keyed_generator(seed: int, chunk: int) -> np.random.Generator:
    """This thread's generator, drawing exactly as ``Philox(key=(seed, chunk))``.

    Building a ``Philox`` reads OS entropy even when a key is given, so the
    thread's one bit generator is reset to counter 0 under the new key.  A
    seed outside [0, 2^64) is rejected, since it would draw the samples of
    another.
    """
    _check_seed(seed)
    rng = getattr(_thread_rng, "rng", None)
    if rng is None:
        rng = _thread_rng.rng = np.random.Generator(np.random.Philox(key=0))
    key = np.array([seed, chunk], dtype=np.uint64)
    zeros = np.zeros(4, dtype=np.uint64)
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": zeros, "key": key},
        "buffer": zeros,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


def sample_matrix(spec: EnsembleSpec, sample_index: int) -> np.ndarray:
    """The dense matrix of ``sample_entries(spec, sample_index)``."""
    N = spec.matrix_size
    n1 = spec.part1_size
    rows, cols, values = sample_entries(spec, sample_index)
    A = np.zeros((N, N))
    A[rows, n1 + cols] = values
    A[n1 + cols, rows] = values
    return A


def _merge(keys, weights, bound: int):
    """The distinct ``keys`` ascending, and the sum of the ``weights`` of each.

    Every key is in [0, ``bound``).  Sorting key * n + i (n keys, i the
    position of the key) groups equal keys in input order, so each sum adds
    its weights in input order, and one ``np.sort`` costs less than the
    argsort behind ``np.unique(..., return_inverse=True)``.
    """
    n = len(keys)
    if bound * n > _MAX_INT64:
        raise OverflowError(f"{n} keys below {bound} do not pack into int64")
    ordered, index = np.divmod(np.sort(keys * n + np.arange(n)), n)
    starts = np.empty(n, dtype=bool)
    starts[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
    return ordered[starts], np.bincount(np.cumsum(starts) - 1, weights=weights[index])


def _sparse_product(left, right, width: int):
    """Product of two sparse matrices given as (rows, cols, values).

    ``left`` may come in any order; ``right`` must be sorted by row.  ``width``
    bounds the row indices of ``left`` and the column indices of ``right``.
    The result has one entry per distinct position, in row-major order.
    """
    left_rows, left_cols, left_values = left
    right_rows, right_cols, right_values = right
    start = np.searchsorted(right_rows, left_cols, side="left")
    counts = np.searchsorted(right_rows, left_cols, side="right") - start
    total = int(counts.sum())
    ends = np.cumsum(counts)
    picked = np.repeat(start - ends + counts, counts) + np.arange(total)
    owner = np.repeat(np.arange(len(left_values)), counts)
    positions, values = _merge(
        left_rows[owner] * width + right_cols[picked],
        left_values[owner] * right_values[picked],
        width * width,
    )
    rows, cols = np.divmod(positions, width)
    return rows, cols, values


def _gram(rows, cols, values, width: int):
    """Diagonal and upper triangle of H = X^T X, X given by its distinct
    nonzeros in row-major order and ``width`` columns.

    Returns the dense diagonal and the entries above it as (keys, values),
    keys j * width + j' with j < j' ascending.  Columns j and j' meet only in
    a shared row, so each upper entry sums the products of the pairs of
    entries in one row; a key repeats only where two columns share two or
    more rows (a 4-cycle), and its products are merged.
    """
    diagonal = np.bincount(cols, weights=values * values, minlength=width)
    # Each entry pairs with the ``later`` entries after it in its row:
    # ``second`` runs over first + 1 .. first + later[first].
    index = np.arange(len(rows))
    later = np.cumsum(np.bincount(rows))[rows] - index - 1
    first = np.repeat(index, later)
    second = np.arange(len(first)) + np.repeat(index + 1 - np.cumsum(later) + later, later)
    keys, upper = _merge(
        cols[first] * width + cols[second], values[first] * values[second], width * width
    )
    return diagonal, keys, upper


def _block_moments(entries, count: int, n1: int, n2: int, size: int, kmax: int) -> np.ndarray:
    """M_k = Tr(A^k)/size, k = 1..kmax (column k-1), one row per sample.

    Each of the ``count`` samples is the n1 x n2 cross block X of a bipartite
    A.  ``entries`` is the (rows, cols, values) of the distinct nonzeros, in
    row-major order, of the block-diagonal cross block they form, sample s
    at rows s * n1 and columns s * n2 on.  Every trace is summed block by
    block, in the same order as for the sample alone.  Tr(A^2j) = 2 Tr(H^j)
    with H = X^T X.
    Tr(H) = sum x^2 and Tr(H^2) = sum diag^2 + 2 sum upper^2; from j = 3,
    Tr(H^j) = ||B_j||_F^2 with B_2 = H, B_j = X B_(j-1) for odd j (split by n1)
    and X^T B_(j-1) for even j (split by n2).
    """
    out = np.zeros((count, kmax))
    jmax = kmax // 2
    if jmax == 0:
        return out
    rows, cols, values = entries
    width = count * n2
    traces = [np.bincount(rows // n1, weights=values * values, minlength=count)]
    if jmax >= 2:
        diagonal, keys, upper = _gram(rows, cols, values, width)
        traces.append(
            np.bincount(np.arange(width) // n2, weights=diagonal * diagonal, minlength=count)
            + 2.0 * np.bincount(keys // (n2 * width), weights=upper * upper, minlength=count)
        )
    if jmax >= 3:
        # H as diagonal, upper and lower entries in row-major order; a zero
        # diagonal entry adds nothing to any trace.
        present = np.flatnonzero(diagonal)
        upper_rows, upper_cols = np.divmod(keys, width)
        flat = np.concatenate((present * (width + 1), keys, upper_cols * width + upper_rows))
        order = np.argsort(flat)
        gram_rows, gram_cols = np.divmod(flat[order], width)
        link = gram_rows, gram_cols, np.concatenate((diagonal[present], upper, upper))[order]
        # links[j % 2]: the left factor of B_j and the block size of its rows.
        links = (((cols, rows, values), n2), ((rows, cols, values), n1))
        span = count * max(n1, n2)
        for j in range(3, jmax + 1):
            left, block = links[j % 2]
            link = _sparse_product(left, link, span)
            traces.append(np.bincount(link[0] // block, weights=link[2] * link[2], minlength=count))
    for j, trace in enumerate(traces, start=1):
        out[:, 2 * j - 1] = 2.0 * trace / size
    return out


def trace_moments(A: np.ndarray, kmax: int, part_size: int) -> np.ndarray:
    """Spectral moments M_k = Tr(A^k)/N, k = 1..kmax (index k-1), of a bipartite A.

    Part 1 is the first ``part_size`` indices; only the cross block is read.
    """
    N = A.shape[0]
    block = A[:part_size, part_size:]
    rows, cols = np.nonzero(block)
    return _block_moments((rows, cols, block[rows, cols]), 1, part_size, N - part_size, N, kmax)[0]


@dataclass(frozen=True)
class MCEstimate:
    """Batched estimate of N * Cov(M_k, M_m) at one finite size."""

    k: int
    m: int
    matrix_size: int
    samples: int
    batches: int
    mean: float
    stderr: float


def estimate_correlators(
    spec: EnsembleSpec,
    pairs: Sequence,
    samples: int,
    batches: int = 20,
    threads: int = 1,
) -> list:
    """One estimate per (k, m) pair, all from the same sample stream.

    The standard error comes from splitting the stream into ``batches``
    contiguous batches and treating the per-batch covariances as independent
    measurements; ``batches`` is clamped so every batch holds at least two
    samples.
    """
    validate_ensemble(spec)
    if samples < 2:
        raise ValueError(f"need at least 2 samples, got {samples}")
    if batches < 1:
        raise ValueError(f"need at least 1 batch, got {batches}")
    if threads < 1:
        raise ValueError(f"need at least 1 thread, got {threads}")
    if not pairs:
        raise ValueError("need at least one (k, m) pair")
    for k, m in pairs:
        if k < 1 or m < 1:
            raise ValueError(f"moment indices must be >= 1, got ({k}, {m})")
    # Odd pairs need no moments, so they do not raise kmax.
    orders = [max(k, m) for k, m in pairs if k % 2 == 0 and m % 2 == 0]

    if orders:
        kmax = max(orders)
        N = spec.matrix_size
        n1 = spec.part1_size
        n2 = N - n1
        chunk = spec.chunk_size

        def worker(start: int) -> np.ndarray:
            count = min(chunk, samples - start)
            rows, cols, values = _draw_chunk(spec, start // chunk)
            # Cut off the blocks past the last sample.
            stop = np.searchsorted(rows, count * n1)
            entries = rows[:stop], cols[:stop], values[:stop]
            # Pool threads do not inherit numpy's error state; the caller rejects inf and NaN.
            with np.errstate(over="ignore", invalid="ignore"):
                # A chunk shares numpy's per-call cost, the larger part of a
                # sample's moments up to kmax 4.  From kmax 6 each sample's
                # sparse products cost far more, and a chunk's larger
                # temporaries slow them down.
                if kmax <= 4:
                    return _block_moments(entries, count, n1, n2, N, kmax)
                return np.vstack([
                    _block_moments(_block(entries, s, n1, n2), 1, n1, n2, N, kmax)
                    for s in range(count)
                ])

        starts = range(0, samples, chunk)
        if threads > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                blocks = list(pool.map(worker, starts))
        else:
            blocks = [worker(start) for start in starts]
        moments = np.vstack(blocks)

    batches_eff = max(1, min(batches, samples // 2))
    boundaries = np.array_split(np.arange(samples), batches_eff)
    out = []
    for k, m in pairs:
        if k % 2 != 0 or m % 2 != 0:
            # Odd moments vanish sample by sample (bipartite symmetry), so
            # the covariance is exactly zero; no sampling required.
            out.append(MCEstimate(k, m, spec.matrix_size, samples, batches_eff, 0.0, 0.0))
            continue
        x = moments[:, k - 1]
        y = moments[:, m - 1]
        values = []
        with np.errstate(over="ignore", invalid="ignore"):
            for batch in boundaries:
                xc = x[batch]
                yc = y[batch]
                cov = float(np.sum((xc - xc.mean()) * (yc - yc.mean())) / (len(batch) - 1))
                values.append(spec.matrix_size * cov)
        values = np.array(values)
        mean = float(values.mean())
        if batches_eff > 1:
            stderr = float(values.std(ddof=1) / math.sqrt(batches_eff))
        else:
            stderr = 0.0
        out.append(MCEstimate(k, m, spec.matrix_size, samples, batches_eff, mean, stderr))
    return out


# ---------------------------------------------------------------------------
# Exact finite-N correlator for weight laws with finitely many values


def _matmul(a, b):
    rows = len(a)
    inner = len(b)
    cols = len(b[0]) if inner else 0
    return [
        [sum(a[i][t] * b[t][j] for t in range(inner)) for j in range(cols)]
        for i in range(rows)
    ]


def _trace(a) -> Fraction:
    return sum((a[i][i] for i in range(len(a))), Fraction(0))


def exact_finite_N(
    N: int,
    params: ModelParams,
    law: str,
    k: int,
    m: int,
) -> Fraction:
    """N * Cov(M_k, M_m) summed exactly over all edge configurations.

    ``law`` is a ``model.WeightLaw`` spec of a law with finitely many values,
    ``rademacher``, ``constant:c`` or ``two-point:v1,q,v2``: each present
    edge carries each value with its probability.  A ``gaussian`` law, or a
    spec ``WeightLaw`` rejects, raises ``InvalidParamsError``.  Feasible only
    for N <= 6 (the configuration space is exponential in the number of
    cross pairs).
    """
    if N < 1:
        raise InvalidParamsError("bad_matrix_size", f"matrix size must be >= 1, got {N}")
    if N > 6:
        raise FiniteSizeCapError(
            f"exact finite-size evaluation is capped at N = 6, got N = {N}"
        )
    _validate_parts(N, params)
    if k < 1 or m < 1:
        raise ValueError(f"moment indices must be >= 1, got ({k}, {m})")
    try:
        parsed = WeightLaw(law)
    except ValueError as exc:
        raise InvalidParamsError("bad_weight_law", str(exc)) from exc
    if parsed.kind == "gaussian":
        raise InvalidParamsError(
            "continuous_weight_law",
            f"exact finite-size evaluation needs finitely many weight values, got {law!r}",
        )
    if k % 2 != 0 or m % 2 != 0:
        return Fraction(0)

    if parsed.kind == "rademacher":
        values = [(Fraction(1), Fraction(1, 2)), (Fraction(-1), Fraction(1, 2))]
    elif parsed.kind == "constant":
        values = [(parsed.args[0], Fraction(1))]
    else:
        v1, q, v2 = parsed.args
        values = [(v1, q), (v2, 1 - q)]
    p = Fraction(params.p)
    present = p / N
    # The values an entry can take, 0 when absent, each with its
    # probability; equal values merge into one state.
    merged = {Fraction(0): 1 - present}
    for value, prob in values:
        merged[value] = merged.get(value, 0) + present * prob
    states = [(value, prob) for value, prob in merged.items() if prob != 0]

    n1 = _part1_size(N, params.alpha)
    n2 = N - n1
    pair_count = n1 * n2

    jk, jm = k // 2, m // 2
    jmax = max(jk, jm)
    scale_k = Fraction(1) / (N * p**jk)
    scale_m = Fraction(1) / (N * p**jm)

    mean_k = mean_m = mean_km = Fraction(0)
    from itertools import product as _product

    for assignment in _product(states, repeat=pair_count):
        prob = Fraction(1)
        for _, state_prob in assignment:
            prob *= state_prob
        X = [
            [assignment[i * n2 + j][0] for j in range(n2)]
            for i in range(n1)
        ]
        Xt = [[X[i][j] for i in range(n1)] for j in range(n2)]
        gram = _matmul(X, Xt)  # n1 x n1; Tr(A^2j) = 2 * Tr(gram^j) before scaling
        traces = {}
        power = gram
        for j in range(1, jmax + 1):
            if j > 1:
                power = _matmul(power, gram)
            traces[j] = 2 * _trace(power)
        tk = traces[jk] * scale_k
        tm = traces[jm] * scale_m
        mean_k += prob * tk
        mean_m += prob * tm
        mean_km += prob * tk * tm
    return N * (mean_km - mean_k * mean_m)
