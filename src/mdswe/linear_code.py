"""Linear codes over finite fields and brute-force partition enumeration.

Provides Reed-Solomon evaluation codes, first-order Reed-Muller codes,
codes from arbitrary generator matrices, dualization via null-space
computation, and the exhaustive partition weight enumerator that serves
as the ground truth for every closed form in the package.

The exhaustive enumerator tallies one codeword of each scalar class: c
and a*c (a != 0) have the same support, so it visits only the
(q^k - 1)/(q - 1) words whose last nonzero message symbol is 1, counts
each support q - 1 times and adds the zero word.  The words are built
with numpy in chunks, for every field (numpy is imported by the first
enumeration, so the closed forms never load it), in the one numpy form
of GF(p^m) words, `_word_tables`, which the Monte-Carlo decoder's
syndromes (`montecarlo`) are built in too.  The resulting
histogram of coordinate support masks is cached per code as a mask
array and a count array, and every partition profile count is derived
from those arrays, so enumerating many partitions of the same code costs
one pass over the codeword set.
"""

from __future__ import annotations

import functools
import itertools
import operator
from collections import Counter
from dataclasses import dataclass
from typing import Any, Iterator, Optional, Sequence

from .gf import Field
from .mds_enum import LengthExceedsFieldError, PweTable, check_rs_params  # noqa: F401 (re-exported)

DEFAULT_ENUMERATION_BUDGET = 1 << 26

# bytes per numpy chunk during enumeration and unpacking (memory cap, not a
# semantics knob), whatever the code's length: the exhaustive tally's whole
# working set (the codewords it holds as one array and every temporary
# made from them, `_TALLY_ARRAYS` arrays of that size at most) and each
# chunk of unpacked support bits stay within it.  Chunks stay at a few MB:
# glibc serves later arrays smaller than the largest one freed so far from
# its heap, where freed memory stays resident, so each transient peak stays
# on the process's high-water mark (`mdswe verify --suite all` peaked at
# 105 MB with 32 MiB chunks, 81 MB with 4 MiB, 46 MB when the tally's
# temporaries were not counted, ~41 MB now that they are).
_CHUNK_BYTES = 1 << 22
_TALLY_ARRAYS = 5       # the held codewords plus a tally's four temporaries


class RankDeficientError(ValueError):
    """Generator rows are linearly dependent."""


class BudgetExceededError(ValueError):
    """q^k (or a syndrome table's q^(n-k)) exceeds the enumeration budget."""


def _row_reduce(field: Field, rows: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form over `field`; returns (rref, pivot columns)."""
    rows = [list(r) for r in rows]
    if not rows:
        return [], []
    n = len(rows[0])
    pivots: list[int] = []
    r = 0
    for col in range(n):
        if r == len(rows):
            break
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = field.inv(rows[r][col])
        rows[r] = [field.mul(inv, x) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                c = rows[i][col]
                rows[i] = [field.sub(x, field.mul(c, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
    return rows, pivots


def _detect_systematic(rows: Sequence[Sequence[int]]) -> Optional[tuple[int, ...]]:
    """Columns forming an identity submatrix (one per row), if any."""
    if not rows:
        return None
    k, n = len(rows), len(rows[0])
    cols: list[Optional[int]] = [None] * k
    for j in range(n):
        column = [rows[i][j] for i in range(k)]
        nz = [i for i, v in enumerate(column) if v]
        if len(nz) == 1 and column[nz[0]] == 1 and cols[nz[0]] is None:
            cols[nz[0]] = j
    if any(c is None for c in cols):
        return None
    return tuple(cols)  # type: ignore[arg-type]


def _integer(v, what: str) -> int:
    """v as an int: numpy integers pass; bool, float and str raise ValueError."""
    if isinstance(v, bool) or not hasattr(type(v), "__index__"):
        raise ValueError(f"{what} {v!r} is not an integer")
    return operator.index(v)


class LinearCode:
    """An (n, k) linear code given by a full-rank generator matrix.

    `generator` is a k x n tuple-of-tuples of raw field element values;
    `systematic_columns` lists k coordinates whose submatrix is the identity
    (column for row i at position i), or is None when the generator has no
    such columns.  Codes are immutable.
    """

    def __init__(self, field: Field, generator: Sequence[Sequence[int]], *,
                 n: Optional[int] = None, _skip_rank_check: bool = False):
        rows = tuple(tuple(_integer(v, "entry") for v in row) for row in generator)
        if rows:
            n = len(rows[0])
            if any(len(r) != n for r in rows):
                raise ValueError("ragged generator matrix")
        elif n is None:
            raise ValueError("zero-dimensional code needs an explicit length")
        q = field.order
        for row in rows:
            for v in row:
                if not 0 <= v < q:
                    raise ValueError(f"entry {v} is not an element of {field!r}")
        if rows and not _skip_rank_check:
            _, pivots = _row_reduce(field, [list(r) for r in rows])
            if len(pivots) != len(rows):
                raise RankDeficientError(
                    f"generator has rank {len(pivots)} < {len(rows)} rows")
        self.field = field
        self.generator = rows
        self.n = n
        self.k = len(rows)
        self.systematic_columns = _detect_systematic(rows)

    @property
    def size(self) -> int:
        return self.field.order**self.k

    def codewords(self) -> Iterator[tuple[int, ...]]:
        """All codewords, message vectors in lexicographic order."""
        field, G = self.field, self.generator
        if self.k == 0:
            yield (0,) * self.n
            return
        if field.order <= 1 << 16:
            field.build_tables()
        for msg in itertools.product(range(field.order), repeat=self.k):
            word = [0] * self.n
            for m_i, row in zip(msg, G):
                if m_i:
                    for j, g in enumerate(row):
                        if g:
                            word[j] = field.add(word[j], field.mul(m_i, g))
            yield tuple(word)

    def __eq__(self, other) -> bool:
        return (isinstance(other, LinearCode)
                and self.field == other.field
                and self.n == other.n
                and self.generator == other.generator)

    def __hash__(self) -> int:
        return hash((self.field, self.n, self.generator))

    def __repr__(self) -> str:
        return f"LinearCode(n={self.n}, k={self.k}, field={self.field!r})"


@dataclass(frozen=True)
class Partition:
    """A partition of the n coordinates into p blocks.

    `sizes[i]` is the size of block i; `assignment[j]` is the block index
    of coordinate j.
    """

    sizes: tuple[int, ...]
    assignment: tuple[int, ...]

    def __post_init__(self):
        if any(s <= 0 for s in self.sizes):
            raise ValueError(f"block sizes must be positive: {self.sizes}")
        counts = Counter(self.assignment)
        expect = {i: s for i, s in enumerate(self.sizes)}
        if counts != expect:
            raise ValueError("assignment does not match block sizes")

    @classmethod
    def contiguous(cls, sizes: Sequence[int]) -> "Partition":
        assignment = []
        for i, s in enumerate(sizes):
            assignment.extend([i] * s)
        return cls(tuple(sizes), tuple(assignment))

    @property
    def n(self) -> int:
        return len(self.assignment)

    @property
    def p(self) -> int:
        return len(self.sizes)


# -- exhaustive enumeration -------------------------------------------------


def _check_budget(code: LinearCode, budget: Optional[int]) -> None:
    limit = DEFAULT_ENUMERATION_BUDGET if budget is None else budget
    if code.size > limit:
        raise BudgetExceededError(
            f"q^k = {code.size} exceeds enumeration budget {limit}")


@dataclass(frozen=True, eq=False)
class SupportHistogram:
    """Coordinate-support masks of a code's words, with the exact count of each.

    `masks` is (M, W) little-endian uint64 with W = ceil(n/64) words per
    mask (bit j of the mask is coordinate j), in increasing order, and
    `counts` is the (M,) int64 count of each.  The arrays are read-only,
    because the histogram is cached and shared.
    """

    n: int
    masks: Any
    counts: Any

    def __post_init__(self):
        self.masks.flags.writeable = False
        self.counts.flags.writeable = False

    def bit_chunks(self) -> Iterator[tuple[Any, Any]]:
        """The masks' support bits in consecutive row chunks of at most
        `_CHUNK_BYTES` (one chunk when all fit), as (bits, counts) pairs: row
        i of the (R, n) uint8 `bits` holds one 0/1 per coordinate, and
        `counts` is the (R,) slice of `self.counts` for those rows."""
        import numpy as np

        step = max(1, _CHUNK_BYTES // max(1, self.n))
        for start in range(0, len(self.counts), step):
            masks = self.masks[start:start + step]
            yield (np.unpackbits(masks.view(np.uint8), axis=1, count=self.n,
                                 bitorder="little"),
                   self.counts[start:start + step])


def _sum_by_row(rows, counts=None):
    """Distinct rows of a 2-D integer array, in increasing order (last
    column most significant), with the sum of `counts` over each, or the
    number of times each occurs when `counts` is None."""
    import numpy as np

    order = np.argsort(rows[:, 0]) if rows.shape[1] == 1 else np.lexsort(rows.T)
    rows = rows[order]
    first = np.ones(len(rows), dtype=bool)
    np.any(rows[1:] != rows[:-1], axis=1, out=first[1:])
    start = np.flatnonzero(first)
    if counts is None:
        return rows[start], np.diff(start, append=len(rows))
    return rows[start], np.add.reduceat(counts[order], start)


def _support_masks(nonzero, width: int):
    """(R, width) little-endian uint64 support masks of an (R, 8b) bool array."""
    import numpy as np

    # rows of whole bytes: packing the flat array packs each row, many
    # times faster than packbits(axis=1) on rows this short
    packed = np.packbits(nonzero.reshape(-1), bitorder="little").reshape(
        len(nonzero), nonzero.shape[1] // 8)
    out = np.zeros((len(nonzero), 8 * width), dtype=np.uint8)
    out[:, :packed.shape[1]] = packed
    return out.view("<u8")


def _word_tables(field: Field, vectors, symbols: int):
    """The one numpy form of GF(p^m) words, with the tables that build them.

    A word of `symbols` symbols is one row: one symbol per coordinate,
    added by XOR, when p = 2, or else the m base-p digits of each symbol
    (column i*m + t holds the p^t digit of symbol i), added digit by digit
    mod p.  Returns (tables, add, radix): tables[j][v] is v * vectors[j] in
    that form, zero-padded to `symbols` symbols, in the narrowest dtype that
    holds the sum of two entries; add(a, b) adds arrays of such rows; and a
    row with entries s_i is the word of index sum_i s_i * radix^i, the
    symbols read in base q.
    """
    import numpy as np

    q, p, m = field.order, field.characteristic, field.extension_degree
    planes, radix = (1, q) if p == 2 else (m, p)
    dtype = np.min_scalar_type(q - 1 if p == 2 else 2 * (p - 1))
    if q <= 1 << 16:
        field.build_tables()
    place = radix ** np.arange(planes, dtype=np.int64)
    tables = []
    for u in vectors:
        values = np.zeros((q, symbols), dtype=np.int64)
        values[:, :len(u)] = [[field.mul(v, s) for s in u] for v in range(q)]
        tables.append((values[:, :, None] // place % radix).astype(dtype).reshape(q, -1))

    def add(a, b):
        return a ^ b if p == 2 else (a + b) % p

    return tables, add, radix


@functools.lru_cache(maxsize=128)
def _support_histogram_cached(code: LinearCode) -> SupportHistogram:
    import numpy as np

    field = code.field
    q, k, n = field.order, code.k, code.n
    width = max(1, -(-n // 64))     # uint64 words per mask
    zero = np.zeros((1, width), dtype="<u8")
    if k == 0:
        return SupportHistogram(n, zero, np.ones(1, dtype=np.int64))

    # words in the `_word_tables` form, padded with zero coordinates to a
    # multiple of 8: whole bytes of support bits, and a row at least as
    # wide as its mask (8 bytes per 64 coordinates) and its 8-byte sort index
    padded = -(-n // 8) * 8
    mult, combine, _ = _word_tables(field, code.generator, padded)
    planes = mult[0].shape[1] // padded

    found = []      # (distinct masks, counts) of each chunk

    def tally(offset):
        # every array here holds at most the span's bytes: the shifted
        # words and their support bits, then the masks (8 bytes per 64
        # coordinates), their sort order and their sorted copy
        nonzero = combine(span, offset) != 0
        if planes > 1:
            nonzero = nonzero.reshape(len(span), padded, planes).any(axis=2)
        masks = _support_masks(nonzero, width)
        del nonzero
        found.append(_sum_by_row(masks))

    # c and a*c (a != 0) have one support, so only the words whose last
    # nonzero message symbol is 1 are tallied: g_t + span(g_0..g_{t-1}) for
    # t = 0..k-1, (q^k - 1)/(q - 1) words, each standing for q - 1.  The
    # span of the first i rows is held as one array while it and a tally's
    # temporaries, `_TALLY_ARRAYS` arrays of its size in all, fit in
    # `_CHUNK_BYTES`; the rest of the span is added one offset at a time.
    span = np.zeros_like(mult[0][:1])
    i = 0
    for t in range(k):
        for combo in itertools.product(range(q), repeat=t - i):
            offset = mult[t][1]
            for row_idx, v in enumerate(combo, start=i):
                offset = combine(offset, mult[row_idx][v])
            tally(offset)
        if i == t < k - 1 and _TALLY_ARRAYS * q * span.nbytes <= _CHUNK_BYTES:
            span = combine(span[None, :, :], mult[t][:, None, :]).reshape(-1, span.shape[1])
            i += 1
    masks, counts = _sum_by_row(np.concatenate([f[0] for f in found]),
                                np.concatenate([f[1] for f in found]))
    return SupportHistogram(n, np.concatenate([zero, masks]),
                            np.concatenate([[1], counts * (q - 1)]))


def support_histogram(code: LinearCode, budget: Optional[int] = None) -> SupportHistogram:
    """The code's coordinate-support masks with their exact codeword counts."""
    _check_budget(code, budget)
    return _support_histogram_cached(code)


def brute_force_pwe(code: LinearCode, partition: Partition,
                    budget: Optional[int] = None) -> PweTable:
    """Exact partition weight enumerator by exhaustive codeword tally."""
    if partition.n != code.n:
        raise ValueError(f"partition covers {partition.n} coordinates, code has {code.n}")
    import numpy as np

    hist = support_histogram(code, budget)
    # a mask's weight in each block: its support bits times the block
    # indicator, in the narrowest type that holds n (small keys sort fast)
    member = np.zeros((code.n, partition.p), dtype=np.min_scalar_type(code.n))
    member[np.arange(code.n), partition.assignment] = 1
    parts = [bits @ member for bits, _ in hist.bit_chunks()]
    profiles, counts = _sum_by_row(parts[0] if len(parts) == 1 else np.concatenate(parts),
                                   hist.counts)
    return PweTable(partition.sizes, dict(zip(map(tuple, profiles.tolist()), counts.tolist())))


def brute_force_weights(code: LinearCode, budget: Optional[int] = None) -> list[int]:
    """Exact weight distribution E(0..n) by exhaustive tally."""
    import numpy as np

    hist = support_histogram(code, budget)
    E = np.zeros(code.n + 1, dtype=np.int64)
    for bits, counts in hist.bit_chunks():
        np.add.at(E, bits.sum(axis=1), counts)
    return E.tolist()


def min_distance(code: LinearCode, budget: Optional[int] = None) -> int:
    """Smallest nonzero codeword weight, by exhaustive tally."""
    if code.k == 0:
        raise ValueError(f"the zero code of length {code.n} has no nonzero codeword, "
                         "so no minimum distance")
    E = brute_force_weights(code, budget)
    return next(h for h in range(1, code.n + 1) if E[h])


# -- constructions ------------------------------------------------------------


def _batch_inv(field: Field, values: Sequence[int]) -> list[int]:
    """Inverses of nonzero `values` from one field inversion (Montgomery's
    trick): invert the product of all, then peel the prefix products off."""
    prefix = []
    acc = 1
    for v in values:
        prefix.append(acc)
        acc = field.mul(acc, v)
    acc = field.inv(acc)
    out = [0] * len(values)
    for t in range(len(values) - 1, -1, -1):
        out[t] = field.mul(acc, prefix[t])
        acc = field.mul(acc, values[t])
    return out


def rs_code(field: Field, n: int, k: int,
            eval_points: Optional[Sequence[int]] = None) -> LinearCode:
    """Systematic Reed-Solomon evaluation code of length n, dimension k.

    Codewords are (f(a_1), ..., f(a_n)) for polynomials of degree < k over
    the n distinct nonzero evaluation points; by default the points are
    g^0, g^1, ... for a multiplicative generator g, which makes the code
    cyclic when n = q - 1.  The enumerators of the result do not depend on
    the choice or order of the points.

    The generator is written directly in systematic form [I | P]: row i
    evaluates the Lagrange basis polynomial L_i of the first k points, so
    P[i][j] = l(a_j) * w_i / (a_j - a_i) with l(x) = prod_{l<k} (x - a_l)
    and barycentric weights w_i = 1 / prod_{l<k, l!=i} (a_i - a_l).  That
    is the unique reduced row echelon form of the k x n Vandermonde
    matrix, built in O(k(n-k)) field operations without row reduction:
    each row's denominators share one field inversion (`_batch_inv`).
    """
    check_rs_params(field.order, n, k)
    if eval_points is None:
        g = field.generator()
        eval_points = []
        v = 1
        for _ in range(n):
            eval_points.append(v)
            v = field.mul(v, g)
    else:
        eval_points = [_integer(v, "evaluation point") for v in eval_points]
        if len(eval_points) != n or len(set(eval_points)) != n or 0 in eval_points:
            raise ValueError("evaluation points must be n distinct nonzero elements")
    info, parity = eval_points[:k], eval_points[k:]

    def prod_diff(x: int, points: Sequence[int]) -> int:
        acc = 1
        for y in points:
            acc = field.mul(acc, field.sub(x, y))
        return acc

    ell = [prod_diff(x, info) for x in parity]
    rows = []
    for i, a_i in enumerate(info):
        # 1/w_i and the n-k differences a_j - a_i, inverted together
        w_i, *inv_diffs = _batch_inv(field, [prod_diff(a_i, info[:i] + info[i + 1:]),
                                             *(field.sub(a_j, a_i) for a_j in parity)])
        row = [0] * n
        row[i] = 1
        row[k:] = [field.mul(field.mul(l_j, w_i), inv_d)
                   for l_j, inv_d in zip(ell, inv_diffs)]
        rows.append(row)
    return LinearCode(field, rows, _skip_rank_check=True)


def rm1_code(m: int) -> LinearCode:
    """First-order Reed-Muller code: binary (2^m, m+1).

    Rows are the all-ones vector followed by the m coordinate-indicator
    rows (bit b of the coordinate index).
    """
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    field = Field(2, 1)
    n = 1 << m
    rows = [[1] * n]
    for b in range(m):
        rows.append([(j >> b) & 1 for j in range(n)])
    return LinearCode(field, rows)


def code_from_generator(field: Field, rows: Sequence[Sequence[int]]) -> LinearCode:
    """Code spanned by the given rows; raises RankDeficientError if dependent."""
    if len(rows) == 0:   # not `not rows`: a numpy array has no truth value
        raise ValueError("generator must have at least one row")
    return LinearCode(field, rows)


def dual(code: LinearCode) -> LinearCode:
    """The (n, n-k) dual code: generator spans the null space of `code`'s."""
    field, n, k = code.field, code.n, code.k
    if k == 0:
        ident = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        return LinearCode(field, ident, _skip_rank_check=True)
    rref, pivots = _row_reduce(field, [list(r) for r in code.generator])
    pivot_set = set(pivots)
    free_cols = [j for j in range(n) if j not in pivot_set]
    rows = []
    for f in free_cols:
        v = [0] * n
        v[f] = 1
        for i, pc in enumerate(pivots):
            v[pc] = field.neg(rref[i][f])
        rows.append(v)
    return LinearCode(field, rows, n=n, _skip_rank_check=True)
