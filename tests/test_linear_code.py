import random
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from mdswe import linear_code
from mdswe.gf import Field, field_from_order
from mdswe.linear_code import (BudgetExceededError, LengthExceedsFieldError, LinearCode,
                               Partition, RankDeficientError, _batch_inv, _row_reduce,
                               brute_force_pwe, brute_force_pwes,
                               brute_force_weights, code_from_generator, dual, min_distance,
                               rm1_code, rs_code, support_histogram)
from mdswe.mds_enum import MdsParams, PweTable, pwgf

F2 = Field(2, 1)
F8 = Field(2, 3)

# generator of the 8-codeword (5,3) counterexample code
ROWS_53 = [[1, 0, 0, 1, 1], [0, 1, 0, 0, 1], [0, 0, 1, 0, 1]]
# cyclic binary Hamming code, shifts of 1 + x + x^3
ROWS_HAMMING74 = [[1, 1, 0, 1, 0, 0, 0], [0, 1, 1, 0, 1, 0, 0],
                  [0, 0, 1, 1, 0, 1, 0], [0, 0, 0, 1, 1, 0, 1]]


# every prime power q <= 64; each has a default field
SMALL_ORDERS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32, 37,
                41, 43, 47, 49, 53, 59, 61, 64]


def default_points(field, n):
    g = field.generator()
    return [field.pow(g, i) for i in range(n)]


def vandermonde_rref(field, points, k):
    """Reference generator: row-reduce the k x n Vandermonde matrix."""
    field = field_from_order(field.order)
    field.build_tables()  # a separate field, so the code under test stays table-free
    rows = [[field.pow(a, i) for a in points] for i in range(k)]
    rref, pivots = _row_reduce(field, rows)
    assert pivots == list(range(k))
    return tuple(tuple(r) for r in rref)


def rs_shapes(q):
    """(n, k) pairs: full length and shortened, each with k = 1, k = n and a middle k."""
    return sorted({(n, k) for n in {q - 1, max(1, q - 3)} for k in {1, n, max(1, n // 2)}})


class TestRsCode:
    @pytest.mark.parametrize("q", SMALL_ORDERS)
    def test_generator_equals_vandermonde_rref(self, q):
        field = field_from_order(q)
        for n, k in rs_shapes(q):
            assert rs_code(field, n, k).generator == \
                vandermonde_rref(field, default_points(field, n), k), (n, k)
        n, k = q - 1, max(1, (q - 1) // 2)
        pts = default_points(field, n)
        for points in (pts[::-1], random.Random(q).sample(pts, n)):
            assert rs_code(field, n, k, eval_points=points).generator == \
                vandermonde_rref(field, points, k), points

    def test_63_51_equals_vandermonde_rref(self):
        field = field_from_order(64)
        assert rs_code(field, 63, 51).generator == \
            vandermonde_rref(field, default_points(field, 63), 51)

    def test_255_223_satisfies_parity_checks(self):
        # too slow for the reference: check the systematic prefix and sampled
        # rows against the generalized-RS parity checks
        # sum_j u_j a_j^r c_j = 0 for r < n - k, u_j = 1/prod_{l != j}(a_j - a_l)
        field, n, k = field_from_order(256), 255, 223
        start = time.perf_counter()
        code = rs_code(field, n, k)
        assert time.perf_counter() - start < 5.0
        assert code.systematic_columns == tuple(range(k))
        assert [row[:k] for row in code.generator] == \
            [tuple(int(i == j) for j in range(k)) for i in range(k)]
        field.build_tables()
        pts = default_points(field, n)
        u = []
        for j, a_j in enumerate(pts):
            acc = 1
            for l, a_l in enumerate(pts):
                if l != j:
                    acc = field.mul(acc, field.sub(a_j, a_l))
            u.append(field.inv(acc))
        for i in random.Random(7).sample(range(k), 6) + [0, k - 1]:
            row = code.generator[i]
            for r in range(n - k):
                acc = 0
                for u_j, a_j, c_j in zip(u, pts, row):
                    acc = field.add(acc, field.mul(field.mul(u_j, field.pow(a_j, r)), c_j))
                assert acc == 0, (i, r)

    @pytest.mark.parametrize("q", [2, 8, 9, 13, 25, 64])
    def test_batch_inverse_matches_single_inverses(self, q):
        field = field_from_order(q)
        values = random.Random(q).choices(range(1, q), k=3 * q)
        assert _batch_inv(field, values) == [field.inv(v) for v in values]
        assert _batch_inv(field, []) == []

    def test_7_3_is_mds_with_512_words(self):
        c = rs_code(F8, 7, 3)
        assert (c.n, c.k) == (7, 3)
        assert sum(brute_force_weights(c)) == 512
        assert min_distance(c) == 5

    def test_whole_space(self):
        c = rs_code(F8, 7, 7)
        assert min_distance(c) == 1
        assert sum(brute_force_weights(c)) == 8**7

    def test_15_11_constructs(self):
        c = rs_code(Field(2, 4), 15, 11)
        assert (c.n, c.k) == (15, 11)
        assert c.systematic_columns == tuple(range(11))

    def test_length_exceeds_field(self):
        with pytest.raises(LengthExceedsFieldError):
            rs_code(F8, 8, 3)

    def test_systematic_prefix(self):
        c = rs_code(F8, 7, 3)
        for i in range(3):
            assert [c.generator[i][j] for j in range(3)] == [int(i == j) for j in range(3)]

    def test_min_weight_at_least_d_exhaustive(self):
        for q, n, k in [(4, 3, 2), (8, 7, 3), (8, 7, 5), (16, 15, 4)]:
            c = rs_code(Field(2, q.bit_length() - 1), n, k)
            E = brute_force_weights(c)
            assert all(E[h] == 0 for h in range(1, n - k + 1))


class TestRm1Code:
    def test_m1_full_space(self):
        c = rm1_code(1)
        assert (c.n, c.k) == (2, 2)
        assert sum(brute_force_weights(c)) == 4

    def test_m3_weights(self):
        # all 16 codewords: zero, all-ones, and 14 of weight 4
        assert brute_force_weights(rm1_code(3)) == [1, 0, 0, 0, 14, 0, 0, 0, 1]

    def test_m2_weights(self):
        assert brute_force_weights(rm1_code(2)) == [1, 0, 6, 0, 1]

    @pytest.mark.parametrize("m", [5, 6, 7])
    def test_weights_for_long_codes(self, m):
        # n = 2^m reaches 64 and 128 coordinates, past one 64-bit mask word
        E = brute_force_weights(rm1_code(m))
        assert {h: c for h, c in enumerate(E) if c} == \
            {0: 1, 1 << (m - 1): (1 << (m + 1)) - 2, 1 << m: 1}


class TestCodeFromGenerator:
    def test_counterexample_codewords(self):
        c = code_from_generator(F2, ROWS_53)
        words = {"".join(map(str, w)) for w in c.codewords()}
        assert words == {"00000", "10011", "01001", "11010",
                         "00101", "10110", "01100", "11111"}

    def test_zero_code_has_no_min_distance(self):
        zero = dual(code_from_generator(F2, [[1, 0], [0, 1]]))
        with pytest.raises(ValueError, match="zero code"):
            min_distance(zero)

    def test_identity_gives_full_space(self):
        c = code_from_generator(F8, [[1, 0], [0, 1]])
        assert sum(brute_force_weights(c)) == 64
        assert min_distance(c) == 1

    def test_repetition_code(self):
        c = code_from_generator(F2, [[1] * 6])
        assert brute_force_weights(c) == [1, 0, 0, 0, 0, 0, 1]

    def test_rank_deficient_rejected(self):
        with pytest.raises(RankDeficientError):
            code_from_generator(F2, [[1, 1, 0], [1, 1, 0]])

    def test_entry_out_of_field_rejected(self):
        with pytest.raises(ValueError):
            code_from_generator(F2, [[0, 2]])

    @pytest.mark.parametrize("build, message", [
        (lambda: code_from_generator(F2, [[1.7, 0, 1], [0, 1, 1]]), "entry 1.7 "),
        (lambda: code_from_generator(F2, [[1, 0, 1], [0, True, 1]]), "entry True "),
        (lambda: code_from_generator(F2, [["1", 0, 1]]), "entry '1' "),
        (lambda: rs_code(F8, 3, 2, eval_points=[1, 2.0, 3]), "evaluation point 2.0 "),
    ], ids=["float", "bool", "numeric-string", "float-eval-point"])
    def test_non_integer_entry_rejected(self, build, message):
        with pytest.raises(ValueError, match=f"^{message}is not an integer$"):
            build()

    def test_numpy_integer_entries_accepted(self):
        np = pytest.importorskip("numpy")
        rows = np.array([[1, 0, 1], [0, 1, 1]], dtype=np.int64)
        assert code_from_generator(F2, rows).generator == ((1, 0, 1), (0, 1, 1))
        points = np.arange(1, 8, dtype=np.uint8)
        assert rs_code(F8, 7, 3, eval_points=points).generator == \
            rs_code(F8, 7, 3, eval_points=list(range(1, 8))).generator


class TestDual:
    def test_dual_of_full_space_is_zero_code(self):
        c = code_from_generator(F8, [[1, 0], [0, 1]])
        d = dual(c)
        assert d.k == 0
        assert list(d.codewords()) == [(0, 0)]

    def test_dual_of_zero_code_is_full_space(self):
        z = dual(code_from_generator(F2, [[1, 0], [0, 1]]))
        assert sum(brute_force_weights(dual(z))) == 4

    def test_dual_rm1_3_is_extended_hamming(self):
        d = dual(rm1_code(3))
        assert (d.n, d.k) == (8, 4)
        assert min_distance(d) == 4

    def test_biduality_same_codeword_set(self):
        c = code_from_generator(F2, ROWS_53)
        dd = dual(dual(c))
        assert set(c.codewords()) == set(dd.codewords())

    @pytest.mark.parametrize("seed", range(4))
    def test_orthogonality_random_codes(self, seed):
        rng = random.Random(seed)
        field = [F2, Field(2, 2), F8][seed % 3]
        n = rng.randint(3, 8)
        k = rng.randint(1, n - 1)
        while True:
            rows = [[rng.randrange(field.order) for _ in range(n)] for _ in range(k)]
            try:
                c = code_from_generator(field, rows)
                break
            except RankDeficientError:
                continue
        d = dual(c)
        assert d.k == n - k
        for r1 in c.generator:
            for r2 in d.generator:
                acc = 0
                for a, b in zip(r1, r2):
                    acc = field.add(acc, field.mul(a, b))
                assert acc == 0


class TestPartition:
    def test_contiguous(self):
        p = Partition.contiguous((1, 1, 2, 3))
        assert p.assignment == (0, 1, 2, 2, 3, 3, 3)
        assert (p.n, p.p) == (7, 4)

    def test_sizes_must_match_assignment(self):
        with pytest.raises(ValueError):
            Partition((2, 1), (0, 1, 1))
        with pytest.raises(ValueError):
            Partition((0, 3), (1, 1, 1))


class TestBruteForcePwe:
    def test_paper_profiles(self):
        t = brute_force_pwe(rs_code(F8, 7, 3), Partition.contiguous((1, 1, 2, 3)))
        assert t.counts[(1, 1, 2, 1)] == 21
        assert t.counts[(1, 1, 2, 3)] == 217
        assert t.counts[(0, 0, 0, 0)] == 1
        assert t.total() == 512

    def test_single_block_is_weight_distribution(self):
        t = brute_force_pwe(rs_code(F8, 7, 3), Partition.contiguous((7,)))
        assert t.counts == {(0,): 1, (5,): 147, (6,): 147, (7,): 217}

    def test_total_is_q_to_k(self):
        for code in (rs_code(F8, 6, 2), rm1_code(3),
                     code_from_generator(F2, ROWS_HAMMING74)):
            part = Partition.contiguous((code.n,))
            assert brute_force_pwe(code, part).total() == code.size

    def test_scattered_assignment_matches_sizes_only(self):
        # MDS enumerators depend on block sizes, not which coordinates
        code = rs_code(F8, 7, 3)
        contiguous = brute_force_pwe(code, Partition.contiguous((3, 4)))
        scattered = brute_force_pwe(
            code, Partition((3, 4), (0, 1, 0, 1, 0, 1, 1)))
        assert contiguous == scattered

    def test_budget_enforced(self):
        with pytest.raises(BudgetExceededError):
            brute_force_pwe(rs_code(F8, 7, 5), Partition.contiguous((7,)), budget=100)

    def test_partition_length_checked(self):
        with pytest.raises(ValueError):
            brute_force_pwe(rs_code(F8, 7, 3), Partition.contiguous((3, 3)))

    def test_odd_prime_field(self):
        f5 = Field(5, 1)
        c = rs_code(f5, 4, 2)
        E = brute_force_weights(c)
        assert sum(E) == 25 and E[0] == 1 and E[1] == E[2] == 0

    def test_odd_extension_field(self):
        f9 = Field(3, 2)
        c = rs_code(f9, 4, 2)
        E = brute_force_weights(c)
        assert sum(E) == 81 and E[1] == E[2] == 0

    def test_histogram_complete(self):
        code = rm1_code(3)
        hist = histogram_dict(support_histogram(code))
        assert sum(hist.values()) == 16
        assert hist[0] == 1


def _gf16_wide_code():
    # two rows over GF(16) on 70 coordinates: past one 64-bit mask word
    f16 = field_from_order(16)
    return code_from_generator(f16, [[1] * 70, [f16.pow(2, j % 15) for j in range(70)]])


def _gf4_wide_code():
    rng = random.Random(70)
    return code_from_generator(field_from_order(4),
                               [[rng.randrange(4) for _ in range(70)] for _ in range(5)])


def _zero_code():
    return dual(code_from_generator(F2, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]))


def word_bytes(code):
    """Bytes of one codeword row in the tally: one element of GF(2^m), or
    the m base-p digits of one element, per coordinate of n padded to a
    whole byte of support bits."""
    field = code.field
    p, m, q = field.characteristic, field.extension_degree, field.order
    planes, largest = (1, q - 1) if p == 2 else (m, 2 * (p - 1))
    return -(-code.n // 8) * 8 * planes * np.min_scalar_type(largest).itemsize


def histogram_dict(hist):
    """A SupportHistogram's arrays as {support mask as an int: count}."""
    return {int.from_bytes(row.tobytes(), "little"): c
            for row, c in zip(hist.masks, hist.counts.tolist())}


def python_histogram(code):
    """Reference: the support of every one of the q^k codewords, one at a time."""
    return Counter(sum(1 << j for j, v in enumerate(word) if v) for word in code.codewords())


def block_masks(partition):
    """Bit mask of each block's coordinates: bit j of mask b is set iff
    coordinate j lies in block b."""
    masks = [0] * partition.p
    for j, b in enumerate(partition.assignment):
        masks[b] |= 1 << j
    return masks


def python_pwe(code, partition):
    """Reference: project each reference mask onto the blocks in Python."""
    masks = block_masks(partition)
    counts = Counter()
    for mask, c in python_histogram(code).items():
        counts[tuple((mask & bm).bit_count() for bm in masks)] += c
    return dict(counts)


@pytest.fixture
def fresh_histograms():
    """Tally afresh, and keep no histogram tallied under a patched chunk size."""
    linear_code._support_histogram_cached.cache_clear()
    yield
    linear_code._support_histogram_cached.cache_clear()


HISTOGRAM_CODES = [
    *(pytest.param(lambda m=m: rm1_code(m), id=f"rm1-{m}") for m in range(1, 8)),
    pytest.param(lambda: rs_code(Field(3, 1), 2, 1), id="rs-2-1-3"),
    pytest.param(lambda: code_from_generator(Field(3, 1), [
        [1, 0, 0, 2, 1, 1, 0, 2, 1, 1], [0, 1, 0, 1, 2, 0, 1, 1, 2, 1],
        [0, 0, 1, 1, 1, 2, 2, 0, 1, 2]]), id="gf3-10-3"),
    pytest.param(lambda: rs_code(field_from_order(4), 3, 2), id="rs-3-2-4"),
    pytest.param(lambda: code_from_generator(field_from_order(4), [
        [1, 2, 3, 0, 1, 1], [0, 1, 1, 2, 3, 0], [3, 0, 0, 1, 1, 2]]), id="gf4-6-3"),
    pytest.param(lambda: rs_code(Field(5, 1), 4, 2), id="rs-4-2-5"),
    pytest.param(lambda: dual(rs_code(Field(7, 1), 6, 2)), id="dual-6-2-7"),
    pytest.param(lambda: rs_code(F8, 7, 3), id="rs-7-3-8"),
    pytest.param(lambda: dual(rm1_code(3)), id="dual-rm1-3"),
    pytest.param(lambda: rs_code(field_from_order(9), 8, 3), id="rs-8-3-9"),
    pytest.param(lambda: code_from_generator(field_from_order(9), [
        [1, 0, 5, 7, 0, 8, 2], [0, 3, 3, 1, 4, 0, 6]]), id="gf9-7-2"),
    pytest.param(lambda: rs_code(field_from_order(16), 15, 3), id="rs-15-3-16"),
    pytest.param(lambda: dual(rs_code(field_from_order(16), 15, 12)), id="dual-15-12-16"),
    pytest.param(_gf16_wide_code, id="gf16-70-2"),
    pytest.param(_gf4_wide_code, id="gf4-70-5"),
    pytest.param(lambda: code_from_generator(F2, [[1] * 300, [j % 3 // 2 for j in range(300)]]),
                 id="gf2-300-2"),
    pytest.param(_zero_code, id="zero-code"),
]


@pytest.mark.parametrize("q", [4, 8, 5, 9, 4099])
def test_word_tables_read_back_to_the_field(q):
    # tables[j][v], read symbol by symbol, is v * u_j padded with a zero
    # symbol; add is the field's addition; and a row read in `radix` is
    # the index of its symbols read in base q
    field = field_from_order(q)
    rng = random.Random(q)
    vectors = [[rng.randrange(q) for _ in range(3)] for _ in range(2)]
    tables, add, radix = linear_code._word_tables(field, vectors, 4)
    planes = tables[0].shape[1] // 4

    def symbols(rows):
        return (rows.astype(np.int64).reshape(q, 4, planes) @ radix ** np.arange(planes)).tolist()

    for table, u in zip(tables, vectors):
        assert symbols(table) == [[field.mul(v, u_j) for u_j in u] + [0] for v in range(q)]
    total = add(*tables)
    assert symbols(total) == [[field.add(field.mul(v, a), field.mul(v, b))
                               for a, b in zip(*vectors)] + [0] for v in range(q)]
    index = total.astype(np.int64) @ radix ** np.arange(total.shape[1])
    assert index.tolist() == [sum(s * q**i for i, s in enumerate(row)) for row in symbols(total)]


class TestSupportHistogram:
    """The scalar-class numpy tally against the all-codewords Python tally."""

    @pytest.mark.parametrize("code", HISTOGRAM_CODES)
    def test_matches_python_tally(self, code):
        code = code()
        hist = support_histogram(code)
        as_dict = histogram_dict(hist)
        assert as_dict == python_histogram(code)
        assert list(as_dict) == sorted(as_dict)
        assert hist.masks.shape == (len(as_dict), max(1, -(-code.n // 64)))
        assert hist.counts.shape == (len(as_dict),)

    @pytest.mark.parametrize("code", [
        pytest.param(lambda: rs_code(field_from_order(16), 15, 3), id="rs-15-3-16"),
        pytest.param(lambda: rs_code(field_from_order(9), 8, 3), id="rs-8-3-9"),
        pytest.param(lambda: rs_code(Field(5, 1), 4, 4), id="rs-4-4-5"),
        pytest.param(lambda: rm1_code(7), id="rm1-7"),
        pytest.param(_gf4_wide_code, id="gf4-70-5"),
    ])
    def test_multichunk_tally_matches_python_tally(self, monkeypatch, fresh_histograms, code):
        code = code()
        monkeypatch.setattr(linear_code, "_CHUNK_BYTES", 64 * word_bytes(code))
        # the last row's q^(k-1) words do not fit in one 64-word chunk
        assert code.size // code.field.order > 64
        assert histogram_dict(support_histogram(code)) == python_histogram(code)

    @pytest.mark.parametrize("chunk_rows", [None, 1 << 12])
    def test_chunked_tally_matches_closed_form(self, monkeypatch, fresh_histograms,
                                               chunk_rows):
        # q^k = 2^20 codewords, 69,905 of them tallied; with 2^12-word chunks
        # a tally holds 256 words (5 x 16 x 256 words would not fit), so the
        # last 65,536 are tallied in 256 chunks
        code = rs_code(field_from_order(16), 15, 5)
        if chunk_rows is not None:
            monkeypatch.setattr(linear_code, "_CHUNK_BYTES", chunk_rows * word_bytes(code))
        part = Partition((5, 5, 5), tuple(j % 3 for j in range(15)))
        assert brute_force_pwe(code, part).counts == pwgf(MdsParams(15, 5, 16), (5, 5, 5)).counts

    @pytest.mark.parametrize("chunk_rows", [None, 64])
    @pytest.mark.parametrize("code", [
        pytest.param(lambda: code_from_generator(F2, ROWS_HAMMING74), id="hamming-7-4"),
        pytest.param(lambda: rs_code(F8, 7, 3), id="rs-7-3-8"),
        pytest.param(lambda: rs_code(field_from_order(9), 8, 3), id="rs-8-3-9"),
        pytest.param(lambda: rs_code(field_from_order(16), 15, 4), id="rs-15-4-16"),
    ])
    def test_one_word_per_scalar_class(self, monkeypatch, fresh_histograms, chunk_rows, code):
        # only the words whose last nonzero message symbol is 1 are tallied
        code = code()
        if chunk_rows is not None:
            monkeypatch.setattr(linear_code, "_CHUNK_BYTES", chunk_rows * word_bytes(code))
        rows = []
        masks = linear_code._support_masks
        monkeypatch.setattr(linear_code, "_support_masks",
                            lambda nonzero, width: rows.append(len(nonzero)) or
                            masks(nonzero, width))
        support_histogram(code)
        assert sum(rows) == (code.size - 1) // (code.field.order - 1)
        assert max(rows) * word_bytes(code) <= linear_code._CHUNK_BYTES

    @pytest.mark.parametrize("code", [
        pytest.param(lambda: rs_code(field_from_order(16), 15, 5), id="rs-15-5-16"),
        # n <= 8: a mask, a sort index and a word row are all 8 bytes
        pytest.param(lambda: rs_code(field_from_order(16), 8, 5), id="rs-8-5-16"),
    ])
    def test_tally_working_set_stays_within_the_chunk_budget(self, fresh_histograms, code):
        # tracemalloc counts numpy's buffers: the held words and every
        # temporary of a tally, at the default budget
        code = code()
        tracemalloc.start()
        try:
            support_histogram(code)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= linear_code._CHUNK_BYTES


def _scattered(n, p, seed):
    assignment = [j % p for j in range(n)]
    random.Random(seed).shuffle(assignment)
    return Partition(tuple(assignment.count(b) for b in range(p)), tuple(assignment))


class TestBruteForceProjection:
    """brute_force_pwe and brute_force_weights against per-mask Python projection."""

    @pytest.mark.parametrize("chunked", [False, True])
    @pytest.mark.parametrize("code", HISTOGRAM_CODES)
    def test_partitions_match_python_projection(self, monkeypatch, fresh_histograms,
                                                code, chunked):
        code = code()
        n = code.n
        if chunked:   # three masks' support bits per unpacked chunk
            monkeypatch.setattr(linear_code, "_CHUNK_BYTES", 3 * n)
            hist = support_histogram(code)
            chunks = list(hist.bit_chunks())
            assert all(bits.nbytes <= 3 * n for bits, _ in chunks)
            assert np.array_equal(np.concatenate([c for _, c in chunks]), hist.counts)
        partitions = [Partition.contiguous((n,)), Partition.contiguous((1,) * n),
                      _scattered(n, min(n, 3), n), _scattered(n, min(n, 5), n + 1)]
        for part in partitions:
            assert brute_force_pwe(code, part).counts == python_pwe(code, part), part.sizes
        # all at once: rows are grouped, not keyed, so 64 singleton blocks
        # (a key of prod(n_i + 1) = 2^64 values) project like the rest
        assert [t.counts for t in brute_force_pwes(code, partitions)] == \
            [python_pwe(code, part) for part in partitions]
        with pytest.raises(ValueError):
            brute_force_pwes(code, [*partitions, Partition.contiguous((n + 1,))])
        E = [0] * (n + 1)
        for mask, c in python_histogram(code).items():
            E[mask.bit_count()] += c
        assert brute_force_weights(code) == E

    def test_one_chunk_when_all_fit(self):
        hist = support_histogram(rs_code(F8, 7, 3))
        ((bits, counts),) = hist.bit_chunks()
        assert bits.shape == (len(hist.masks), 7) and bits.dtype == np.uint8
        assert np.shares_memory(counts, hist.counts)


class TestPweTable:
    def test_normalization_strips_zeros(self):
        t = PweTable((2,), {(0,): 1, (1,): 0, (2,): 3})
        assert t.counts == {(0,): 1, (2,): 3}

    def test_profile_bounds_checked(self):
        with pytest.raises(ValueError):
            PweTable((2,), {(3,): 1})
