from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quiverstab.linalg import (
    InconsistentSystem,
    Mat,
    format_rational,
    kernel_basis,
    parse_rational,
    primitive_integer_vector,
    rref,
    solve_linear,
    sparse_kernel_basis,
)

F = Fraction


def mat(rows):
    return Mat.from_rows(rows)


def mat_vec(m, v):
    return m.apply(v)


class TestParse:
    def test_roundtrip(self):
        for text in ["3/4", "-2", "0", "+5", "-7/3"]:
            assert format_rational(parse_rational(text)) in (text, text.lstrip("+"))

    @pytest.mark.parametrize("bad", ["1.5", " 1", "1/", "/2", "1 /2", "a", ""])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_rational(bad)


class TestRref:
    def test_identity(self):
        result = rref(Mat.identity(2))
        assert result.matrix == Mat.identity(2)
        assert result.pivots == (0, 1)
        assert result.rank == 2

    def test_zero(self):
        result = rref(Mat.zeros(3, 3))
        assert result.matrix == Mat.zeros(3, 3)
        assert result.pivots == ()
        assert result.rank == 0

    def test_rank_one(self):
        # hand row-reduction: r2 <- r2 - 2 r1
        result = rref(mat([[1, 2], [2, 4]]))
        assert result.matrix == mat([[1, 2], [0, 0]])
        assert result.rank == 1

    def test_fractions_appear(self):
        result = rref(mat([[2, 1], [0, 3]]))
        assert result.matrix == Mat.identity(2)


class TestKernel:
    def test_identity_empty(self):
        assert kernel_basis(Mat.identity(4)) == []

    def test_difference_vector(self):
        assert kernel_basis(mat([[1, -1]])) == [(F(1), F(1))]

    def test_d5_symmetrized_euler_kernel(self):
        b = mat([
            [2, 0, 0, 0, -1, 0],
            [0, 2, 0, 0, 0, -1],
            [0, 0, 2, 0, 0, -1],
            [0, 0, 0, 2, -1, 0],
            [-1, 0, 0, -1, 2, -1],
            [0, -1, -1, 0, -1, 2],
        ])
        basis = kernel_basis(b)
        assert len(basis) == 1
        assert primitive_integer_vector(basis[0]) == (1, 1, 1, 1, 2, 2)


class TestSolve:
    def test_identity(self):
        x, ker = solve_linear(Mat.identity(3), [5, -1, 2])
        assert x == (F(5), F(-1), F(2))
        assert ker == []

    def test_underdetermined(self):
        x, ker = solve_linear(mat([[1, 1]]), [0])
        assert x[0] + x[1] == 0
        assert len(ker) == 1
        assert primitive_integer_vector(ker[0]) in ((1, -1), (-1, 1))

    def test_tube_system_family(self):
        # 5x6 system over the extended D5 tube data; its solution family is
        # (t, 2-t, 1-t, t-1, 0, -1)
        a = mat([
            [1, 1, 1, 1, 1, 1],
            [0, 0, 0, 0, 1, 0],
            [0, 0, 0, 0, 0, 1],
            [1, 1, 0, 0, 1, 1],
            [1, 0, 1, 0, 1, 1],
        ])
        b = [1, 0, -1, 1, 0]
        x, ker = solve_linear(a, b)
        assert mat_vec(a, x) == tuple(F(c) for c in b)
        assert len(ker) == 1
        assert primitive_integer_vector(ker[0]) in ((1, -1, -1, 1, 0, 0),
                                                    (-1, 1, 1, -1, 0, 0))
        # t = x[0] reproduces the family
        t = x[0]
        assert x == (t, 2 - t, 1 - t, t - 1, F(0), F(-1))
        # the reference weight lies in the family
        ref = (F(1), F(1), F(0), F(0), F(0), F(-1))
        diff = tuple(r - c for r, c in zip(ref, x))
        k = ker[0]
        ratios = {d / kc for d, kc in zip(diff, k) if kc != 0}
        assert len(ratios) == 1
        assert all(d == 0 for d, kc in zip(diff, k) if kc == 0)

    def test_inconsistent(self):
        with pytest.raises(InconsistentSystem):
            solve_linear(mat([[1], [1]]), [1, 2])


small_fraction = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def matrices(draw, max_dim=4):
    rows = draw(st.integers(1, max_dim))
    cols = draw(st.integers(1, max_dim))
    data = draw(st.lists(
        st.lists(small_fraction, min_size=cols, max_size=cols),
        min_size=rows, max_size=rows))
    return Mat.from_rows(data)


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_rref_idempotent(m):
    reduced = rref(m).matrix
    assert rref(reduced).matrix == reduced


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_kernel_vectors_annihilated_and_independent(m):
    basis = kernel_basis(m)
    assert len(basis) == m.cols - rref(m).rank
    for v in basis:
        assert all(c == 0 for c in mat_vec(m, v))
    if basis:
        assert rref(Mat.from_rows(basis)).rank == len(basis)


@settings(max_examples=60, deadline=None)
@given(matrices(), st.data())
def test_solve_verified_by_substitution(m, data):
    target = data.draw(st.lists(small_fraction, min_size=m.rows, max_size=m.rows))
    try:
        x, ker = solve_linear(m, target)
    except InconsistentSystem:
        # honest refusal: the target must genuinely enlarge the rank
        aug = Mat.from_rows([list(row) + [t] for row, t in zip(m.data, target)])
        assert rref(aug).rank == rref(m).rank + 1
        return
    assert mat_vec(m, x) == tuple(F(t) for t in target)
    for v in ker:
        assert all(c == 0 for c in mat_vec(m, v))


@settings(max_examples=40, deadline=None)
@given(matrices())
# two components whose free columns interleave: 3 belongs to the first
@example(mat([[1, 0, 0, 1], [0, 1, 1, 0]]))
def test_sparse_kernel_matches_dense(m):
    equations = []
    for row in m.data:
        equations.append({j: c for j, c in enumerate(row) if c != 0})
    sparse = sparse_kernel_basis(equations, m.cols)
    dense = kernel_basis(m)
    # both list one vector per free column, in column order
    assert sparse == dense
    for v in sparse:
        assert all(c == 0 for c in mat_vec(m, v))


def test_sparse_kernel_integer_coefficients_become_fractions():
    assert sparse_kernel_basis([{0: 2, 1: 3}], 2) == [(F(-3, 2), F(1))]
    (vec,) = sparse_kernel_basis([{0: 2, 1: 3}], 2)
    assert all(type(c) is F for c in vec)


# --- dense Gauss-Jordan reference -------------------------------------------

def reference_rref(rows, ncols):
    """Textbook Gauss-Jordan on a list of Fraction rows: for each column in
    turn, the first row at or below the current one with a nonzero entry is
    swapped up, scaled to a leading 1 and used to clear the column."""
    work = [[F(a) for a in row] for row in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if pr is None:
            continue
        work[r], work[pr] = work[pr], work[r]
        lead = work[r][c]
        work[r] = [a / lead for a in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
    return work, pivots


def reference_kernel(rows, ncols):
    work, pivots = reference_rref(rows, ncols)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [F(0)] * ncols
        v[f] = F(1)
        for r, pc in enumerate(pivots):
            v[pc] = -work[r][f]
        basis.append(tuple(v))
    return basis


def reference_solve(rows, target, ncols):
    """Particular solution read off the augmented reduction, or None."""
    work, pivots = reference_rref([list(row) + [t] for row, t in zip(rows, target)],
                                  ncols + 1)
    if ncols in pivots:
        return None
    x = [F(0)] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = work[r][ncols]
    return tuple(x)


@st.composite
def degenerate_matrices(draw, max_dim=6):
    """Matrices up to max_dim x max_dim with some rows zero, some rows
    repeating earlier ones and some columns zero."""
    nrows = draw(st.integers(1, max_dim))
    ncols = draw(st.integers(1, max_dim))
    entry = st.one_of(st.just(F(0)), small_fraction)
    data = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    for i in range(nrows):
        kind = draw(st.sampled_from(("keep", "zero", "repeat")))
        if kind == "zero":
            data[i] = [F(0)] * ncols
        elif kind == "repeat" and i:
            data[i] = list(data[draw(st.integers(0, i - 1))])
    for j in draw(st.sets(st.integers(0, ncols - 1))):
        for row in data:
            row[j] = F(0)
    return Mat.from_rows(data)


@settings(max_examples=100, deadline=None)
@given(degenerate_matrices(), st.data())
def test_matches_dense_reference(m, data):
    rows = [list(row) for row in m.data]
    work, pivots = reference_rref(rows, m.cols)
    result = rref(m)
    assert result.matrix == Mat.shaped(m.rows, m.cols, work)
    assert result.pivots == tuple(pivots)
    assert result.rank == len(pivots)
    assert kernel_basis(m) == reference_kernel(rows, m.cols)

    target = data.draw(st.lists(st.one_of(st.just(F(0)), small_fraction),
                                min_size=m.rows, max_size=m.rows))
    expected = reference_solve(rows, target, m.cols)
    if expected is None:
        with pytest.raises(InconsistentSystem):
            solve_linear(m, target)
    else:
        x, ker = solve_linear(m, target)
        assert x == expected
        assert ker == reference_kernel(rows, m.cols)


def test_primitive_integer_vector():
    assert primitive_integer_vector([F(1, 2), F(-3, 4)]) == (2, -3)
    assert primitive_integer_vector([F(2), F(4)]) == (1, 2)
    assert primitive_integer_vector([F(0), F(0)]) == (0, 0)
    assert primitive_integer_vector([F(-2, 3)]) == (-1,)
