import re

import numpy as np
import pytest

import oracles as orc
from swron import (
    CoveringGraph,
    DomainError,
    LineOperator,
    direct_image,
    leading_determinant_product,
    line_operator_from_json,
    line_operator_to_json,
    periodized_cover_matrix,
    periodized_line_matrix,
    solution_basis,
    swronskian_form,
    transfer_between,
    transfer_map,
)
from swron import examples as ex


def window_vector(op, values, m):
    cols = [(p, i) for p in range(-op.k + 1, op.k + 1) for i in range(op.l)]
    return np.array([values[m + p][i] for p, i in cols])


def test_symmetry_closure():
    rng = np.random.default_rng(0)
    op = ex.random_line_operator(rng, 3, 2, n_site_terms=2)
    for n in range(-3, 4):
        for s in range(-op.k, op.k + 1):
            assert np.array_equal(op.block(n, s), op.block(n + s, -s).T)
    assert np.all(op.block(0, op.k + 1) == 0)


def test_apply_matches_truncated_matrix():
    rng = np.random.default_rng(1)
    op = ex.random_line_operator(rng, 2, 3, n_site_terms=3)
    lo, hi = -4, 4
    mat = orc.truncated_line_matrix(op, lo, hi)
    psi = {n: rng.standard_normal(op.l) for n in range(lo, hi + 1)}
    vec = np.concatenate([psi[n] for n in range(lo, hi + 1)])
    out = mat @ vec
    # interior sites, where truncation does not clip the stencil
    img = op.apply(psi, range(lo + op.k, hi - op.k + 1))
    for n in range(lo + op.k, hi - op.k + 1):
        got = out[(n - lo) * op.l : (n - lo + 1) * op.l]
        assert np.allclose(img[n], got, atol=1e-12)


def test_free_line_truncation_spectrum_closed_form():
    op = ex.free_line_operator(1)
    n = 12
    mat = orc.truncated_line_matrix(op, 1, n)
    vals = np.sort(np.linalg.eigvalsh(mat))
    want = np.sort(2 * np.cos(np.pi * np.arange(1, n + 1) / (n + 1)))
    assert np.max(np.abs(vals - want)) <= 1e-12


def test_symbol_consistency():
    rng = np.random.default_rng(2)
    op = ex.random_line_operator(rng, 2, 2)
    mu = 0.7 + 0.2j
    want = sum(
        op.block(0, s).astype(complex) * mu**s for s in range(-op.k, op.k + 1)
    )
    assert np.allclose(op.symbol(mu), want, atol=1e-12)


def test_solution_basis_solves_interior():
    rng = np.random.default_rng(3)
    op = ex.random_line_operator(rng, 2, 2, n_site_terms=2)
    lam = 0.41
    basis = solution_basis(op, lam, 0, window=(-6, 6))
    for col in range(2 * op.k * op.l):
        psi = {n: basis.values[n][:, col] for n in range(-6, 7)}
        img = op.apply(psi, range(-6 + op.k, 7 - op.k))
        worst = max(
            np.max(np.abs(img[n] - lam * psi[n])) for n in img
        )
        assert worst <= 1e-8


def test_solution_basis_window_must_cover_defining_sites():
    op = ex.free_line_operator(1)
    with pytest.raises(DomainError):
        solution_basis(op, 0.1, 0, window=(1, 2))


@pytest.mark.parametrize("m, where", [(0, "site 2 (shift 1)"), (5, "site 3 (shift -1)")])
def test_solution_basis_names_a_singular_leading_block(m, where):
    # block(2, 1) = block(3, -1) = 0: going forward from m = 0 the equation at
    # site 2 cannot be solved for psi(3), going backward from m = 5 the
    # equation at site 3 cannot be solved for psi(2)
    op = LineOperator(1, 1, {0: [[0.5]], 1: [[1.0]]}, {2: {1: [[0.0]]}})
    with pytest.raises(DomainError, match=re.escape(f"leading block at {where} is singular")):
        solution_basis(op, 0.3, m, window=(-3, 6))


def test_form_matrix_block_pattern():
    rng = np.random.default_rng(4)
    op = ex.random_line_operator(rng, 3, 1, n_site_terms=3)
    m = 1
    sw = swronskian_form(op, m)
    n = op.k * op.l
    assert np.all(sw.matrix[:n, :n] == 0)
    assert np.all(sw.matrix[n:, n:] == 0)
    upper = sw.matrix[:n, n:]
    assert np.array_equal(sw.matrix[n:, :n], -upper.T)
    for pi, p in enumerate(range(-op.k + 1, 1)):
        for qi, q in enumerate(range(1, op.k + 1)):
            want = op.block(m + p, q - p)
            got = upper[pi * op.l : (pi + 1) * op.l, qi * op.l : (qi + 1) * op.l]
            assert np.array_equal(got, want)


def test_form_matrix_matches_chain_oracle():
    rng = np.random.default_rng(5)
    op = ex.random_line_operator(rng, 2, 2, n_site_terms=2)
    m = 0
    sw = swronskian_form(op, m)
    cx, vop, base = orc.path_hosted_operator(op, m - op.k - 1, m + op.k + 1)
    for a, (p, i) in enumerate(sw.columns):
        for b, (q, j) in enumerate(sw.columns):
            got = orc.chain_form_entry(cx, vop, base, m, m + p, i, m + q, j)
            assert got == sw.matrix[a, b]


def test_form_determinant_identity():
    rng = np.random.default_rng(6)
    for _ in range(5):
        k = int(rng.integers(1, 4))
        l = int(rng.integers(1, 4))
        op = ex.random_line_operator(rng, k, l, n_site_terms=2)
        m = int(rng.integers(-2, 3))
        det = swronskian_form(op, m).determinant()
        want = leading_determinant_product(op, m)
        assert abs(det - want) <= 1e-10 * max(1.0, abs(want))


@pytest.mark.parametrize("k, l", [(k, l) for k in (1, 2, 3) for l in (1, 2, 3)])
def test_transfer_advances_solutions(k, l):
    rng = np.random.default_rng(7)
    op = ex.random_line_operator(rng, k, l, n_site_terms=3)
    for lam in (0.9, 0.4 + 0.7j):
        basis = solution_basis(op, lam, 0, window=(-8, 8))
        for m in (0, -2):
            t = transfer_map(op, lam, m)
            for col in range(2 * op.k * op.l):
                psi = {n: basis.values[n][:, col] for n in range(-8, 9)}
                x0 = window_vector(op, psi, m)
                x1 = window_vector(op, psi, m + 1)
                assert np.max(np.abs(t.matrix @ x0 - x1)) <= 1e-9


def test_transfer_preserves_form():
    rng = np.random.default_rng(8)
    op = ex.random_line_operator(rng, 3, 2, n_site_terms=2)
    for lam in (0.3, -1.7, 0.5 + 0.8j):
        t = transfer_map(op, lam, 0)
        assert t.symplectic_defect() <= 1e-10


def test_pair_form_cached_read_only():
    rng = np.random.default_rng(8)
    op = ex.random_line_operator(rng, 2, 2, n_site_terms=2)
    form = swronskian_form(op, 1)
    assert swronskian_form(op, 1) is form
    assert swronskian_form(op, 2) is not form
    with pytest.raises(ValueError):
        form.matrix[0, 0] = 1.0
    t = transfer_map(op, 0.4, 1)
    assert t.form_before is form
    assert t.form_after is swronskian_form(op, 2)


def test_transfer_between_composes():
    rng = np.random.default_rng(9)
    op = ex.random_line_operator(rng, 1, 2, n_site_terms=2)
    lam = -0.2
    prod = np.eye(2 * op.k * op.l, dtype=complex)
    for m in range(0, 4):
        prod = transfer_map(op, lam, m).matrix @ prod
    total, form0, form4 = transfer_between(op, lam, 0, 4)
    assert np.allclose(total, prod, atol=1e-12)
    assert form0.m == 0 and form4.m == 4


def test_cover_validation():
    with pytest.raises(DomainError):
        CoveringGraph(orbits=(0, 1), edges=((0, 5, 0),))
    with pytest.raises(DomainError):
        CoveringGraph(orbits=(0,), edges=((0, 0, 0),))
    with pytest.raises(DomainError):
        CoveringGraph(orbits=(0, 1), edges=((0, 1, 2), (1, 0, -2)))


def test_level_offsets_deterministic():
    ladder = ex.cover_ladder()
    assert ladder.level_offsets() == {0: 0, 1: 0}
    spiral = ex.cover_spiral()
    assert spiral.level_offsets() == {0: 0, 1: 0, 2: -1}


def test_direct_image_roundtrip():
    rng = np.random.default_rng(10)
    for cover in (ex.cover_z(), ex.cover_ladder(), ex.cover_spiral()):
        blocks = ex.cover_laplacian_blocks(cover)
        lop, di = direct_image(cover, blocks, 1)
        lo, hi = -6, 6
        psi = {
            (a, n): float(rng.integers(-5, 6)) * np.ones(1)
            for a in cover.orbits
            for n in range(lo, hi + 1)
        }
        back = di.to_cover(di.to_line(psi))
        for key, v in psi.items():
            assert np.array_equal(back[key], v)


def test_direct_image_commutes_with_apply():
    # integer data makes both routes exact, so the gap must be zero
    from swron import cover_apply

    rng = np.random.default_rng(12)
    for cover in (ex.cover_ladder(), ex.cover_spiral()):
        blocks = ex.cover_laplacian_blocks(cover)
        lop, di = direct_image(cover, blocks, 1)
        lo, hi = -8, 8
        psi = {
            (a, n): float(rng.integers(-5, 6)) * np.ones(1)
            for a in cover.orbits
            for n in range(lo, hi + 1)
        }
        omin = min(di.offsets.values())
        omax = max(di.offsets.values())
        pad = lop.k + 2
        line_img = lop.apply(
            di.to_line(psi), range(lo + pad + omin, hi - pad + omax + 1)
        )
        back = di.to_cover(line_img)
        targets = [
            (a, n)
            for a in cover.orbits
            for n in range(lo + pad, hi - pad + 1)
        ]
        cov_img = cover_apply(cover, blocks, 1, psi, targets)
        for key in targets:
            assert np.array_equal(back[key], cov_img[key])


def test_periodized_spectra_agree():
    for cover in (ex.cover_ladder(), ex.cover_spiral()):
        blocks = ex.cover_laplacian_blocks(cover)
        lop, di = direct_image(cover, blocks, 1)
        period = 5
        cmat, _ = periodized_cover_matrix(cover, blocks, 1, period)
        lmat = periodized_line_matrix(lop, period)
        a = np.sort(np.linalg.eigvalsh(cmat))
        b = np.sort(np.linalg.eigvalsh(lmat))
        assert np.max(np.abs(a - b)) <= 1e-10


@pytest.mark.parametrize("period", [1, 2, 3])
def test_periodized_line_matrix_matches_the_bloch_symbols(period):
    # period < 2k + 1 = 5, so several shifts wrap into one block column and add
    op = ex.random_line_operator(np.random.default_rng(period), 2, 2)
    got = np.linalg.eigvalsh(periodized_line_matrix(op, period))
    roots = np.exp(2j * np.pi * np.arange(period) / period)
    want = np.sort(np.concatenate([np.linalg.eigvalsh(op.symbol(mu)) for mu in roots]))
    assert np.max(np.abs(got - want)) <= 1e-10


def test_line_operator_json_roundtrip(tmp_path):
    rng = np.random.default_rng(11)
    op = ex.random_line_operator(rng, 2, 2, n_site_terms=2)
    back = line_operator_from_json(line_operator_to_json(op))
    assert back.k == op.k and back.l == op.l
    for n in range(-3, 4):
        for s in range(-op.k, op.k + 1):
            assert np.array_equal(back.block(n, s), op.block(n, s))


def test_transfer_csv_export(tmp_path):
    from swron.line_lattice import transfer_to_csv

    op = ex.free_line_operator(1)
    t = transfer_map(op, 0.5, 0)
    path = tmp_path / "t.csv"
    transfer_to_csv(t, str(path))
    rows = path.read_text().strip().splitlines()
    assert rows[0].startswith("lambda_re")
    assert rows[1].split(",")[:2] == ["0.5", "0.0"]
    assert len(rows) == 4 + t.matrix.shape[0]
