import numpy as np
import pytest

from hwmimo.pilots import PlacementKind, dft_book, place, temporal_book


def test_place_beginning():
    assert place("beginning", T=10, B=2).tau == (1, 2)


def test_place_middle_matches_centering_rule():
    assert place("middle", T=10, B=2).tau == (5, 6)
    assert place("middle", T=11, B=2).tau == (5, 6)  # odd leftover biases early


def test_place_uniform_equispaced():
    assert place("uniform", T=8, B=4).tau == (1, 3, 5, 7)
    # rounding goes toward the earlier channel use
    assert place("uniform", T=10, B=3).tau == (1, 4, 7)


def test_place_preamble_split():
    tau = place("preamble", T=12, B=5).tau
    assert tau[:3] == (1, 2, 3)  # ceil(5/2) up front
    assert len(tau) == 5 and len(set(tau)) == 5
    assert all(4 <= t <= 12 for t in tau[3:])


def test_place_full_block_and_errors():
    assert place("beginning", T=4, B=4).tau == (1, 2, 3, 4)
    with pytest.raises(ValueError):
        place("beginning", T=4, B=5)


@pytest.mark.parametrize("kind", list(PlacementKind))
def test_placement_indices_valid(kind):
    for T, B in [(8, 1), (9, 3), (50, 8), (500, 8), (13, 13)]:
        pl = place(kind, T, B)
        assert len(pl.tau) == B
        assert all(1 <= t <= T for t in pl.tau)
        assert list(pl.tau) == sorted(set(pl.tau))
        assert len(pl.data_times) == T - B
        assert set(pl.data_times).isdisjoint(pl.tau)


def test_temporal_book_is_scaled_diagonal():
    powers = np.array([[1.0, 4.0]])
    book = temporal_book(powers, place("beginning", T=10, B=2))
    np.testing.assert_allclose(book.sequences[0], np.diag([1.0, 2.0]))


def test_temporal_book_single_ue():
    book = temporal_book(np.array([[1.0]]), place("beginning", T=5, B=1))
    np.testing.assert_allclose(book.sequences[0], [[1.0]])


def test_temporal_book_columns_disjoint_support():
    powers = np.full((2, 3), 2.0)
    book = temporal_book(powers, place("middle", T=9, B=3))
    gram = book.sequences[0].conj().T @ book.sequences[0]
    np.testing.assert_allclose(gram, np.diag(powers[0]))
    with pytest.raises(ValueError):
        temporal_book(powers, place("beginning", T=9, B=4))


def test_dft_book_k2_unit_power():
    book = dft_book(np.ones((1, 2)), place("beginning", T=10, B=2))
    np.testing.assert_allclose(book.sequences[0], [[1, 1], [1, -1]], atol=1e-14)


def test_dft_book_gram_is_scaled_identity():
    # direct matrix-multiplication oracle for the square book
    book = dft_book(np.ones((1, 4)), place("beginning", T=20, B=4))
    gram = book.sequences[0].conj().T @ book.sequences[0]
    np.testing.assert_allclose(gram, 4.0 * np.eye(4), atol=1e-12)


def test_dft_book_gram_with_powers(rng):
    powers = rng.uniform(0.5, 2.0, size=(2, 3))
    book = dft_book(powers, place("beginning", T=12, B=3))
    for l in range(2):
        gram = book.sequences[l].conj().T @ book.sequences[l]
        np.testing.assert_allclose(gram, 3.0 * np.diag(powers[l]), atol=1e-12)


def test_dft_book_per_symbol_power(rng):
    powers = rng.uniform(0.5, 2.0, size=(2, 3))
    book = dft_book(powers, place("uniform", T=16, B=5))
    energy = np.abs(book.sequences) ** 2  # (L, B, K)
    np.testing.assert_allclose(energy, np.broadcast_to(powers[:, None, :], energy.shape))
    with pytest.raises(ValueError):
        dft_book(powers, place("beginning", T=16, B=2))


def test_power_constraint_every_entry(rng):
    powers = rng.uniform(0.5, 2.0, size=(3, 4))
    for book in (
        temporal_book(powers, place("beginning", T=10, B=4)),
        dft_book(powers, place("uniform", T=10, B=5)),
    ):
        cap = np.broadcast_to(powers[:, None, :], book.sequences.shape)
        assert np.all(np.abs(book.sequences) ** 2 <= cap + 1e-12)


def test_pilots_reused_across_cells_only(rng):
    powers = rng.uniform(0.5, 2.0, size=(3, 4))
    for book in (
        temporal_book(powers, place("beginning", T=10, B=4)),
        dft_book(powers, place("uniform", T=10, B=8)),
    ):
        base = book.sequences / np.sqrt(powers)[:, None, :]
        # UE k sends the same sequence, of unit peak power, in every cell ...
        np.testing.assert_allclose(base, np.broadcast_to(base[0], base.shape), atol=1e-15)
        np.testing.assert_allclose(np.abs(base).max(axis=1), 1.0, rtol=1e-15)
        # ... and the UEs of one cell send distinct (orthogonal) sequences
        gram = base[0].conj().T @ base[0]
        np.testing.assert_allclose(gram, np.diag(np.diag(gram)), atol=1e-12)
