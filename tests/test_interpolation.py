"""Tests for interpolation stencils and neighbor-atom resolution."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.grid.atoms import AtomMapper
from repro.grid.dataset import DatasetSpec
from repro.grid.interpolation import (
    _SUBCOMBO_TABLE,
    InterpolationSpec,
    neighbor_atoms_from_keys,
    stencil_atoms,
    subquery_neighbor_atoms,
)
from repro.morton.codec import morton_decode_scalar, morton_encode_unchecked

SPEC = DatasetSpec.small(n_timesteps=4, atoms_per_axis=8)
MAPPER = AtomMapper(SPEC)


class TestInterpolationSpec:
    def test_half_width(self):
        assert InterpolationSpec(order=8).half_width == 4
        assert InterpolationSpec(order=12).half_width == 6

    def test_validation(self):
        with pytest.raises(ValueError):
            InterpolationSpec(order=7)
        with pytest.raises(ValueError):
            InterpolationSpec(order=0)


class TestStencilAtoms:
    def test_interior_position_single_atom(self):
        pos = np.array([[32.0, 32.0, 32.0]])  # atom center
        atoms = stencil_atoms(SPEC, pos, 0, InterpolationSpec(order=12))
        assert len(atoms) == 1

    def test_kernel_within_halo_never_expands(self):
        """Order 8 with the production halo of 4 never needs neighbors —
        the design rationale for the 72³ physical atoms (§III-A)."""
        rng = np.random.default_rng(0)
        pos = rng.uniform(0, SPEC.grid_side, (2000, 3))
        interp = InterpolationSpec(order=8)
        atoms = stencil_atoms(SPEC, pos, 0, interp)
        primaries = np.unique(MAPPER.atom_ids(pos, 0))
        np.testing.assert_array_equal(np.sort(atoms), np.sort(primaries))

    def test_face_position_expands_once(self):
        # 0.5 voxels from the x face: order-12 stencil (h=6) exceeds the
        # 4-voxel halo on that side only.
        pos = np.array([[64.5, 32.0, 32.0]])
        atoms = stencil_atoms(SPEC, pos, 0, InterpolationSpec(order=12))
        assert len(atoms) == 2

    def test_corner_position_expands_to_eight(self):
        pos = np.array([[64.5, 64.5, 64.5]])
        atoms = stencil_atoms(SPEC, pos, 0, InterpolationSpec(order=12))
        assert len(atoms) == 8

    def test_periodic_wrap_at_domain_edge(self):
        pos = np.array([[0.5, 32.0, 32.0]])
        atoms = stencil_atoms(SPEC, pos, 0, InterpolationSpec(order=12))
        mortons = sorted(int(a) % SPEC.atoms_per_timestep for a in atoms)
        assert len(atoms) == 2
        # The neighbor is the far-x atom (periodic domain).
        coords = [divmod_coords(m) for m in mortons]
        xs = sorted(c[0] for c in coords)
        assert xs == [0, 7]

    def test_timestep_offset(self):
        pos = np.array([[32.0, 32.0, 32.0]])
        a0 = stencil_atoms(SPEC, pos, 0, InterpolationSpec(order=8))
        a2 = stencil_atoms(SPEC, pos, 2, InterpolationSpec(order=8))
        assert a2[0] - a0[0] == 2 * SPEC.atoms_per_timestep


def divmod_coords(morton: int):
    from repro.morton.codec import morton_decode_scalar

    return morton_decode_scalar(morton)


class TestFastPathEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([8, 10, 12, 16]))
    def test_matches_generic_stencil(self, seed, order):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 60))
        pos = rng.uniform(0, SPEC.grid_side, (n, 3))
        interp = InterpolationSpec(order=order)
        ts = int(rng.integers(SPEC.n_timesteps))
        for atom_id, idx in MAPPER.group_by_atom(pos, ts):
            fast = set(subquery_neighbor_atoms(SPEC, pos[idx], atom_id, interp))
            slow = set(int(a) for a in stencil_atoms(SPEC, pos[idx], ts, interp))
            assert fast == slow - {atom_id}

    def test_no_neighbors_when_kernel_fits_halo(self):
        rng = np.random.default_rng(1)
        pos = rng.uniform(0, SPEC.grid_side, (100, 3))
        ts = 0
        for atom_id, idx in MAPPER.group_by_atom(pos, ts):
            assert subquery_neighbor_atoms(SPEC, pos[idx], atom_id, InterpolationSpec(order=8)) == []


def codec_neighbor_codes(n_axis, primary_morton, key_tuple):
    """Neighbor codes straight from the vectorized Morton codec, the
    way a memo miss computed them before the lookup tables."""
    deltas = sorted({c for key in key_tuple for c in _SUBCOMBO_TABLE[key]})
    px, py, pz = morton_decode_scalar(primary_morton)
    arr = np.array(deltas, dtype=np.int64)
    encoded = morton_encode_unchecked(
        (px + arr[:, 0]) % n_axis,
        (py + arr[:, 1]) % n_axis,
        (pz + arr[:, 2]) % n_axis,
    )
    return [int(c) for c in np.unique(encoded.astype(np.int64))]


class TestMortonTables:
    @pytest.mark.parametrize("n_axis", [2, 4, 8])
    def test_table_codes_equal_codec_codes(self, n_axis):
        spec = DatasetSpec.small(n_timesteps=2, atoms_per_axis=n_axis)
        apt = spec.atoms_per_timestep
        key_sets = [(k,) for k in range(27) if k != 13] + [(0, 26), (4, 12, 14, 22)]
        for primary in range(apt):
            for key_tuple in key_sets:
                keys = np.array((*key_tuple, 13), dtype=np.int8)
                got = neighbor_atoms_from_keys(spec, keys, apt + primary)
                want = codec_neighbor_codes(n_axis, primary, key_tuple)
                assert got == [apt + c for c in want]
