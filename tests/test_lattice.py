"""Cell numbering, field containers, and the integer calculus operators."""

import dataclasses
import importlib
import inspect
import itertools
import pkgutil

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from dualqed import dualmap, greens, helmholtz, lattice
from dualqed.lattice import (
    FieldVector,
    Lattice,
    axis_indicator_matrix,
    cell_coordinates,
    cell_index,
    cube_flux_matrix,
    curl_link_to_plaq,
    curl_link_to_plaq_matrix,
    curl_plaq_to_link_matrix,
    divergence,
    divergence_matrix,
    global_loop_links,
    gradient,
    gradient_matrix,
    laplacian_matrix,
    link_sites,
    operator_map,
    operator_names,
    site_parity,
)

from conftest import (
    GEOMETRIES,
    GEOMETRIES_2D,
    GEOMETRIES_3D,
    LOOP_OPERATORS,
    cubes,
    entry_test,
    geometry_id,
    link_index,
    links,
    plaquette_index,
    plaquettes,
    shift_site,
    site_index,
    sites,
)

KINDS = ("site", "link", "plaquette", "cube")


def expected_counts(lat: Lattice) -> dict:
    """Independent closed-form cell counts."""
    N, d = lat.N, lat.dim
    if lat.periodic:
        sites_ = N**d
        links_ = d * N**d
        plaqs_ = (d * (d - 1) // 2) * N**d
        cubes_ = N**d if d == 3 else 0
        globals_ = d
    else:
        S = N + 1  # sites per side
        sites_ = S**d
        links_ = d * N * S ** (d - 1)
        plaqs_ = (d * (d - 1) // 2) * N * N * S ** (d - 2)
        cubes_ = N**3 if d == 3 else 0
        globals_ = 0
    return {"sites": sites_, "links": links_, "plaqs": plaqs_, "cubes": cubes_, "globals": globals_}


@pytest.mark.parametrize("lat", GEOMETRIES, ids=geometry_id)
def test_cell_counts_match_closed_forms(lat):
    want = expected_counts(lat)
    assert lat.n_sites == len(sites(lat)) == want["sites"]
    assert lat.n_links == len(links(lat)) == want["links"]
    assert lat.n_plaqs == len(plaquettes(lat)) == want["plaqs"]
    if lat.dim == 3:
        assert len(cubes(lat)) == want["cubes"]
    assert lat.n_global_loops == want["globals"]


def _oracle_cells(lat: Lattice, kind: str) -> list:
    """(coordinates, orientation) of every cell in the conftest enumeration's
    order, orientation 0 where the kind has none."""
    if kind == "link" or (kind == "plaquette" and lat.dim == 3):
        return list({"link": links, "plaquette": plaquettes}[kind](lat))
    return [(x, 0) for x in {"site": sites, "plaquette": plaquettes, "cube": cubes}[kind](lat)]


def _oracle_index(lat: Lattice, kind: str, orientation: int, x: tuple) -> int:
    """The conftest lookup of one cell: its index, or KeyError if absent."""
    if kind == "site":
        return site_index(lat, x)
    if kind == "link":
        return link_index(lat, x, orientation)
    if kind == "plaquette":
        return plaquette_index(lat, x, orientation if lat.dim == 3 else None)
    if lat.periodic:
        x = tuple(c % lat.N for c in x)
    return {c: n for n, c in enumerate(cubes(lat))}[x]


@pytest.mark.parametrize("lat", GEOMETRIES, ids=geometry_id)
def test_cell_coordinates_follow_the_oracle_and_invert_cell_index(lat):
    """Every kind lists its cells in the enumeration order, and `cell_index`
    of each orientation's coordinates gives back their positions."""
    for kind in KINDS:
        orientation, x = cell_coordinates(lat, kind)
        assert orientation.dtype == x.dtype == np.int64
        assert x.shape == (lat.dim, lat.n_cells(kind)) and orientation.shape == (lat.n_cells(kind),)
        assert list(zip(map(tuple, x.T.tolist()), orientation.tolist())) == _oracle_cells(lat, kind)
        for o in np.unique(orientation).tolist():
            same = orientation == o
            assert np.array_equal(cell_index(lat, kind, o, x[:, same]), np.flatnonzero(same)), (kind, o)


@pytest.mark.parametrize("lat", GEOMETRIES, ids=geometry_id)
def test_cell_index_wraps_on_tori_and_refuses_absent_open_cells(lat):
    """On every coordinate of a box one cell wider than the lattice, and on
    two past int64, one cell at a time and in one batch, `cell_index` agrees
    with the oracle lookup: the same index (wrapped mod N on a torus), or
    KeyError for a cell absent from an open lattice."""
    box = list(itertools.product(range(-1, lat.N + 2), repeat=lat.dim))
    box += [(2**70 * lat.N + 1,) * lat.dim, (-(2**70),) * lat.dim]  # past int64
    for kind in KINDS[: lat.dim + 1]:
        for o in range(lat.dim if kind == "link" or (kind == "plaquette" and lat.dim == 3) else 1):
            want = []
            for x in box:
                try:
                    want.append(_oracle_index(lat, kind, o, x))
                except KeyError:
                    want.append(None)
                    with pytest.raises(KeyError):
                        cell_index(lat, kind, o, x)
                    continue
                assert cell_index(lat, kind, o, x).ndim == 0
                assert int(cell_index(lat, kind, o, x)) == want[-1], (kind, o, x)
            assert lat.periodic == (None not in want)
            if lat.periodic:
                assert cell_index(lat, kind, o, np.array(box).T).tolist() == want
            else:
                with pytest.raises(KeyError):
                    cell_index(lat, kind, o, np.array(box).T)


@pytest.mark.parametrize("lat", GEOMETRIES, ids=geometry_id)
def test_link_sites_are_the_oracle_link_ends(lat):
    """Link (x, i) runs from site x to site x + e_i; a periodic N = 1 link
    starts and ends at its one site."""
    base, head = link_sites(lat)
    want = [(site_index(lat, x), site_index(lat, shift_site(lat, x, i, +1))) for x, i in links(lat)]
    assert list(zip(base.tolist(), head.tolist())) == want
    assert np.array_equal(base, head) == (lat.periodic and lat.N == 1)


@pytest.mark.parametrize("lat", GEOMETRIES, ids=geometry_id)
def test_indexers_are_inverse_of_enumerations(lat):
    for idx, x in enumerate(sites(lat)):
        assert site_index(lat, x) == idx
    for idx, (x, i) in enumerate(links(lat)):
        assert link_index(lat, x, i) == idx
        assert lat.periodic or x[i] < lat.N  # the far end is a site too
    if lat.dim == 2:
        for idx, corner in enumerate(plaquettes(lat)):
            assert plaquette_index(lat, corner) == idx
    else:
        for idx, (corner, normal) in enumerate(plaquettes(lat)):
            assert plaquette_index(lat, corner, normal) == idx


def test_lattice_rejects_bad_arguments():
    with pytest.raises(ValueError):
        Lattice(4, 2, "open")
    with pytest.raises(ValueError):
        Lattice(2, 0, "open")
    with pytest.raises(ValueError):
        Lattice(2, 2, "twisted")


test_divergence_is_minus_gradient_transpose = entry_test("divergence_is_minus_gradient_transpose")
test_backward_curl_is_forward_curl_transpose = entry_test("backward_curl_is_forward_transpose")
test_curl_of_gradient_vanishes = entry_test("curl_of_gradient_vanishes")
test_cube_flux_of_curl_vanishes = entry_test("cube_flux_of_curl_vanishes", geometries=GEOMETRIES_3D)


@pytest.mark.parametrize("lat", GEOMETRIES, ids=geometry_id)
def test_site_laplacian_factorizations(lat):
    grad = gradient_matrix(lat).toarray()
    div = divergence_matrix(lat).toarray()
    lap = laplacian_matrix(lat, "site").toarray()
    assert np.array_equal(lap, div @ grad)
    assert np.array_equal(lap, -grad.T @ grad)  # negative semidefinite form


@pytest.mark.parametrize("lat", GEOMETRIES_2D, ids=geometry_id)
def test_plaquette_laplacian_is_minus_curl_curl_2d(lat):
    C = curl_link_to_plaq_matrix(lat).toarray()
    lap = laplacian_matrix(lat, "plaquette").toarray()
    assert np.array_equal(lap, -C @ C.T)


def test_plaquette_laplacian_composite_identity_3d_periodic():
    lat = Lattice(3, 2, "periodic")
    C = curl_link_to_plaq_matrix(lat).toarray()
    K = cube_flux_matrix(lat).toarray()
    lap = laplacian_matrix(lat, "plaquette").toarray()
    assert np.array_equal(-lap, C @ C.T + K.T @ K)


@pytest.mark.parametrize("lat", GEOMETRIES, ids=geometry_id)
def test_site_parity_alternates(lat):
    parity = site_parity(lat)
    assert parity.dtype == np.int64
    for idx, x in enumerate(sites(lat)):
        assert parity[idx] == (-1) ** (sum(x) % 2)


def test_global_loops_periodic_only():
    pbc = Lattice(2, 3, "periodic")
    for i in range(2):
        loop = global_loop_links(pbc, i)
        assert len(loop) == 3
        # every loop link points along the axis and sits on the axis line
        for ell in loop:
            (x, direction) = links(pbc)[ell]
            assert direction == i
            assert all(x[j] == 0 for j in range(2) if j != i)
    obc = Lattice(2, 3, "open")
    assert obc.n_global_loops == 0
    A = axis_indicator_matrix(pbc).toarray()
    assert A.shape == (pbc.n_links, 2)
    assert A.sum(axis=0).tolist() == [3, 3]


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_divergence_of_backward_curl_vanishes_on_random_fields(data):
    lat = data.draw(st.sampled_from(GEOMETRIES_2D))
    vals = data.draw(
        st.lists(
            st.integers(min_value=-5, max_value=5),
            min_size=lat.n_plaqs,
            max_size=lat.n_plaqs,
        )
    )
    L = FieldVector(lat, "plaquette", np.array(vals, dtype=float))
    E = FieldVector(lat, "link", curl_plaq_to_link_matrix(lat) @ L.values)
    assert np.abs(divergence(E).values).max() == 0


def test_field_vector_kind_guards():
    lat = Lattice(2, 2, "open")
    f = FieldVector(lat, "site", np.zeros(lat.n_sites))
    F = FieldVector(lat, "link", np.zeros(lat.n_links))
    with pytest.raises(ValueError):
        FieldVector(lat, "site", np.zeros(3))  # wrong length
    with pytest.raises(ValueError):
        gradient(F)  # gradient acts on site fields
    with pytest.raises(ValueError):
        divergence(f)  # divergence acts on link fields
    with pytest.raises(ValueError):
        curl_link_to_plaq(f)


def test_operator_registry_round_trip(tmp_path):
    lat = Lattice(2, 2, "open")
    names = operator_names()
    assert "divergence" in names and "gradient" in names
    op = operator_map(lat, "divergence")
    assert np.array_equal(op.matrix.toarray(), divergence_matrix(lat).toarray())
    out = tmp_path / "div.csv"
    out.write_text(op.coo_csv())
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# operator=divergence dim=2 N=2 bc=open")
    assert lines[1] == "row,col,value"
    # triplets reproduce the matrix exactly
    rebuilt = np.zeros((lat.n_sites, lat.n_links))
    for line in lines[2:]:
        r, c, v = line.split(",")
        rebuilt[int(r), int(c)] = float(v)
    assert np.array_equal(rebuilt, divergence_matrix(lat).toarray())
    with pytest.raises(ValueError):
        operator_map(lat, "no_such_operator")


DIFFERENTIAL_GEOMETRIES = [Lattice(d, n, bc) for d in (2, 3) for n in range(1, 6) for bc in ("open", "periodic")]
_INDEX_MAPS = ("axis_indicator_matrix", "direction_sum_matrix")


def _built_map(lat: Lattice, name: str):
    return lattice._OPERATORS[name][0](lat) if name in lattice._OPERATORS else getattr(lattice, name)(lat)


@pytest.mark.parametrize("lat", DIFFERENTIAL_GEOMETRIES, ids=geometry_id)
def test_maps_match_the_loop_builders(lat):
    """Every registry operator, the axis indicator and the direction sum,
    built by index arithmetic, equal their loop-built references (conftest)
    array by array: indptr, indices and data with their dtypes, and shape."""
    assert set(LOOP_OPERATORS) == set(lattice._OPERATORS) | set(_INDEX_MAPS)
    assert (lat.n_links, lat.n_plaqs, lat.n_cubes) == (len(links(lat)), len(plaquettes(lat)), len(cubes(lat)))
    for name, reference in LOOP_OPERATORS.items():
        if name == "cube_flux" and lat.dim == 2:
            continue
        built, want = _built_map(lat, name), reference(lat)
        want.sum_duplicates()  # as `cached` stores every matrix
        assert (built.shape, built.dtype) == (want.shape, want.dtype), name
        for part in ("indptr", "indices", "data"):
            got, ref = getattr(built, part), getattr(want, part)
            assert got.dtype == ref.dtype and np.array_equal(got, ref), (name, part)


def test_maps_read_no_cell_enumeration():
    """No module of the package keeps a tuple enumeration, index lookup or
    site shifter: cells are named by the coordinate grids alone, and the
    enumerations live on in conftest as the tests' oracle."""
    import dualqed

    removed = ("sites", "links", "plaquettes", "cubes", "site_index", "link_index", "plaquette_index", "shift_site")
    modules = [dualqed] + [importlib.import_module(f"dualqed.{m.name}") for m in pkgutil.iter_modules(dualqed.__path__)]
    assert len(modules) > 10
    assert [(m.__name__, name) for m in modules for name in removed if hasattr(m, name)] == []


def _arrays(obj):
    if isinstance(obj, np.ndarray):
        yield obj
    elif sp.issparse(obj):
        yield from (obj.data, obj.indices, obj.indptr)
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from _arrays(getattr(obj, f.name))
    elif isinstance(obj, tuple):
        for item in obj:
            yield from _arrays(item)


def _lists(obj):
    """Mutable containers in a result: lists and dicts (mapping proxies are read-only)."""
    if isinstance(obj, (list, dict)):
        yield obj
    if isinstance(obj, (list, tuple)):
        for item in obj:
            yield from _lists(item)
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from _lists(getattr(obj, f.name))


@pytest.mark.parametrize("module", [lattice, dualmap, greens, helmholtz], ids=lambda m: m.__name__)
def test_cached_results_are_read_only(module):
    """Every cached function, in every mode, returns arrays that refuse
    writes and no list or dict, so no caller can change what the next one
    reads."""
    cached = [fn for fn in vars(module).values() if hasattr(fn, "cache_info")]
    assert cached
    written = 0
    for fn in cached:
        modes = [{}, {"exact": True}] if "exact" in inspect.signature(fn).parameters else [{}]
        for lat, mode in itertools.product((Lattice(2, 2, "open"), Lattice(3, 1, "periodic")), modes):
            try:
                result = fn(lat, **mode)
            except ValueError:  # not defined on this geometry
                continue
            assert not list(_lists(result)), fn.__name__
            for arr in _arrays(result):
                assert not arr.flags.writeable, fn.__name__
                if arr.size:
                    with pytest.raises(ValueError):
                        arr.flat[0] = arr.flat[0]
                    written += 1
    assert written
