"""The compiled kernel against the numpy reference loops.

Both paths must give bit-identical tables, sweep states, stop records, null
draws, LRT statistics and nested takes, so every comparison here is exact
(``==``).  The numpy path is forced in-process by clearing the loader's
cached handle.
"""

import ctypes
import json
import math
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from seqpval import _native, applications, inference
from seqpval.applications import NullModel, _lrt_batch, sample_null_batch
from seqpval.boundary import BoundaryTable, DegenerateBoundaryError
from seqpval.runner import get_table
from seqpval.spending import SpendingSequence

from exact_oracle import assert_mass_conserved

TABLE_FIELDS = ("_upper", "_lower", "_hit_upper", "_hit_lower")


@pytest.fixture
def kernel():
    lib = _native.kernel()
    if lib is None:
        pytest.skip("no C compiler or cache directory: only the numpy path runs here")
    return lib


def numpy_path(fn, *args, **kwargs):
    saved = _native._lib
    _native._lib = None
    try:
        return fn(*args, **kwargs)
    finally:
        _native._lib = saved


def assert_lattices_equal(a: _native.Lattice, b: _native.Lattice):
    assert (a.n, a.offset) == (b.n, b.offset)
    assert a.acc.shape == b.acc.shape and np.all(a.acc == b.acc)
    assert a.alive.shape == b.alive.shape and np.all(a.alive == b.alive)


def assert_tables_equal(a: BoundaryTable, b: BoundaryTable):
    assert a.n_max == b.n_max == a._lattice.n
    assert_lattices_equal(a._lattice, b._lattice)
    n = a.n_max + 1
    for name in TABLE_FIELDS:
        x, y = getattr(a, name)[:n], getattr(b, name)[:n]
        assert x.shape == y.shape and np.all(x == y), name


def grow(table: BoundaryTable, targets) -> BoundaryTable:
    for n in targets:
        table.extend(n)
    return table


@pytest.mark.parametrize(
    "alpha, epsilon, k", [(0.05, 1e-3, 1000), (0.1, 1e-2, 100), (0.01, 1e-3, 1000)]
)
def test_extend_matches_numpy(kernel, alpha, epsilon, k):
    def build():
        return BoundaryTable(alpha, SpendingSequence.default(epsilon, k)).extend(200_000)

    assert_tables_equal(build(), numpy_path(build))


def test_extend_custom_spending_in_uneven_chunks(kernel):
    n = np.arange(1, 30_001)
    seq = SpendingSequence.custom(1e-2, 1e-2 * (1.0 - np.exp(-n / 700.0)) * 0.999)
    chunks = [1, 2, 3, 50, 51, 1024, 1025, 4097, 12_345, 30_000]
    a = grow(BoundaryTable(0.2, seq), chunks)
    b = numpy_path(grow, BoundaryTable(0.2, seq), chunks)
    assert_tables_equal(a, b)
    assert_tables_equal(a, BoundaryTable(0.2, seq).extend(30_000))


class _Collapsing:
    """A budget schedule no SpendingSequence admits: eps_n = 0.9 from step 40
    on, so both tails may take more than half the mass and the corridor
    collapses."""

    def values(self, n, start=1):
        idx = np.arange(start, n + 1, dtype=float)
        return np.where(idx < 40, 1e-3 * idx / (1000.0 + idx), 0.9)


def test_extend_degenerate_step_matches(kernel):
    def build():
        table = BoundaryTable(0.3, _Collapsing()).extend(10)
        with pytest.raises(DegenerateBoundaryError) as err:
            table.extend(100)
        return table, err.value.n

    (a, step_a), (b, step_b) = build(), numpy_path(build)
    assert step_a == step_b == 40
    # the failed call publishes nothing, but the rows it wrote agree too
    assert a.n_max == 10
    assert_tables_equal(a, b)
    for name in TABLE_FIELDS:
        assert np.all(getattr(a, name)[:40] == getattr(b, name)[:40]), name


def sweep_both(table, p, horizon, *, state=None, alive_floor=0.0, record=True):
    out = []
    for path in (lambda f, *a, **k: f(*a, **k), numpy_path):
        lat = None if state is None else _native.Lattice(state.alive, state.n, state.offset,
                                                         state.acc)
        stops = [] if record else None
        lat = path(inference._sweep, table, p, horizon, lat, alive_floor=alive_floor,
                   record=stops)
        out.append((lat, stops))
    (sa, recs_a), (sb, recs_b) = out
    assert_lattices_equal(sa, sb)
    assert inference._alive_total(sa) == inference._alive_total(sb)
    if not record:
        return sa, None
    for x, y, dtype in zip(recs_a, recs_b, inference._STOP_DTYPES, strict=True):
        assert x.dtype == y.dtype == dtype and np.array_equal(x, y)
    return sa, recs_a


@pytest.mark.parametrize("p", [0.0, 1e-3, 0.03, 0.05, 0.0508, 0.3, 1.0])
def test_sweep_matches_numpy(kernel, default_table, p):
    st, recs = sweep_both(default_table, p, 20_000)
    assert st.n <= 20_000
    sweep_both(default_table, p, 20_000, record=False)
    # the floor exit of resampling_risk
    floor_st, _ = sweep_both(default_table, p, 20_000, alive_floor=1e-9)
    assert floor_st.n <= st.n


def test_sweep_resumes_from_state(kernel, default_table):
    # resampling_risk's doubling: resume a state that stopped at a horizon
    for p in (0.03, 0.0508):
        st, _ = sweep_both(default_table, p, 2_500)
        for h in (5_000, 10_000, 20_000):
            st, _ = sweep_both(default_table, p, h, state=st)
    # and one that stopped on the floor
    st, _ = sweep_both(default_table, 0.03, 20_000, alive_floor=1e-4)
    assert st.n < 20_000
    sweep_both(default_table, 0.03, 20_000, state=st, alive_floor=1e-9)


def test_sweep_step_totals_match(kernel, default_table):
    # one step at a time from a zero sum: acc is then that step's alive
    # total, which the kernel must add up in numpy's pairwise order (the
    # corridor passes 8 and 128 cells on the way)
    st = inference._initial_state(0.0508)
    for steps in (range(2, 601), range(12_000, 12_301)):
        for n in steps:
            st.acc[0] = 0.0
            st, _ = sweep_both(default_table, 0.0508, n, state=st)
    assert st.alive.size > 128


def test_sweep_record_buffer_refills(kernel, default_table, monkeypatch):
    # the smallest record buffer the caller allows: one step's worth
    monkeypatch.setattr(inference, "_RECORD_BUFFER", 1)
    _, recs = sweep_both(default_table, 0.045, 6_000)
    assert recs[0].size > 4_096
    risk = resampling_risk_both(default_table, 0.0508, 1_000, max_horizon=8_000)
    assert not risk.certified


def test_counts_match_numpy(kernel, default_table):
    # StoppingCounts from the null sweep, resumed once, on both paths
    def build():
        return inference.StoppingCounts(default_table, 20_000).extend(30_000)

    a, b = build(), numpy_path(build)
    for name in ("tau", "s", "log_count"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), name


@pytest.mark.parametrize("kernel_on", [True, False])
def test_growth_by_single_steps_matches_one_extension(kernel_on):
    n = np.arange(1, 3_001)
    for seq in (SpendingSequence.default(1e-3, 1000),
                SpendingSequence.custom(1e-2, 1e-2 * (1.0 - np.exp(-n / 300.0)) * 0.999)):
        def run():
            return (grow(BoundaryTable(0.1, seq), range(2, 3_001)),
                    BoundaryTable(0.1, seq).extend(3_000))

        steps, whole = run() if kernel_on else numpy_path(run)
        assert_tables_equal(steps, whole)
        saved = np.array([float(row.split(",")[3])
                          for row in steps.to_csv_string().splitlines()[2:]])
        assert np.array_equal(saved, seq.values(3_000))


def resampling_risk_both(table, p, horizon, **kwargs):
    a = inference.resampling_risk(table, p, horizon, **kwargs)
    b = numpy_path(inference.resampling_risk, table, p, horizon, **kwargs)
    assert a == b
    return a


@pytest.mark.parametrize("kernel_on", [True, False])
def test_concurrent_extension_matches_serial(kernel_on):
    target = 60_000
    serial = BoundaryTable(0.05, SpendingSequence.default(1e-3, 1000))
    shared = BoundaryTable(0.05, SpendingSequence.default(1e-3, 1000))
    errors = []
    start = threading.Barrier(4)

    def worker(chunk):
        try:
            start.wait(timeout=30)
            for n in range(chunk, target + 1, chunk):
                shared.extend(n)
                # rows 1..n are complete once extend returns
                assert shared.upper(n) > n * shared.alpha > shared.lower(n)
            shared.extend(target)
        except Exception as exc:  # noqa: BLE001 - reported by the main thread
            errors.append(exc)

    def run():
        serial.extend(target)
        threads = [threading.Thread(target=worker, args=(c,)) for c in (997, 1500, 4096, 7919)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)

    run() if kernel_on else numpy_path(run)
    assert not errors, errors
    assert_tables_equal(shared, serial)
    assert_mass_conserved(shared)


# -- null draws and the LRT ----------------------------------------------------

CUT = applications._INVERSION_MAX_DRAWS_PER_CELL


def null_model(shape, n_total, zero_margins=False, seed=0):
    rng = np.random.default_rng(seed)
    rows, cols = rng.dirichlet(np.ones(shape[0])), rng.dirichlet(np.ones(shape[1]))
    if zero_margins:
        rows[1] = cols[2] = 0.0
    q = np.outer(rows / rows.sum(), cols / cols.sum())
    return NullModel(cell_probs=q / q.sum(), total=n_total)


def state(rng) -> str:
    """A Generator's bit-generator state, arrays included, as one string."""
    return json.dumps(rng.bit_generator.state, sort_keys=True, default=lambda a: a.tolist())


def assert_bits_equal(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("shape, zero_margins", [
    ((1, 1), False), ((2, 2), False), ((8, 10), False), ((5, 7), True), ((12, 15), False),
], ids=["1x1", "2x2", "8x10", "5x7_zero_margins", "12x15"])
@pytest.mark.parametrize("per_cell", [1, CUT, CUT + 1 / 64], ids=["N=cells", "N=cut", "N>cut"])
def test_null_draw_and_lrt_match_numpy(kernel, shape, zero_margins, per_cell):
    cells = shape[0] * shape[1]
    n = math.ceil(per_cell * cells)
    model = null_model(shape, n, zero_margins)
    inversion = n <= CUT * cells
    for size in (1, 7, 8192):
        rng, ref = np.random.default_rng(size), np.random.default_rng(size)
        tables = sample_null_batch(model, rng, size)
        assert_bits_equal(tables, numpy_path(sample_null_batch, model, ref, size))
        assert state(rng) == state(ref)
        if inversion:
            ref = np.random.default_rng(size)
            ref.random(size * n)
            assert state(rng) == state(ref)
        assert_bits_equal(_lrt_batch(tables, n), numpy_path(_lrt_batch, tables, n))


@pytest.mark.parametrize("bit_generator", [np.random.MT19937, np.random.Philox, np.random.SFC64])
def test_null_draw_advances_any_bit_generator_as_random(kernel, bit_generator):
    model = null_model((5, 7), 39)
    rng, ref = np.random.Generator(bit_generator(3)), np.random.Generator(bit_generator(3))
    tables = sample_null_batch(model, rng, 100)
    assert_bits_equal(tables, numpy_path(sample_null_batch, model, ref, 100))
    ref = np.random.Generator(bit_generator(3))
    ref.random(100 * 39)
    assert state(rng) == state(ref)


class _Uniforms:
    """A stand-in for the Generator of ``_draw_numpy``: given uniforms."""

    def __init__(self, u):
        self.u = u

    def random(self, m):
        out, self.u = self.u[:m], self.u[m:]
        return out


def edge_model():
    """A 5x7 model whose cumulative probabilities sit on guide bucket edges
    b / g for which the next double down, u, has u * g rounding up to b; each
    positive cell is followed by two cells of probability 0."""
    g = applications._GUIDE_PER_CELL * 35
    edges = np.arange(g + 1) / g
    rounds_up = [e for b, e in enumerate(edges[1:-1].tolist(), 1)
                 if int(np.nextafter(e, 0.0) * g) == b]
    targets = [rounds_up[0]]
    for e in rounds_up:  # within a factor 2, so that each difference is exact
        if targets[-1] < e <= 2.0 * targets[-1] and len(targets) < 11:
            targets.append(e)
    q = np.zeros(35)
    prev = 0.0
    for i, t in enumerate(targets):
        q[3 * i] = t - prev
        prev = t
    q[-1] = 1.0 - prev
    model = NullModel(cell_probs=q.reshape(5, 7), total=35)
    assert model._inversion.cdf[3 * np.arange(len(targets))].tolist() == targets
    return model, np.array(targets), g


def test_null_draw_at_guide_bucket_edges(kernel):
    model, targets, g = edge_model()
    inv = model._inversion
    u = np.concatenate([np.arange(g + 1) / g, inv.cdf, [0.0, 1.0 - 2.0**-53]])
    u = np.concatenate([u, np.nextafter(u, 0.0), np.nextafter(u, 1.0)])
    u = np.unique(u[(u >= 0.0) & (u < 1.0)])
    expect = np.minimum(np.searchsorted(inv.cdf, u, side="right"), inv.last)
    # the guide starts above the right cell: the search has to walk down
    assert np.sum(inv.guide[(u * g).astype(np.int64)] > expect) >= len(targets)
    # one draw per table, so each row of the result is the one-hot of a cell
    out = np.empty((u.size, 35), dtype=np.int64)
    source = ctypes.CFUNCTYPE(ctypes.c_double, ctypes.c_void_p)(
        lambda _, it=iter(u.tolist()): next(it))
    assert kernel.seqpval_null_draw(source, None, u.size, 1, *inv.args, out.ctypes.data) == 0
    assert np.array_equal(out.argmax(axis=1), expect) and np.all(out.sum(axis=1) == 1)
    ref = np.empty_like(out)
    applications._draw_numpy(inv, 1, _Uniforms(u), ref)
    assert np.array_equal(out, ref)


@pytest.mark.parametrize("kernel_on", [True, False])
@pytest.mark.parametrize("counts", [
    [[11, 0], [0, 0]], [[-1, 5], [3, 3]], [[6, 6], [0, 0]], [[6, 0], [6, 0]],
], ids=["cell_above_N", "negative_cell", "row_sum_above_N", "column_sum_above_N"])
def test_lrt_rejects_counts_outside_range(kernel_on, counts):
    # the bad table follows a good one: nothing is read out of range either way
    batch = np.array([[[3, 2], [1, 4]], counts])
    lrt = _lrt_batch if kernel_on else lambda *args: numpy_path(_lrt_batch, *args)
    assert lrt(batch[:1], 10).shape == (1,)
    with pytest.raises(IndexError):
        lrt(batch, 10)


# -- nested streams --------------------------------------------------------------


def nested_takes(construct, model, M, rng, t_ref, takes=(8, 16, 32, 32, 7)):
    """Each take's bits with the stream's costs and drawn count after it, and
    the Generator's state at the end."""
    bounds = applications._ClippedBounds(get_table(0.05), M, 1, 20)
    if construct == "double":
        stream = applications._DoubleBootstrapStream(model, bounds, rng)
    else:
        stream = applications._InnerLevelStream(model, bounds, rng, t_ref)
    out = [(stream.take(m).tobytes(), list(stream.costs), stream.drawn) for m in takes]
    return out, state(rng)


def assert_nested_matches_loop(construct, model, M, bit_generator=np.random.PCG64, t_ref=None):
    if t_ref is None:
        rows, cols = model.cell_probs.shape
        t_ref = applications.chisq_quantile(0.05, (rows - 1) * (cols - 1))
    a = nested_takes(construct, model, M, np.random.Generator(bit_generator(7)), t_ref)
    b = numpy_path(nested_takes, construct, model, M, np.random.Generator(bit_generator(7)),
                   t_ref)
    assert a == b
    return a


@pytest.mark.parametrize("construct", ["double", "level"])
@pytest.mark.parametrize("M", [1, 7, 50, 250])
@pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.Philox,
                                           np.random.SFC64, np.random.MT19937])
def test_nested_take_matches_loop(kernel, construct, M, bit_generator):
    model = applications.fit_independence(applications.example_table())
    takes, _ = assert_nested_matches_loop(construct, model, M, bit_generator)
    if M == 1:  # every inner run stops at its first step
        assert set(takes[-1][1]) == {1 + (construct == "double")}


@pytest.mark.parametrize("construct", ["double", "level"])
@pytest.mark.parametrize("M", [1, 7, 50, 250])
def test_nested_take_matches_loop_on_zero_margins(kernel, construct, M):
    # a model with a zero row and a zero column; and a total below the rows,
    # so that every A_i has zero rows and its refit zero margins
    for model in (null_model((5, 7), 39, zero_margins=True), null_model((5, 7), 3)):
        assert_nested_matches_loop(construct, model, M)
    if construct == "level":
        # every inner bit 1: every run stops at one step, step 1 for M < 20,
        # where U'_1 = c + 1 = 1
        takes, _ = assert_nested_matches_loop(construct, null_model((5, 7), 39), M, t_ref=0.0)
        assert len(set(takes[-1][1])) == 1 and (takes[-1][1][0] == 1) == (M < 20)


class _NoNestedKernel:
    """The loaded kernel without seqpval_nested."""

    def __init__(self, lib):
        self._lib = lib

    def __getattr__(self, name):
        assert name != "seqpval_nested", "the nested kernel ran"
        return getattr(self._lib, name)


@pytest.mark.parametrize("construct", ["double", "level"])
def test_nested_take_above_the_inversion_cut_runs_the_loop(kernel, monkeypatch, construct):
    model = null_model((2, 2), 4 * CUT + 1)
    ref = numpy_path(nested_takes, construct, model, 50, np.random.default_rng(7), 1.0)
    monkeypatch.setattr(_native, "_lib", _NoNestedKernel(kernel))
    assert nested_takes(construct, model, 50, np.random.default_rng(7), 1.0) == ref


FALLBACK_SCRIPT = """
import sys
from seqpval.cli import main
for argv in (["boundaries", "--n", "20000"], ["run", "--simulate-p", "0.2", "--seed", "7"],
             ["risk", "--p", "0.01,0.03,0.075,0.3"], ["etau", "--p", "0.02,0.2"]):
    sys.stdout.write(f"== {argv} exit {main(argv)}\\n")
"""


def test_cli_falls_back_silently_without_compiler(tmp_path):
    def cli(cache, **env):
        cache.mkdir()
        full = {**os.environ, "XDG_CACHE_HOME": str(cache), **env}
        out = subprocess.run([sys.executable, "-c", FALLBACK_SCRIPT], env=full,
                             capture_output=True, timeout=600)
        assert out.returncode == 0, out.stderr
        return out

    fast = cli(tmp_path / "kernel")
    slow = cli(tmp_path / "fallback", CC="false")
    assert slow.stderr == fast.stderr == b""
    assert slow.stdout == fast.stdout
    assert slow.stdout.count(b"exit 0") == 4
    assert not list((tmp_path / "fallback").rglob("*.so"))
    if _native.kernel() is not None:
        assert list((tmp_path / "kernel").rglob("kernel-*.so"))


def test_import_compiles_nothing(tmp_path):
    env = {**os.environ, "XDG_CACHE_HOME": str(tmp_path)}
    code = "import seqpval, seqpval._native as n; assert n._lib is n._UNSET"
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)
    assert not list(tmp_path.iterdir())


def test_loader_declines_unusable_cache(tmp_path, monkeypatch):
    cache = tmp_path / "seqpval"
    cache.mkdir()
    os.chmod(cache, 0o777)  # writable by others: never trusted
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    assert _native._load() is None
    assert not list(cache.iterdir())
    blocked = tmp_path / "not-a-directory"
    blocked.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocked))
    assert _native._load() is None
