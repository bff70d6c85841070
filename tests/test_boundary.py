import io
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from seqpval import boundary
from seqpval.boundary import BoundaryError, BoundaryTable, DegenerateBoundaryError
from seqpval.spending import SpendingError, SpendingSequence

from exact_oracle import assert_mass_conserved, default_budget, exact_boundaries


def test_seed_row(default_table):
    default_table.extend(1)
    assert default_table.upper(1) == 2
    assert default_table.lower(1) == -1


def assert_equals_exact(table, exact):
    n = len(exact.upper)
    assert table.upper_array(n).tolist() == exact.upper
    assert table.lower_array(n).tolist() == exact.lower


@pytest.mark.parametrize("alpha", [0.05, 0.1])
@pytest.mark.parametrize("epsilon", [1e-3, 1e-2])
def test_matches_exact_rational_oracle(alpha, epsilon):
    # past the first lower absorption (n = 70 to 173 here), so L_n and the
    # lower hit sums are checked too
    table = BoundaryTable(alpha, SpendingSequence.default(epsilon, 1000)).extend(400)
    budget = default_budget(Fraction(str(epsilon)), 1000)
    exact = exact_boundaries(Fraction(str(alpha)), budget, 400)
    assert max(exact.lower) >= 0 and exact.hit_lower(400) > 0
    assert_equals_exact(table, exact)
    for n in range(1, 401):
        assert table.hit_upper_cum(n) == pytest.approx(float(exact.hit_upper(n)), rel=1e-12, abs=0)
        assert table.hit_lower_cum(n) == pytest.approx(float(exact.hit_lower(n)), rel=1e-12, abs=0)


def test_exact_oracle_custom_spending():
    eps_table = [Fraction(n, 10**6) for n in range(1, 16)]
    seq = SpendingSequence.custom(1e-3, [float(x) for x in eps_table])
    table = BoundaryTable(0.05, seq).extend(15)
    assert_equals_exact(table, exact_boundaries(Fraction(1, 20), lambda n: eps_table[n - 1], 15))


def test_equals_the_exact_recursion_to_10000_steps(default_table):
    default_table.extend(10_000)
    exact = exact_boundaries(Fraction(1, 20), default_budget(Fraction(1, 1000), 1000), 10_000)
    assert_equals_exact(default_table, exact)


@st.composite
def rational_settings(draw):
    """(alpha, epsilon, k) of the default family: alpha = a/b with b <= 200,
    epsilon = m/10^j <= 1/4 and k in [1, 2000]."""
    b = draw(st.integers(2, 200))
    j = draw(st.integers(1, 6))
    return (Fraction(draw(st.integers(1, b - 1)), b),
            Fraction(draw(st.integers(1, 10**j // 4)), 10**j), draw(st.integers(1, 2000)))


@given(rational_settings())
def test_equals_the_exact_recursion_at_random_rational_settings(setting):
    alpha, epsilon, k = setting
    table = BoundaryTable(float(alpha), SpendingSequence.default(float(epsilon), k)).extend(1000)
    assert_equals_exact(table, exact_boundaries(alpha, default_budget(epsilon, k), 1000))


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP D11")
def test_a_step_without_budget_absorbs_no_cell():
    # eps_n flat from n = 2,500 on: a step there has no budget to spend, yet
    # the float recursion absorbs cells below half an ulp of the hit sum,
    # and from step 2,564 on its U_n is one below the exact recursion's
    n = np.minimum(np.arange(1, 10_001), 2500)
    values = 1e-3 * n / (1000 + n)
    table = BoundaryTable(0.05, SpendingSequence.custom(1e-3, values)).extend(2600)
    assert_equals_exact(table, exact_boundaries(Fraction(1, 20),
                                                lambda n: Fraction(values[n - 1]), 2600))


def test_budget_and_ordering_invariants(default_table):
    n_max = 5000
    default_table.extend(n_max)
    eps = default_table.spending.values(n_max)
    for n in range(1, n_max + 1):
        assert default_table.hit_upper_cum(n) <= eps[n - 1] + 1e-12
        assert default_table.hit_lower_cum(n) <= eps[n - 1] + 1e-12
        assert default_table.upper(n) > n * 0.05 > default_table.lower(n)


def test_hoeffding_caps(default_table):
    default_table.extend(5000)
    alpha = default_table.alpha
    for n in range(2, 5001):
        d = default_table.spending.delta(n)
        assert default_table.upper(n) <= math.ceil(n * alpha + d)
        assert default_table.lower(n) >= n * alpha - d - 1


def _bernoulli_kl(q: float, a: float) -> float:
    """KL(Bernoulli(q) || Bernoulli(a))."""
    out = 0.0
    if q > 0.0:
        out += q * math.log(q / a)
    if q < 1.0:
        out += (1.0 - q) * math.log((1.0 - q) / (1.0 - a))
    return out


def chernoff_rates(table, n):
    """Rates (q_lo, q_hi) where KL(. || alpha) first reaches
    c = -log(eps_n - eps_{n-1})/n, found by 64-step bisection and rounded
    outward so that KL >= c holds in floats at each; the trivial 0 or 1 where
    KL never reaches c, and (0, 1) when no budget is spent at n.

    The envelope at n is [q_lo - 1/n, q_hi + 1/n] (see ``test_chernoff_caps``).
    """
    inc = table.spending.increment(n)
    if inc <= 0.0:
        return (0.0, 1.0)
    c = -math.log(inc) / n
    a = table.alpha

    def rate(edge):
        if _bernoulli_kl(edge, a) < c:
            return edge
        inside, outside = a, edge
        for _ in range(64):
            mid = 0.5 * (inside + outside)
            if _bernoulli_kl(mid, a) >= c:
                outside = mid
            else:
                inside = mid
        return outside

    return (rate(0.0), rate(1.0))


def test_chernoff_caps(default_table):
    default_table.extend(5000)
    alpha = default_table.alpha
    for n in range(2, 5001):
        q_lo, q_hi = chernoff_rates(default_table, n)
        assert default_table.upper(n) <= n * q_hi + 1
        assert default_table.lower(n) >= n * q_lo - 1
        # never looser than the Hoeffding half-width (Pinsker)
        d = default_table.spending.delta(n)
        assert q_hi <= alpha + d / n + 1e-12
        assert q_lo >= alpha - d / n - 1e-12


def test_boundaries_move_by_at_most_one(default_table):
    default_table.extend(5000)
    up = default_table.upper_array(5000)
    lo = default_table.lower_array(5000)
    assert np.all(np.diff(up) >= 0)
    assert np.all(np.diff(lo) >= 0)
    assert np.all(np.diff(up) <= 1)
    assert np.all(np.diff(lo) <= 1)


def test_mass_conservation(default_table):
    default_table.extend(20_000)
    assert_mass_conserved(default_table)


def test_extension_is_incremental():
    whole = BoundaryTable(0.05, SpendingSequence.default(1e-3)).extend(400)
    pieces = BoundaryTable(0.05, SpendingSequence.default(1e-3)).extend(100)
    pieces.extend(250).extend(400)
    assert np.array_equal(whole.upper_array(400), pieces.upper_array(400))
    assert np.array_equal(whole.lower_array(400), pieces.lower_array(400))
    assert whole.hit_upper_cum(400) == pieces.hit_upper_cum(400)


def test_out_of_range_access():
    table = BoundaryTable(0.05, SpendingSequence.default(1e-3)).extend(10)
    with pytest.raises(BoundaryError):
        table.upper(11)
    with pytest.raises(BoundaryError):
        table.lower(0)


def test_corridor_never_collapses_at_max_budget():
    # with eps <= 1/4 the alive mass stays >= 1 - 2*eps, so the two tails can
    # never overlap; the degenerate guard must stay silent even at the most
    # aggressive admissible schedule
    seq = SpendingSequence.custom(0.25, [0.249] * 2000)
    table = BoundaryTable(0.5, seq).extend(2000)
    assert table.upper(2000) > table.lower(2000)
    assert table._lattice.alive.sum() >= 1.0 - 2 * 0.25


def test_degenerate_error_carries_step():
    err = DegenerateBoundaryError(42)
    assert isinstance(err, BoundaryError)
    assert err.n == 42


def test_save_load_round_trip(tmp_path):
    table = BoundaryTable(0.05, SpendingSequence.default(1e-3)).extend(500)
    path = tmp_path / "bnd.csv"
    table.save(path)
    back = BoundaryTable.load(path)
    assert back.n_max == 500
    assert np.array_equal(back.upper_array(500), table.upper_array(500))
    assert np.array_equal(back.lower_array(500), table.lower_array(500))
    assert back.hit_upper_cum(500) == table.hit_upper_cum(500)
    # the loaded table keeps growing, identically
    back.extend(800)
    table.extend(800)
    assert np.array_equal(back.upper_array(800), table.upper_array(800))


def test_save_while_the_table_grows(tmp_path, monkeypatch):
    # another thread's extend lands between save's first and last read of
    # the table: here, at the CSV's first write
    seq = SpendingSequence.default(1e-3, 1000)
    table = BoundaryTable(0.05, seq).extend(2000)
    path = tmp_path / "bnd.csv"
    real_open = open

    class GrowOnFirstWrite:
        def __init__(self, fh):
            self.fh = fh

        def write(self, text):
            if table.n_max == 2000:
                table.extend(2500)
            return self.fh.write(text)

        def close(self):
            self.fh.close()

    def growing_open(file, *args, **kwargs):
        fh = real_open(file, *args, **kwargs)
        return GrowOnFirstWrite(fh) if str(file) == str(path) else fh

    monkeypatch.setattr(boundary, "open", growing_open, raising=False)
    table.save(path)
    monkeypatch.undo()
    assert table.n_max == 2500
    back = BoundaryTable.load(path)
    assert back.n_max == 2000
    fresh = BoundaryTable(0.05, seq)
    for t in (back, fresh):
        t.extend(3000)
    for name in ("upper_array", "lower_array"):
        assert np.array_equal(getattr(back, name)(3000), getattr(fresh, name)(3000)), name
    for n in range(1, 3001):
        assert back.hit_upper_cum(n) == fresh.hit_upper_cum(n), n
        assert back.hit_lower_cum(n) == fresh.hit_lower_cum(n), n
    assert back._lattice.offset == fresh._lattice.offset
    assert np.array_equal(back._lattice.alive, fresh._lattice.alive)
    assert_mass_conserved(back)


def test_load_from_a_stream_extends_like_a_fresh_table():
    seq = SpendingSequence.default(1e-3, 1000)
    table = BoundaryTable(0.05, seq).extend(1500)
    back = BoundaryTable.load(io.StringIO(table.to_csv_string()))
    fresh = BoundaryTable(0.05, seq)
    for t in (back, fresh):
        t.extend(2500)
    assert back.to_csv_string() == fresh.to_csv_string()
    assert back._lattice.offset == fresh._lattice.offset
    assert np.array_equal(back._lattice.alive, fresh._lattice.alive)


@pytest.mark.parametrize("column", [0, 1, 2, 3, 4, 5])
def test_load_refuses_a_changed_cell(tmp_path, column):
    table = BoundaryTable(0.05, SpendingSequence.default(1e-3)).extend(600)
    lines = table.to_csv_string().splitlines()
    cells = lines[502].split(",")  # the row of step 501
    assert cells[0] == "501"
    if column <= 2:  # n, L or U, by one
        cells[column] = str(int(cells[column]) + 1)
    else:  # eps_n or a hit sum, by one ulp
        cells[column] = repr(float(np.nextafter(float(cells[column]), 1.0)))
    lines[502] = ",".join(cells)
    path = tmp_path / "bnd.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(BoundaryError, match="column is not the recursion's"):
        BoundaryTable.load(path)


def test_custom_table_round_trips_and_extends_to_its_end(tmp_path):
    n = np.arange(1, 3_001)
    seq = SpendingSequence.custom(1e-2, 1e-2 * (1.0 - np.exp(-n / 300.0)) * 0.999)
    table = BoundaryTable(0.1, seq).extend(1_200)
    path = tmp_path / "bnd.csv"
    table.save(path)
    # without the sequence, the file's eps_n column is the spending, to 1,200
    alone = BoundaryTable.load(path)
    assert alone.to_csv_string().splitlines()[1:] == table.to_csv_string().splitlines()[1:]
    with pytest.raises(SpendingError):
        alone.extend(1_201)
    # re-saved, its header names the column's digest, but the file is the
    # same recursion of the sequence's first 1,200 values
    resaved = tmp_path / "again.csv"
    alone.save(resaved)
    back = BoundaryTable.load(path, spending=seq)
    again = BoundaryTable.load(resaved, spending=seq)
    for t in (back, again, table):
        t.extend(3_000)
    assert back.to_csv_string() == again.to_csv_string() == table.to_csv_string()
    for t in (back, again):
        assert t._lattice.offset == table._lattice.offset
        assert np.array_equal(t._lattice.alive, table._lattice.alive)


def test_load_rejects_spending_mismatch(tmp_path):
    table = BoundaryTable(0.05, SpendingSequence.default(1e-3)).extend(20)
    path = tmp_path / "bnd.csv"
    table.save(path)
    with pytest.raises(BoundaryError):
        BoundaryTable.load(path, spending=SpendingSequence.default(1e-3, 999))


def test_load_rejects_garbage():
    with pytest.raises(BoundaryError):
        BoundaryTable.load(io.StringIO("p,q\n1,2\n"))


def test_csv_header_carries_parameters():
    table = BoundaryTable(0.1, SpendingSequence.default(1e-2, 77)).extend(5)
    text = table.to_csv_string()
    first = text.splitlines()[0]
    assert first.startswith("# seqpval-boundaries ")
    assert '"alpha": 0.1' in first
    assert '"spending_ref": 77' in first
