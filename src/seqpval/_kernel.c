/* Compiled kernels: the lattice recursion behind BoundaryTable.extend (under
 * the null rate alpha) and inference._sweep (under any p), the null draws
 * and likelihood-ratio statistics of the contingency-table bootstrap
 * (applications.sample_null_batch and applications._lrt_batch), and the
 * truncated inner runs of one take of a nested bootstrap stream
 * (applications._NestedStream.take: seqpval_nested).
 *
 * Every function repeats its numpy reference loop operation for operation,
 * so their results are bit-identical to them.  That holds only when the file
 * is compiled without contraction into fused multiply-adds and without
 * -ffast-math (the loader passes -O2 -ffp-contract=off).
 *
 * In the two lattice functions the alive cells live in a work buffer owned by
 * the caller: cells buf[start .. start + w) hold the masses of
 * S = off .. off + w - 1.  A step updates them in place, top down, into
 * buf[start .. start + w] and then trims the window.  The integer state is
 * passed as st = {n, start, w, off}, where n is the last completed step; the
 * kernel updates it as it goes, so the caller resumes from it after any
 * return.
 */

#include <stdint.h>
#include <string.h>

enum {
    SEQPVAL_DONE = 0,       /* reached the target step */
    SEQPVAL_ROOM = 1,       /* the work buffer cannot hold the next step */
    SEQPVAL_DEGENERATE = 2, /* step st[0] + 1 admits no corridor (U <= L) */
    SEQPVAL_FLOOR = 3,      /* the alive total fell to alive_floor */
    SEQPVAL_EMPTY = 4,      /* no alive cell is left; st[0] is the horizon */
    SEQPVAL_FLUSH = 5,      /* the record buffer may not hold the next step */
    SEQPVAL_RANGE = 6       /* a count or margin lies outside 0 .. n_total */
};

/* numpy's pairwise summation (the order of np.sum on a contiguous float64
 * array): below 8 terms in sequence from 0.0, up to 128 terms with eight
 * accumulators, beyond that split at n/2 rounded down to a multiple of 8. */
static double pairwise_sum(const double *a, int64_t n)
{
    if (n < 8) {
        double res = 0.0;
        for (int64_t i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    if (n <= 128) {
        double r[8];
        int64_t i;
        for (int k = 0; k < 8; k++)
            r[k] = a[k];
        for (i = 8; i < n - (n % 8); i += 8)
            for (int k = 0; k < 8; k++)
                r[k] += a[i + k];
        double res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    int64_t n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise_sum(a, n2) + pairwise_sum(a + n2, n - n2);
}

/* new[i] = a[i] * q + a[i - 1] * p over i = 0 .. w, in place. */
static void lattice_step(double *b, int64_t w, double q, double p)
{
    if (w == 0) {
        b[0] = 0.0;
        return;
    }
    b[w] = b[w - 1] * p;
    for (int64_t i = w - 1; i >= 1; i--)
        b[i] = b[i] * q + b[i - 1] * p;
    b[0] = b[0] * q;
}

/* Make room for w + 1 cells from buf[*start]; 0 if the buffer is too small. */
static int make_room(double *buf, int64_t cap, int64_t *start, int64_t w)
{
    if (*start + w + 1 <= cap)
        return 1;
    if (w + 1 > cap)
        return 0;
    memmove(buf, buf + *start, (size_t)w * sizeof(double));
    *start = 0;
    return 1;
}

/* Boundary steps st[0] + 1 .. n_to under the null rate alpha.
 * h = {hu, hl} are the cumulative hit masses; eps[n - first] is the budget of
 * step n; upper, lower, hit_u and hit_l are indexed by n. */
int seqpval_boundary(double *buf, int64_t cap, int64_t *st, double *h, double alpha,
                     const double *eps, int64_t first, int64_t n_to, int64_t *upper,
                     int64_t *lower, double *hit_u, double *hit_l)
{
    int64_t n = st[0], start = st[1], w = st[2], off = st[3];
    double hu = h[0], hl = h[1];
    const double q = 1.0 - alpha;
    int rc = SEQPVAL_DONE;
    while (n < n_to) {
        if (!make_room(buf, cap, &start, w)) {
            rc = SEQPVAL_ROOM;
            break;
        }
        const double *b = buf + start;
        lattice_step(buf + start, w, q, alpha);
        const double eps_n = eps[n + 1 - first];
        const int64_t top = off + w;
        /* minimal j whose upper tail keeps the budget: descend from top + 1 */
        int64_t j = top + 1;
        double tail = 0.0;
        while (j - 1 >= off && tail + b[j - 1 - off] + hu <= eps_n) {
            tail += b[j - 1 - off];
            j--;
        }
        const int64_t u = j;
        /* maximal j whose lower tail keeps the budget: ascend from off - 1 */
        j = off - 1;
        double ltail = 0.0;
        while (j + 1 <= top && ltail + b[j + 1 - off] + hl <= eps_n) {
            ltail += b[j + 1 - off];
            j++;
        }
        const int64_t l = j;
        if (u <= l) {
            rc = SEQPVAL_DEGENERATE;
            break;
        }
        hu += tail;
        hl += ltail;
        start += l + 1 - off;
        w = u - l - 1;
        off = l + 1;
        n++;
        upper[n] = u;
        lower[n] = l;
        hit_u[n] = hu;
        hit_l[n] = hl;
    }
    st[0] = n;
    st[1] = start;
    st[2] = w;
    st[3] = off;
    h[0] = hu;
    h[1] = hl;
    return rc;
}

/* Sweep steps st[0] + 1 .. horizon under rate p against fixed boundaries,
 * where upper[n - 1] and lower[n - 1] are U_n and L_n.  sum_alive accumulates
 * the alive total of each step.  With rec_n non-NULL, every stopped cell of
 * positive mass is recorded as (n, j, side, mass) at index *rec_len, which
 * advances; the kernel returns SEQPVAL_FLUSH before a step whose records
 * might not fit in rec_cap. */
int seqpval_sweep(double *buf, int64_t cap, int64_t *st, double *sum_alive, double p,
                  int64_t horizon, const int64_t *upper, const int64_t *lower,
                  double alive_floor, int64_t *rec_n, int64_t *rec_j, int8_t *rec_side,
                  double *rec_mass, int64_t rec_cap, int64_t *rec_len)
{
    int64_t n = st[0], start = st[1], w = st[2], off = st[3];
    int64_t k = rec_n ? *rec_len : 0;
    double acc = *sum_alive;
    const double q = 1.0 - p;
    int rc = SEQPVAL_DONE;
    while (n < horizon) {
        if (w == 0) {
            n = horizon;
            rc = SEQPVAL_EMPTY;
            break;
        }
        if (!make_room(buf, cap, &start, w)) {
            rc = SEQPVAL_ROOM;
            break;
        }
        if (rec_n && k + w + 1 > rec_cap) {
            rc = SEQPVAL_FLUSH;
            break;
        }
        const double *b = buf + start;
        lattice_step(buf + start, w, q, p);
        const int64_t m = n + 1;
        const int64_t u = upper[m - 1], l = lower[m - 1], top = off + w;
        if (rec_n) {
            for (int64_t j = u > off ? u : off; j <= top; j++) {
                if (b[j - off] > 0.0) {
                    rec_n[k] = m;
                    rec_j[k] = j;
                    rec_side[k] = 1;
                    rec_mass[k] = b[j - off];
                    k++;
                }
            }
            for (int64_t j = off; j <= (l < top ? l : top); j++) {
                if (b[j - off] > 0.0) {
                    rec_n[k] = m;
                    rec_j[k] = j;
                    rec_side[k] = -1;
                    rec_mass[k] = b[j - off];
                    k++;
                }
            }
        }
        /* the slice new[max(l + 1 - off, 0) : max(u - off, 0)] of w + 1 cells */
        int64_t lo = l + 1 - off, hi = u - off;
        lo = lo < 0 ? 0 : (lo > w + 1 ? w + 1 : lo);
        hi = hi < lo ? lo : (hi > w + 1 ? w + 1 : hi);
        start += lo;
        w = hi - lo;
        off = l + 1 > off ? l + 1 : off;
        n = m;
        const double total = pairwise_sum(buf + start, w);
        acc += total;
        if (total <= alive_floor) {
            rc = SEQPVAL_FLOOR;
            break;
        }
    }
    st[0] = n;
    st[1] = start;
    st[2] = w;
    st[3] = off;
    *sum_alive = acc;
    if (rec_n)
        *rec_len = k;
    return rc;
}

/* The next uniform double in [0, 1) of a numpy BitGenerator: its
 * ctypes.next_double applied to its ctypes.state_address. */
typedef double (*next_double_fn)(void *);

/* One null table of n_draw categorical draws over k cells, added to row.  A
 * draw with uniform u takes the cell #{i : cdf[i] <= u} (numpy's
 * searchsorted(cdf, u, side="right") on the non-decreasing cdf), clamped to
 * `last`, the last cell of positive probability.  The guide table only
 * chooses where that search starts: u is looked up from guide[floor(u * g)],
 * g + 1 entries in 0 .. k (the product may round up to g), and the walk down
 * and then up from there ends at the same cell from any start. */
static inline void draw_table(next_double_fn next, void *state, int64_t n_draw,
                              const double *cdf, int64_t k, int64_t last,
                              const int64_t *guide, int64_t g, int64_t *row)
{
    const double scale = (double)g;
    for (int64_t d = 0; d < n_draw; d++) {
        const double u = next(state);
        const double x = u * scale;
        int64_t i = guide[x >= 0.0 && x < scale ? (int64_t)x : g];
        while (i > 0 && cdf[i - 1] > u)
            i--;
        while (i < k && cdf[i] <= u)
            i++;
        row[i < last ? i : last]++;
    }
}

/* `size` null tables of draw_table, counted into out[t * k .. t * k + k).
 * Uniforms are taken one per draw, in order, so the bit generator advances
 * as under numpy's random(size * n_draw). */
int seqpval_null_draw(void *next_double, void *state, int64_t size, int64_t n_draw,
                      const double *cdf, int64_t k, int64_t last, const int64_t *guide,
                      int64_t g, int64_t *out)
{
    const next_double_fn next = (next_double_fn)next_double;
    memset(out, 0, (size_t)(size * k) * sizeof(int64_t));
    for (int64_t t = 0; t < size; t++)
        draw_table(next, state, n_draw, cdf, k, last, guide, g, out + t * k);
    return SEQPVAL_DONE;
}

/* The likelihood-ratio statistic of one table a of rows x cols counts,
 * *out = 2 (((C - R) - K) + x(N)), where C, R and K sum x(k) = xlogx[k] over
 * the cells, the row sums and the column sums, each in numpy's pairwise
 * order, as applications._lrt_batch computes them.  work holds
 * rows * cols + rows + cols doubles.  A count or margin outside 0 .. n_total
 * returns SEQPVAL_RANGE, so xlogx is never read out of bounds. */
static inline int lrt_table(const int64_t *a, int64_t rows, int64_t cols, const double *xlogx,
                            int64_t n_total, double *work, double *out)
{
    const int64_t cells = rows * cols;
    double *xc = work, *xr = work + cells, *xk = work + cells + rows;
    for (int64_t i = 0; i < cells; i++)
        if (a[i] < 0 || a[i] > n_total)
            return SEQPVAL_RANGE;
    for (int64_t i = 0; i < rows; i++) {
        int64_t r = 0;
        for (int64_t j = 0; j < cols; j++)
            r += a[i * cols + j];
        if (r > n_total)
            return SEQPVAL_RANGE;
        xr[i] = xlogx[r];
    }
    for (int64_t j = 0; j < cols; j++) {
        int64_t c = 0;
        for (int64_t i = 0; i < rows; i++)
            c += a[i * cols + j];
        if (c > n_total)
            return SEQPVAL_RANGE;
        xk[j] = xlogx[c];
    }
    for (int64_t i = 0; i < cells; i++)
        xc[i] = xlogx[a[i]];
    const double sc = pairwise_sum(xc, cells);
    const double sr = pairwise_sum(xr, rows);
    const double sk = pairwise_sum(xk, cols);
    *out = 2.0 * (((sc - sr) - sk) + xlogx[n_total]);
    return SEQPVAL_DONE;
}

/* Likelihood-ratio statistics of `size` tables of lrt_table, into out[t]. */
int seqpval_lrt(const int64_t *counts, int64_t size, int64_t rows, int64_t cols,
                const double *xlogx, int64_t n_total, double *work, double *out)
{
    for (int64_t t = 0; t < size; t++)
        if (lrt_table(counts + t * rows * cols, rows, cols, xlogx, n_total, work, out + t))
            return SEQPVAL_RANGE;
    return SEQPVAL_DONE;
}

/* The m outer bits of one take of a nested stream (applications._NestedStream)
 * as out[3 b .. 3 b + 3) = {bit, inner n, inner tables drawn}.  Tables have
 * rows x (k / rows) cells and n_total draws of the sampler (cdf, k, last,
 * guide, g).  With `refit` set (the double bootstrap), a bit first draws A_i,
 * takes t = T(A_i) and refits the sampler to q = r c^T / N^2 of A_i's margins
 * as applications._independence and _Inversion do; otherwise t = t_ref.  The
 * inner run follows runner.run on the clipped bounds upper[n - 1] and
 * lower[n - 1], n = 1 .. M: takes of chunk0 tables, doubling to chunk_max,
 * capped at M - n and drawn whole; table n scores 1{T >= t - delta} until
 * S_n >= U'_n (bit 0) or S_n <= L'_n (bit 1).  With the uniforms taken in
 * order, the results and generator state are the per-bit Python loop's.
 * Drawn tables lie in range, so lrt_table cannot fail.  work holds
 * 2 k + rows + k / rows doubles, iwork g + 1 + k + rows + k / rows integers. */
int seqpval_nested(void *next_double, void *state, int64_t m, const double *cdf, int64_t k,
                   int64_t last, const int64_t *guide, int64_t g, int64_t rows,
                   int64_t n_total, const double *xlogx, int64_t refit, double t_ref,
                   double delta, const int64_t *upper, const int64_t *lower, int64_t M,
                   int64_t chunk0, int64_t chunk_max, double *work, int64_t *iwork,
                   int64_t *out)
{
    const next_double_fn next = (next_double_fn)next_double;
    const int64_t cols = k / rows;
    double *icdf = work, *lrt_work = work + k;
    int64_t *iguide = iwork, *a = iwork + g + 1, *marg = iwork + g + 1 + k;
    for (int64_t b = 0; b < m; b++) {
        const double *qcdf = cdf;
        const int64_t *qguide = guide;
        int64_t qlast = last;
        double t = t_ref;
        if (refit) {
            memset(a, 0, (size_t)k * sizeof(int64_t));
            draw_table(next, state, n_total, cdf, k, last, guide, g, a);
            lrt_table(a, rows, cols, xlogx, n_total, lrt_work, &t);
            memset(marg, 0, (size_t)(rows + cols) * sizeof(int64_t));
            for (int64_t i = 0; i < k; i++) {
                marg[i / cols] += a[i];
                marg[rows + i % cols] += a[i];
            }
            const double nn = (double)(n_total * n_total);
            double acc = 0.0;
            for (int64_t i = 0; i < k; i++) {
                const double q = (double)(marg[i / cols] * marg[rows + i % cols]) / nn;
                icdf[i] = acc += q;
                if (q > 0.0)
                    qlast = i;
            }
            for (int64_t e = 0, i = 0; e <= g; e++) {
                while (i < k && icdf[i] <= (double)e / (double)g)
                    i++;
                iguide[e] = i;
            }
            qcdf = icdf;
            qguide = iguide;
        }
        const double cut = t - delta;
        int64_t n = 0, s = 0, drawn = 0, chunk = chunk0, bit = 0, stop = 0;
        while (!stop && n < M) {
            const int64_t take = chunk < M - n ? chunk : M - n;
            for (int64_t d = 0; d < take; d++) {
                memset(a, 0, (size_t)k * sizeof(int64_t));
                draw_table(next, state, n_total, qcdf, k, qlast, qguide, g, a);
                if (stop)
                    continue;
                double stat;
                lrt_table(a, rows, cols, xlogx, n_total, lrt_work, &stat);
                s += stat >= cut;
                n++;
                if (s >= upper[n - 1] || s <= lower[n - 1]) {
                    stop = 1;
                    bit = s < upper[n - 1];
                }
            }
            drawn += take;
            chunk = 2 * chunk < chunk_max ? 2 * chunk : chunk_max;
        }
        out[3 * b] = bit;
        out[3 * b + 1] = n;
        out[3 * b + 2] = drawn;
    }
    return SEQPVAL_DONE;
}
