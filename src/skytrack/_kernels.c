/* The training epoch of learner.train, the renderer's per-pair loop of
   world.render_observation and the held-out forward of metrics.angle_mse,
   in C. Every loop does the same IEEE double operations, in the same order,
   as the NumPy code it stands in for, and every product goes to the same
   OpenBLAS routine, with the same arguments, that numpy's matmul picks for
   it, so the two give the same bits: build without FMA contraction
   (-ffp-contract=off) and without -ffast-math. The one freedom left to the
   compiler is the operand order of an add or multiply, which decides only
   which NaN comes out where two different NaNs meet; a NaN in a gradient
   stops the epoch before its step stores anything. Arrays are C-contiguous
   and do not overlap; kernels.py checks both before it passes a pointer. */
#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Runs the statement for i = 0 .. n-1 in groups of four. The inner loop has
   a constant count, so -O2 unrolls it and packs each group into SIMD
   registers; lanes change no bits, since every lane does its own IEEE
   operations. The last n % 4 elements run one at a time. */
#define EACH(i, n, ...)                                              \
    do {                                                             \
        ptrdiff_t end_ = (n) - (n) % 4, i;                           \
        for (ptrdiff_t base_ = 0; base_ < end_; base_ += 4)          \
            for (i = base_; i < base_ + 4; i++) __VA_ARGS__          \
        for (i = end_; i < (n); i++) __VA_ARGS__                     \
    } while (0)

/* numpy's pairwise sum of a contiguous array, which adds runs of up to 128
   elements with eight accumulators; numpy's sum is +0.0 plus this. */
static double pairwise(const double *x, ptrdiff_t n) {
    if (n < 8) {
        double s = 0.0;
        for (ptrdiff_t i = 0; i < n; i++) s += x[i];
        return s;
    }
    if (n > 128) {
        ptrdiff_t half = n / 2 - (n / 2) % 8;
        return pairwise(x, half) + pairwise(x + half, n - half);
    }
    double r[8], s;
    ptrdiff_t i;
    memcpy(r, x, sizeof r);
    for (i = 8; i < n - n % 8; i += 8)
        for (int j = 0; j < 8; j++) r[j] += x[i + j];
    s = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
    for (; i < n; i++) s += x[i];
    return s;
}

/* da = (g[i] * w2[j]) * (a > 0), written over a; gb1 = da.sum(axis=0),
   which for width >= 2 starts from +0.0 and adds one row at a time. The
   mask is its own pass: fused into the product, it becomes a branch the
   compiler cannot pack into SIMD registers. */
static void relu_backward(double *restrict a, const double *restrict g, const double *restrict w2,
                          double *restrict gb1, ptrdiff_t n, ptrdiff_t width) {
    for (ptrdiff_t j = 0; j < width; j++) gb1[j] = 0.0;
    for (ptrdiff_t r = 0; r < n; r++) {
        double *row = a + r * width;
        EACH(j, width, { row[j] = row[j] > 0.0 ? 1.0 : 0.0; });
        EACH(j, width, {
            double d = (g[r] * w2[j]) * row[j];
            row[j] = d;
            gb1[j] += d;
        });
    }
}

/* One element at a time, in kernels.adam_update's order:
   m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g**2,
   p -= lr*(m/b1c) / (sqrt(v/b2c) + eps).
   The divider sets the loop's speed. Once beta1**t is below half an ulp of
   1 (t >= 351 at beta1 = 0.9), b1c is exactly 1.0 and m/b1c is m itself,
   so that loop drops one of its three divisions. */
#define ADAM_STEP(M_HAT)                                         \
    {                                                            \
        double mi = m[i] * beta1 + g[i] * c1;                    \
        double vi = v[i] * beta2 + (g[i] * g[i]) * c2;           \
        m[i] = mi;                                               \
        v[i] = vi;                                               \
        p[i] -= (M_HAT) * lr / (sqrt(vi / b2c) + eps);           \
    }
static void adam(double *restrict p, const double *restrict g, double *restrict m, double *restrict v,
                 ptrdiff_t n, double lr, double beta1, double beta2, double eps, double b1c, double b2c) {
    const double c1 = 1.0 - beta1, c2 = 1.0 - beta2;
    if (b1c == 1.0)
        EACH(i, n, ADAM_STEP(mi));
    else
        EACH(i, n, ADAM_STEP(mi / b1c));
}

/* a = np.maximum(a + b1, 0.0), in place, row by row. np.maximum keeps NaN
   and turns -0.0 into +0.0: x where !(x <= 0), else +0.0. In groups of
   four, -O2 makes the select a compare and a mask (cmplepd, andnpd); a
   branch would be mispredicted on every other unit. */
static void bias_relu(double *restrict a, const double *restrict b1, ptrdiff_t n, ptrdiff_t width) {
    for (ptrdiff_t r = 0; r < n; r++) {
        double *row = a + r * width;
        EACH(j, width, {
            double x = row[j] + b1[j];
            row[j] = x <= 0.0 ? 0.0 : x;
        });
    }
}

/* numpy's CBLAS, 64-bit integers (scipy_cblas_dgemm64_, _dgemv64_, _ddot64_). */
typedef void (*dgemm_fn)(int, int, int, int64_t, int64_t, int64_t, double, const double *, int64_t,
                         const double *, int64_t, double, double *, int64_t);
typedef void (*dgemv_fn)(int, int, int64_t, int64_t, double, const double *, int64_t, const double *,
                         int64_t, double, double *, int64_t);
typedef double (*ddot_fn)(int64_t, const double *, int64_t, const double *, int64_t);
enum { ROW_MAJOR = 101, COL_MAJOR = 102, NO_TRANS = 111, TRANS = 112 };

/* The steps of one epoch over the rows order[0..n-1] of z (width columns)
   in batches of `batch` rows, for the flat parameters theta = [w1 (hidden,
   width), b1, w2, b2] and their Adam moments. Every batch has at least 2
   rows and hidden, width >= 2, so numpy would send each product to dgemm or
   dgemv. Adds each batch's loss * rows to *sse and returns the number of
   Adam steps taken: fewer than the batches if a gradient is not finite
   (that step updates nothing), or -1 if memory runs out. */
ptrdiff_t train_epoch(const double *restrict z, const double *restrict y, const int64_t *restrict order,
                      ptrdiff_t n, ptrdiff_t width, ptrdiff_t hidden, ptrdiff_t batch,
                      double *restrict theta, double *restrict m, double *restrict v, ptrdiff_t t,
                      double lr, double beta1, double beta2, double eps, dgemm_fn dgemm, dgemv_fn dgemv,
                      double *sse) {
    const ptrdiff_t size = hidden * width + 2 * hidden + 1;
    const double *w1 = theta, *b1 = theta + hidden * width, *w2 = b1 + hidden;
    const ptrdiff_t cap = batch < n ? batch : n;
    double *work = malloc(sizeof(double) * (size + cap * (width + hidden + 2)));
    if (!work) return -1;
    double *grad = work, *zb = grad + size, *h = zb + cap * width, *err = h + cap * hidden, *sq = err + cap;
    double *gw1 = grad, *gb1 = grad + hidden * width, *gw2 = gb1 + hidden, *gb2 = gw2 + hidden;
    ptrdiff_t steps = 0;
    for (ptrdiff_t start = 0; start < n; start += batch, steps++) {
        const ptrdiff_t rows = n - start < batch ? n - start : batch;
        for (ptrdiff_t r = 0; r < rows; r++)
            memcpy(zb + r * width, z + order[start + r] * width, sizeof(double) * width);
        /* h = np.maximum(zb @ w1.T + b1, 0.0) */
        dgemm(ROW_MAJOR, NO_TRANS, TRANS, rows, hidden, width, 1.0, zb, width, w1, width, 0.0, h, hidden);
        bias_relu(h, b1, rows, hidden);
        /* err = h @ w2 + b2 - y[idx]; loss = mean(err**2); g = (2/rows) * err */
        dgemv(COL_MAJOR, TRANS, hidden, rows, 1.0, h, hidden, w2, 1, 0.0, err, 1);
        for (ptrdiff_t r = 0; r < rows; r++) {
            err[r] = (err[r] + theta[size - 1]) - y[order[start + r]];
            sq[r] = err[r] * err[r];
        }
        const double loss = (0.0 + pairwise(sq, rows)) / (double)rows;
        *sse += loss * (double)rows;
        const double scale = 2.0 / (double)rows;
        for (ptrdiff_t r = 0; r < rows; r++) err[r] *= scale;
        dgemv(ROW_MAJOR, TRANS, rows, hidden, 1.0, h, hidden, err, 1, 0.0, gw2, 1);
        *gb2 = 0.0 + pairwise(err, rows);
        /* h > 0 exactly where zb @ w1.T + b1 > 0 (NaN and -0.0 included),
           so h serves as the mask; it holds da from here on. */
        relu_backward(h, err, w2, gb1, rows, hidden);
        dgemm(ROW_MAJOR, TRANS, NO_TRANS, hidden, width, rows, 1.0, h, hidden, zb, width, 0.0, gw1, width);
        /* g - g is 0 for every finite g and NaN otherwise; four sums, no
           early exit, so the loop packs into SIMD registers. */
        double bad[4] = {0.0, 0.0, 0.0, 0.0};
        ptrdiff_t i = 0;
        for (; i + 4 <= size; i += 4)
            for (int k = 0; k < 4; k++) bad[k] += grad[i + k] - grad[i + k];
        for (; i < size; i++) bad[0] += grad[i] - grad[i];
        if ((bad[0] + bad[1]) + (bad[2] + bad[3]) != 0.0) break;
        t++;
        adam(theta, grad, m, v, size, lr, beta1, beta2, eps, 1.0 - pow(beta1, (double)t),
             1.0 - pow(beta2, (double)t));
    }
    free(work);
    return steps;
}

/* Bins the landmarks seen from each of `poses` poses into its row of out
   (bins * s doubles), as world.render_observation's NumPy code does.
   planes holds three (poses, n) planes: dx, dy and the bearing beta, all
   from NumPy. Per pose: beta = -pi becomes pi; a landmark is in view if
   |beta| <= half; u = clip((beta + half) / bin_width - 0.5, 0, bins - 1),
   lower = min(floor(u), bins - 2) (0 for one bin), frac = u - lower, and
   c = sig * (1 / (1 + hypot(dx, dy))). Each cell sums from 0.0 its lower
   terms c * (1 - frac) in landmark order, then its upper terms c * frac in
   landmark order: np.bincount's order. Returns 0, or -1 if memory runs out. */
static const double PI = 3.141592653589793; /* math.pi */

int render(const double *restrict planes, ptrdiff_t poses, ptrdiff_t n, const double *restrict sig,
           ptrdiff_t s, ptrdiff_t bins, double half, double bin_width, double *restrict out) {
    const double *dx = planes, *dy = planes + poses * n, *beta = dy + poses * n;
    /* the in-view landmarks of one pose: index, lower bin, frac, 1 / (1 + range);
       n + 1 entries, since malloc(0) may return NULL */
    ptrdiff_t *seen = malloc(sizeof(ptrdiff_t) * 2 * (n + 1));
    double *terms = malloc(sizeof(double) * 2 * (n + 1));
    if (!seen || !terms) {
        free(seen);
        free(terms);
        return -1;
    }
    for (ptrdiff_t p = 0; p < poses; p++) {
        double *row = out + p * bins * s;
        ptrdiff_t k = 0;
        for (ptrdiff_t j = 0; j < bins * s; j++) row[j] = 0.0;
        for (ptrdiff_t l = 0; l < n; l++) {
            double b = beta[p * n + l];
            if (b == -PI) b = PI;
            if (!(fabs(b) <= half)) continue;
            double u = (b + half) / bin_width - 0.5;
            u = u < 0.0 ? 0.0 : u > bins - 1.0 ? bins - 1.0 : u;
            double lower = 0.0;
            if (bins > 1) lower = fmin(floor(u), bins - 2.0);
            seen[2 * k] = l;
            seen[2 * k + 1] = (ptrdiff_t)lower;
            terms[2 * k] = u - lower;
            terms[2 * k + 1] = 1.0 / (1.0 + hypot(dx[p * n + l], dy[p * n + l]));
            k++;
        }
        for (ptrdiff_t i = 0; i < k; i++) {
            const double *c = sig + seen[2 * i] * s, w = 1.0 - terms[2 * i], inv = terms[2 * i + 1];
            double *cell = row + seen[2 * i + 1] * s;
            for (ptrdiff_t j = 0; j < s; j++) cell[j] += (c[j] * inv) * w;
        }
        if (bins > 1)
            for (ptrdiff_t i = 0; i < k; i++) {
                const double *c = sig + seen[2 * i] * s, w = terms[2 * i], inv = terms[2 * i + 1];
                double *cell = row + (seen[2 * i + 1] + 1) * s;
                for (ptrdiff_t j = 0; j < s; j++) cell[j] += (c[j] * inv) * w;
            }
    }
    free(seen);
    free(terms);
    return 0;
}

/* The head's raw output for each of `rows` feature rows (d wide), as
   learner.predict_raw gives it for that row alone: x = (f - mean) / std,
   z = projection @ x, a = w1 @ z, h = np.maximum(a + b1, 0.0) and
   out = (0.0 + h . w2) + b2. numpy's matmul sends a one-row product to
   dgemv (ColMajor, Trans) and the head's to ddot, which numpy's dot adds to
   0.0; d, f and hidden >= 2, so neither product is a dot or numpy's own
   loop. Returns 0, or -1 if memory runs out. */
int forward(const double *restrict features, ptrdiff_t rows, ptrdiff_t d, const double *restrict mean,
            const double *restrict std, const double *restrict projection, ptrdiff_t f,
            const double *restrict w1, ptrdiff_t hidden, const double *restrict b1,
            const double *restrict w2, double b2, dgemv_fn dgemv, ddot_fn ddot, double *restrict out) {
    double *x = malloc(sizeof(double) * (d + f + hidden));
    if (!x) return -1;
    double *z = x + d, *a = z + f;
    for (ptrdiff_t r = 0; r < rows; r++) {
        const double *row = features + r * d;
        EACH(j, d, { x[j] = (row[j] - mean[j]) / std[j]; });
        dgemv(COL_MAJOR, TRANS, d, f, 1.0, projection, d, x, 1, 0.0, z, 1);
        dgemv(COL_MAJOR, TRANS, f, hidden, 1.0, w1, f, z, 1, 0.0, a, 1);
        bias_relu(a, b1, 1, hidden);
        out[r] = (0.0 + ddot(hidden, a, 1, w2, 1)) + b2;
    }
    free(x);
    return 0;
}
