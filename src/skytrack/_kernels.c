/* The two loops of the training step that run faster in C than in NumPy:
   the rectifier's backward with the bias gradient, and Adam. Each loop does
   the same IEEE double operations, in the same order, as its NumPy twin in
   kernels.py, so the two give the same bits: build without FMA contraction
   (-ffp-contract=off) and without -ffast-math. The one freedom left to the
   compiler is the operand order of an add or multiply, which decides only
   which NaN comes out where two different NaNs meet. Arrays are
   C-contiguous and do not overlap; kernels.py checks both before it passes
   a pointer. */
#include <math.h>
#include <stddef.h>

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

/* da = (g[i] * w2[j]) * (a > 0), written over a; gb1 = da.sum(axis=0),
   which starts from +0.0 and adds one row at a time. The mask is its own
   pass: fused into the product, it becomes a branch the compiler cannot
   pack into SIMD registers. */
void relu_backward(double *restrict a, const double *restrict g, const double *restrict w2,
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

/* One element at a time, in learner.adam_step's order:
   m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g**2,
   p -= lr*(m/b1c) / (sqrt(v/b2c) + eps). */
void adam(double *restrict p, const double *restrict g, double *restrict m, double *restrict v,
          ptrdiff_t n, double lr, double beta1, double beta2, double eps, double b1c, double b2c) {
    const double c1 = 1.0 - beta1, c2 = 1.0 - beta2;
    EACH(i, n, {
        double mi = m[i] * beta1 + g[i] * c1;
        double vi = v[i] * beta2 + (g[i] * g[i]) * c2;
        m[i] = mi;
        v[i] = vi;
        p[i] -= (mi / b1c) * lr / (sqrt(vi / b2c) + eps);
    });
}
