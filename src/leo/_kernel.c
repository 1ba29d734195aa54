/* The affine time-step loop of leo.lti_core, one call per stack of runs:
 * x_0 = x0, x_{k+1} = S x_k + f_k for k = 0..K-1.
 *
 * P is (nb, n, n), x0 (nb, n), f (nb, K, n) and out (nb, K + 1, n), all
 * C-contiguous float64. Fortran reads the row-major P[b] as its transpose,
 * so the step matrix S is P[b]^T for trans 'N' and P[b] for 'T'; the caller
 * passes the pair np.matmul would use. The adjoint is this loop on M^T.
 * Each step is one call of the Fortran BLAS dgemv passed in (scipy's
 * cython_blas export) with beta = 0, then a plain add: what np.matmul and
 * np.add do per step, so every row is bitwise that of the numpy loop.
 * Built with -ffp-contract=off, so the add is never fused.
 */
#include <string.h>

typedef void dgemv_fn(const char *trans, const int *m, const int *n, const double *alpha,
                      const double *a, const int *lda, const double *x, const int *incx,
                      const double *beta, double *y, const int *incy);

void leo_affine(dgemv_fn *dgemv, char trans, long nb, long K, int n,
                const double *P, const double *x0, const double *f, double *out)
{
    const double one = 1.0, zero = 0.0;
    const int inc = 1;
    if (n < 1)
        return;
    for (long b = 0; b < nb; b++) {
        const double *m = P + b * n * n, *g = f + b * K * n;
        double *x = out + b * (K + 1) * n;
        memcpy(x, x0 + b * n, n * sizeof(double));
        for (long k = 0; k < K; k++) {
            dgemv(&trans, &n, &n, &one, m, &n, x + k * n, &inc, &zero, x + (k + 1) * n, &inc);
            for (int i = 0; i < n; i++)
                x[(k + 1) * n + i] += g[k * n + i];
        }
    }
}
