/* The affine time-step loop of leo.lti_core, one call per stack of runs,
 * the loss pass of leo.learning built on it, the gain placement pass of
 * leo.observer, and the training pass of leo.learning that runs every
 * epoch of a batch on the two (at the end of the file).
 *
 * Forward:  out_0 = x0,  out_{k+1} = S out_k + f_k      for k = 0..K-1,
 * backward: out_K = f_K, out_k     = S out_{k+1} + f_k  for k = K-1..0.
 * The adjoint is the backward loop on S = M^T, written in place.
 *
 * P is (nb, n, n), x0 (nb, n), f (nb, K, n) forward or (nb, K + 1, n)
 * backward, and out (nb, K + 1, n), all C-contiguous float64. With layout
 * 'T' the step matrix S is P[b]; with 'N' it is P[b]^T: the two layouts on
 * which np.matmul calls BLAS dgemv, with that flag.
 *
 * Each step computes S x as OpenBLAS's dgemv kernel does for n <= 4, so
 * every row is bitwise the numpy loop's: with t_j = S_ij x_j rounded,
 * fma the fused multiply-add, and one order family per set of OpenBLAS
 * cores (SKX: SkylakeX; HSW: Haswell and Zen; SEQ: Sandybridge and
 * Prescott, a left-to-right sum). Then y_i = (0.0 + (S x)_i) + f_i: the
 * 0.0 is dgemv's beta = 0 start, which turns -0.0 into +0.0. The loader
 * keeps the first family that matches the numpy loop on this host.
 *
 * Built with -ffp-contract=off, so no other product is fused. The FMA
 * families are compiled for the FMA instruction set only in their own
 * functions, and refuse to run (return 0) on a CPU without it.
 */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#if defined(__x86_64__) || defined(__i386__)
#define FMA_TARGET __attribute__((target("fma")))
#define HAS_FMA() (__builtin_cpu_init(), __builtin_cpu_supports("fma"))
#else
#define FMA_TARGET
#define HAS_FMA() 1
#endif

enum { SKX, HSW, SEQ };

/* Entry j of row i of S, times x_j: S_ij = m[j * cs] with m at S_i0. */
#define T(j) (m[(j) * cs] * x[j])
#define F(j, c) __builtin_fma(m[(j) * cs], x[j], (c))

#define SEQ_ROW(N)                                                        \
    ((N) == 1 ? T(0) : (N) == 2 ? T(0) + T(1) : (N) == 3 ? (T(0) + T(1)) + T(2) \
                                              : ((T(0) + T(1)) + T(2)) + T(3))
/* Row-major S (dgemv 'T'): the same on SkylakeX, Haswell and Zen. */
#define FMA_T_ROW(N)                                                      \
    ((N) == 1 ? T(0) : (N) == 2 ? F(0, T(1)) : (N) == 3 ? F(2, F(0, T(1)))  \
                                             : (T(0) + T(2)) + (T(1) + T(3)))
#define SKX_N_ROW(N)                                                      \
    ((N) == 1 ? T(0) : (N) == 2 ? F(1, T(0)) : (N) == 3 ? F(2, F(1, T(0)))  \
                                             : F(3, F(2, F(0, T(1)))))
#define HSW_N_ROW(N)                                                      \
    ((N) == 1 ? T(0) : (N) == 2 ? T(0) + T(1) : (N) == 3 ? (T(0) + T(1)) + T(2) \
                                              : F(2, T(0)) + F(3, T(1)))

/* The loop for constant N and layout: S_ij = P[b][i * rs + j * cs], over
 * the runs b = idx[0..nb), or 0..nb where idx is NULL. Step outer, run
 * inner, so the runs' independent recursions overlap. */
#define LOOP(N, TRANS, ROW)                                                 \
    do {                                                                    \
        const long rs = (TRANS) ? (N) : 1, cs = (TRANS) ? 1 : (N);          \
        for (long j = 0; j < K; j++)                                        \
            for (long bi = 0; bi < nb; bi++) {                              \
                const long b = idx ? idx[bi] : bi;                          \
                const long k = backward ? K - 1 - j : j;                    \
                const double *x = out + (b * (K + 1) + (backward ? k + 1 : k)) * (N); \
                const double *g = f + (b * frows + k) * (N);                \
                double *y = out + (b * (K + 1) + (backward ? k : k + 1)) * (N); \
                for (int i = 0; i < (N); i++) {                             \
                    const double *m = P + b * (N) * (N) + i * rs;           \
                    y[i] = (0.0 + ROW(N)) + g[i];                           \
                }                                                           \
            }                                                               \
    } while (0)

#define FAMILY(NAME, ATTR, T_ROW, N_ROW)                                     \
    ATTR static void NAME(int trans, int backward, const long *idx, long nb, \
                          long K, int n, const double *P, const double *f,  \
                          double *out)                                      \
    {                                                                       \
        const long frows = backward ? K + 1 : K;                            \
        switch (n * 2 + trans) {                                            \
        case 2: LOOP(1, 0, N_ROW); break;                                   \
        case 3: LOOP(1, 1, T_ROW); break;                                   \
        case 4: LOOP(2, 0, N_ROW); break;                                   \
        case 5: LOOP(2, 1, T_ROW); break;                                   \
        case 6: LOOP(3, 0, N_ROW); break;                                   \
        case 7: LOOP(3, 1, T_ROW); break;                                   \
        case 8: LOOP(4, 0, N_ROW); break;                                   \
        case 9: LOOP(4, 1, T_ROW); break;                                   \
        }                                                                   \
    }

FAMILY(skx_loop, FMA_TARGET, FMA_T_ROW, SKX_N_ROW)
FAMILY(hsw_loop, FMA_TARGET, FMA_T_ROW, HSW_N_ROW)
FAMILY(seq_loop, , SEQ_ROW, SEQ_ROW)

/* Runs family `family` with layout 'T' (trans = 1) or 'N' (trans = 0) and
 * returns 1, or returns 0 with nothing written: n outside 1..4, or an FMA
 * family on a CPU without FMA. Backward, x0 is unused: out_K is f_K. */
int leo_affine(int family, int trans, int backward, long nb, long K, int n,
               const double *P, const double *x0, const double *f, double *out)
{
    if (n < 1 || n > 4 || family < SKX || family > SEQ || (family != SEQ && !HAS_FMA()))
        return 0;
    for (long b = 0; b < nb; b++) {
        const double *start = backward ? f + (b * (K + 1) + K) * n : x0 + b * n;
        memcpy(out + (b * (K + 1) + (backward ? K : 0)) * n, start, n * sizeof(double));
    }
    if (family == SKX)
        skx_loop(trans, backward, 0, nb, K, n, P, f, out);
    else if (family == HSW)
        hsw_loop(trans, backward, 0, nb, K, n, P, f, out);
    else
        seq_loop(trans, backward, 0, nb, K, n, P, f, out);
    return 1;
}

/* The loss pass of leo.learning: per row of a stack, in one call, the
 * forcing, the rollout, the window residuals and loss terms, the adjoint
 * and the gradient, each computed as numpy computes it.
 *
 * Every product is one of three kinds. A product that numpy sends to
 * BLAS dgemm, or that has one term per entry, is a chain in ascending
 * term order, c = 0; c = c + a b (fused in the FMA families), and then
 * 0.0 + c (PRODUCT). A short dgemv product (q = 1, n terms) takes the
 * family's row order above. A long product whose order is not known here
 * is numpy's own CBLAS call, made with the arguments np.matmul gives it:
 * the gradient of B at p = 1 (dgemv), and the S^T states term of the
 * gradient of C at q = 1 (dgemv) and on Haswell at n = 4, q = 3 (dgemm).
 * Sums are numpy's pairwise summation, and elementwise steps keep numpy's
 * order.
 */

/* The CBLAS dgemv and dgemm of numpy's OpenBLAS, with its ILP64 integers */
typedef void dgemv_fn(int order, int trans, int64_t m, int64_t n, double alpha, const double *a,
                      int64_t lda, const double *x, int64_t incx, double beta, double *y,
                      int64_t incy);
typedef void dgemm_fn(int order, int transa, int transb, int64_t m, int64_t n, int64_t k,
                      double alpha, const double *a, int64_t lda, const double *b, int64_t ldb,
                      double beta, double *c, int64_t ldc);
enum { CBLAS_ROW_MAJOR = 101, CBLAS_NO_TRANS = 111, CBLAS_TRANS = 112 };

/* A batch of runs that share dims (n, p, q), the window [k0, k0 + K] and
 * the horizon T = k0 + K: their anchors (nb, P) with P = n (n + p + q + 1),
 * inputs u (nb, T, p) and measured outputs y (nb, T + 1, q), C-contiguous */
struct problem {
    int n, p, q;
    long k0, K;
    double lam_A, lam_B, lam_C;
    const double *anchor, *u, *y;
    dgemv_fn *gemv;
    dgemm_fn *gemm;
};

/* The loss pass's work space on a batch of nb rows, each at its own index
 * b: states and adj (nb, T + 1, n), S (nb, T + 1, q), M (nb, n, n), the
 * forcing (nb, T, n) and later the adjoint's direct terms (nb, T + 1, n),
 * and the window's row means (K + 1) */
struct loss_space {
    double *states, *adj, *S, *M, *f, *means;
};

/* Allocates the work space of nb rows into w; returns the block to free,
 * or NULL where it cannot be allocated */
static double *loss_space(const struct problem *pr, long nb, struct loss_space *w)
{
    const long T = pr->k0 + pr->K, rows = (T + 1) * pr->n;
    double *block = malloc(sizeof(double)
                           * (nb * (3 * rows + (T + 1) * pr->q + pr->n * pr->n) + pr->K + 1));
    if (block) {
        w->states = block;
        w->adj = w->states + nb * rows;
        w->S = w->adj + nb * rows;
        w->M = w->S + nb * (T + 1) * pr->q;
        w->f = w->M + nb * pr->n * pr->n;
        w->means = w->f + nb * rows;
    }
    return block;
}

/* Inlined into each family, so that no call leaves its instruction set. */
#define INLINE static inline __attribute__((always_inline))

/* numpy's pairwise summation of a[0..len), as add.reduce runs it. */
INLINE double pairwise_block(const double *a, long len)
{
    if (len < 8) {
        double res = -0.0;
        for (long i = 0; i < len; i++)
            res += a[i];
        return res;
    }
    double r[8], res;
    long i;
    for (int j = 0; j < 8; j++)
        r[j] = a[j];
    for (i = 8; i < len - len % 8; i += 8)
        for (int j = 0; j < 8; j++)
            r[j] += a[i + j];
    res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
    for (; i < len; i++)
        res += a[i];
    return res;
}

static double pairwise(const double *a, long len)
{
    if (len <= 128)
        return pairwise_block(a, len);
    long half = len / 2;
    half -= half % 8;
    return pairwise(a, half) + pairwise(a + half, len - half);
}

/* np.sign: +0.0 for either zero, NaN for NaN. */
INLINE double sign(double x)
{
    return x > 0 ? 1.0 : x < 0 ? -1.0 : x == 0 ? 0.0 : x;
}

/* np.abs(a - b).sum() / size over size <= 16 entries. */
INLINE double mean_abs_diff(const double *a, const double *b, int size)
{
    double d[16];
    for (int i = 0; i < size; i++)
        d[i] = __builtin_fabs(a[i] - b[i]);
    return (0.0 + pairwise_block(d, size)) / size;
}

#define FMA_ACC(a, b, c) ((c) = __builtin_fma((a), (b), (c)))
#define SEQ_ACC(a, b, c) ((c) = (c) + (a) * (b))

/* sum_k a[k * sa] b[k * sb] for k < len, in the order of ACC. */
#define PRODUCT(ACC, out, a, sa, b, sb, len)                                \
    do {                                                                    \
        double c_ = 0.0;                                                    \
        for (long k_ = 0; k_ < (len); k_++)                                 \
            ACC((a)[k_ * (sa)], (b)[k_ * (sb)], c_);                        \
        (out) = 0.0 + c_;                                                   \
    } while (0)

/* The pass over the rows b = idx[0..nb), or 0..nb where idx is NULL, of
 * the thetas (., P) and gains L (., n, q), or NULL for the open loop: per
 * row b, the terms (data, reg_A, reg_B, reg_C, total) into terms[b],
 * with the gradient the gradient into grads[b], and the first step at
 * which the rollout left the finite numbers, or 0, into diverged[b]. The
 * forcing and the sweep take n as a constant, so that their loops over
 * it unroll; each sum keeps its own accumulator, and at n = 3 they run in
 * four lanes, of which the fourth is thrown away (in the sweep it reads
 * the next entry of the buffer). */
#define LOSS_PASS(NAME, ATTR, LOOP, ACC, T_ROW, TAIL_ROW, N_ROW, GEMM_43)    \
    /* One row's forcing f_t = (0.0 + B u_t) + (0.0 + L y_t), t < T, with \
     * Bt = B^T and Lt = L^T (zero past column n): its n sums side by side */ \
    ATTR INLINE void NAME##_forcing_n(const int n, int p, int q, long T,    \
                                      const double Bt_[4][4], const double Lt_[4][4], \
                                      int closed, const double *ub,         \
                                      const double *yb, double *fb)         \
    {                                                                       \
        const int lanes = n == 3 ? 4 : n;                                   \
        double c[4], d[4], Bt[4][4], Lt[4][4];                              \
        memcpy(Bt, Bt_, sizeof Bt);                                         \
        memcpy(Lt, Lt_, sizeof Lt);                                         \
        for (long t = 0; t < T; t++) {                                      \
            for (int i = 0; i < lanes; i++)                                 \
                c[i] = d[i] = 0.0;                                          \
            for (int j = 0; j < p; j++)                                     \
                for (int i = 0; i < lanes; i++)                             \
                    ACC(ub[t * p + j], Bt[j][i], c[i]);                     \
            for (int j = 0; j < q && closed; j++)                           \
                for (int i = 0; i < lanes; i++)                             \
                    ACC(yb[t * q + j], Lt[j][i], d[i]);                     \
            for (int i = 0; i < n; i++)                                     \
                fb[t * n + i] = closed ? (0.0 + c[i]) + (0.0 + d[i]) : 0.0 + c[i]; \
        }                                                                   \
    }                                                                       \
    /* One row's sums gA = adj_t states and gB = adj_t u (p > 1), each in  \
     * ascending t, with lb = adj[1:] and xb = states[:-1] */               \
    ATTR INLINE void NAME##_sweep_n(const int n, int p, long T,             \
                                    const double *lb, const double *xb,     \
                                    const double *ub, double pa_[4][4],     \
                                    double pb_[4][4])                       \
    {                                                                       \
        const int lanes = n == 3 ? 4 : n;                                   \
        double pa[4][4] = {{0}}, pb[4][4] = {{0}};                          \
        for (long t = 0; t < T; t++) {                                      \
            const double *l1 = lb + t * n, *x = xb + t * n;                 \
            for (int i = 0; i < n; i++)                                     \
                for (int j = 0; j < lanes; j++)                             \
                    ACC(l1[i], x[j], pa[i][j]);                             \
            for (int j = 0; j < p && p > 1; j++)                            \
                for (int i = 0; i < lanes; i++)                             \
                    ACC(l1[i], ub[t * p + j], pb[j][i]);                    \
        }                                                                   \
        memcpy(pa_, pa, sizeof pa);                                         \
        memcpy(pb_, pb, sizeof pb);                                         \
    }                                                                       \
    ATTR static void NAME##_forcing(int n, int p, int q, long T,            \
                                    const double Bt[4][4], const double Lt[4][4], \
                                    int closed, const double *ub,           \
                                    const double *yb, double *fb)           \
    {                                                                       \
        if (n == 2)                                                         \
            NAME##_forcing_n(2, p, q, T, Bt, Lt, closed, ub, yb, fb);       \
        else if (n == 3)                                                    \
            NAME##_forcing_n(3, p, q, T, Bt, Lt, closed, ub, yb, fb);       \
        else                                                                \
            NAME##_forcing_n(4, p, q, T, Bt, Lt, closed, ub, yb, fb);       \
    }                                                                       \
    ATTR static void NAME##_sweep(int n, int p, long T, const double *lb,   \
                                  const double *xb, const double *ub,       \
                                  double pa[4][4], double pb[4][4])         \
    {                                                                       \
        if (n == 2)                                                         \
            NAME##_sweep_n(2, p, T, lb, xb, ub, pa, pb);                    \
        else if (n == 3)                                                    \
            NAME##_sweep_n(3, p, T, lb, xb, ub, pa, pb);                    \
        else                                                                \
            NAME##_sweep_n(4, p, T, lb, xb, ub, pa, pb);                    \
    }                                                                       \
    ATTR static void NAME(const struct problem *pr, const long *idx, long nb,  \
                          int gradient, const double *theta, const double *L, \
                          double *terms, double *grads, double *diverged,   \
                          const struct loss_space *w)                       \
    {                                                                       \
        const int n = pr->n, p = pr->p, q = pr->q;                          \
        const long k0 = pr->k0, K = pr->K, T = k0 + K;                      \
        const long P = n * (n + p + q + 1), rows = (T + 1) * n;            \
        const double lam_A = pr->lam_A, lam_B = pr->lam_B, lam_C = pr->lam_C; \
        const double *anchor = pr->anchor, *u = pr->u, *y = pr->y;          \
        double *states = w->states, *adj = w->adj, *S = w->S, *M = w->M;    \
        double *f = w->f, *means = w->means;                                \
        for (long bi = 0; bi < nb; bi++) {                                  \
            const long b = idx ? idx[bi] : bi;                              \
            const double *A = theta + b * P, *B = A + n * n, *C = B + n * p; \
            const double *Lb = L ? L + b * n * q : 0, *ub = u + b * T * p;  \
            const double *yb = y + b * (T + 1) * q;                         \
            double *Mb = M + b * n * n, lc;                                 \
            double Bt[4][4] = {{0}}, Lt[4][4] = {{0}};                      \
            for (int i = 0; i < n; i++) {                                   \
                for (int j = 0; j < p; j++)                                 \
                    Bt[j][i] = B[i * p + j];                                \
                for (int j = 0; j < q && Lb; j++)                           \
                    Lt[j][i] = Lb[i * q + j];                               \
                for (int j = 0; j < n; j++) {                               \
                    Mb[i * n + j] = A[i * n + j];                           \
                    if (Lb) {                                               \
                        PRODUCT(ACC, lc, Lb + i * q, 1, C + j, n, q);       \
                        Mb[i * n + j] = A[i * n + j] - lc;                  \
                    }                                                       \
                }                                                           \
            }                                                               \
            NAME##_forcing(n, p, q, T, Bt, Lt, Lb != 0, ub, yb, f + b * T * n); \
            memcpy(states + b * rows, C + q * n, n * sizeof(double));       \
        }                                                                   \
        LOOP(1, 0, idx, nb, T, n, M, f, states);                            \
        for (long bi = 0; bi < nb; bi++) {                                  \
            const long b = idx ? idx[bi] : bi;                              \
            const double *A = theta + b * P, *C = A + n * (n + p);          \
            const double *an = anchor + b * P, *xb = states + b * rows;     \
            const double *yb = y + b * (T + 1) * q;                         \
            double *Sb = S + b * (T + 1) * q, *tb = terms + b * 5;          \
            const long tail = T + 1 - (K + 1) % 4;                          \
            const double s1 = 1.0 / (double)(K * q);                        \
            int bad = 0;                                                    \
            /* every entry of a step after a non-finite one is non-finite, \
             * as each is a sum of products with all of them */             \
            for (int i = 0; i < n; i++)                                     \
                bad |= !__builtin_isfinite(xb[T * n + i]);                  \
            diverged[b] = 0;                                                \
            for (long i = n; bad && !diverged[b]; i++)                      \
                if (!__builtin_isfinite(xb[i]))                             \
                    diverged[b] = i / n;                                    \
            for (long t = k0; t <= T; t++) {                                \
                double sum = -0.0, z, r;                                    \
                for (int j = 0; j < q; j++) {                               \
                    if (q == 1) {                                           \
                        const double *m = xb + t * n, *x = C;               \
                        const long cs = 1;                                  \
                        z = 0.0 + (t < tail ? T_ROW(n) : TAIL_ROW(n));      \
                    } else                                                  \
                        PRODUCT(ACC, z, xb + t * n, 1, C + j * n, 1, n);   \
                    r = yb[t * q + j] - z;                                  \
                    sum += __builtin_fabs(r);                               \
                    /* sign(r) / (K q), as 1.0 / (K q) is that of r > 0 */ \
                    Sb[t * q + j] = r > 0 ? s1 : r < 0 ? -s1 : r == 0 ? 0.0 : r; \
                }                                                           \
                means[t - k0] = (0.0 + sum) / q;                            \
            }                                                               \
            tb[0] = (0.0 + (K < 128 ? pairwise_block(means, K + 1)         \
                                    : pairwise(means, K + 1))) / K;         \
            tb[1] = mean_abs_diff(A, an, n * n);                            \
            tb[2] = mean_abs_diff(A + n * n, an + n * n, n * p);            \
            tb[3] = mean_abs_diff(C, an + n * (n + p), q * n);              \
            tb[4] = ((tb[0] + lam_A * tb[1]) + lam_B * tb[2]) + lam_C * tb[3]; \
        }                                                                   \
        if (!gradient)                                                      \
            return;                                                         \
        /* The adjoint's direct terms -S C, which are +0.0 before the window */ \
        for (long bi = 0; bi < nb; bi++) {                                  \
            const long b = idx ? idx[bi] : bi;                              \
            const double *C = theta + b * P + n * (n + p);                  \
            double *Sb = S + b * (T + 1) * q, *db = f + b * rows;           \
            memset(Sb, 0, k0 * q * sizeof(double));                         \
            memset(db, 0, k0 * n * sizeof(double));                         \
            for (long t = k0; t <= T; t++)                                  \
                for (int i = 0; i < n; i++) {                               \
                    double c_ = 0.0;                                        \
                    for (int j = 0; j < q; j++)                             \
                        ACC(-Sb[t * q + j], C[j * n + i], c_);              \
                    db[t * n + i] = 0.0 + c_;                               \
                }                                                           \
            memcpy(adj + b * rows + T * n, db + T * n, n * sizeof(double)); \
        }                                                                   \
        LOOP(0, 1, idx, nb, T, n, M, f, adj);                               \
        for (long bi = 0; bi < nb; bi++) {                                  \
            const long b = idx ? idx[bi] : bi;                              \
            const double *A = theta + b * P, *C = A + n * (n + p);          \
            const double *an = anchor + b * P, *Lb = L ? L + b * n * q : 0; \
            const double *xb = states + b * rows, *lb = adj + b * rows;     \
            const double *ub = u + b * T * p, *Sb = S + b * (T + 1) * q;   \
            double *g = grads + b * P, *gB = g + n * n, *gC = gB + n * p;   \
            double pa[4][4] = {{0}}, pb[4][4] = {{0}}, pc[4][4] = {{0}};    \
            double X[16], R;                                                \
            NAME##_sweep(n, p, T, lb + n, xb, ub, pa, pb);                  \
            if (p == 1) /* adj[1:]^T u */                                   \
                pr->gemv(CBLAS_ROW_MAJOR, CBLAS_TRANS, T, n, 1.0, lb + n, n, ub, 1, 0.0, \
                         pb[0], 1);                                         \
            if (q == 1) /* S^T states */                                    \
                pr->gemv(CBLAS_ROW_MAJOR, CBLAS_TRANS, T + 1, n, 1.0, xb, n, Sb, 1, 0.0, \
                         pc[0], 1);                                         \
            else if (GEMM_43 && n == 4 && q == 3)                           \
                pr->gemm(CBLAS_ROW_MAJOR, CBLAS_TRANS, CBLAS_NO_TRANS, q, n, T + 1, 1.0, \
                         Sb, q, xb, n, 0.0, pc[0], 4);                      \
            else                                                            \
                /* S is 0 before the window: a finite row's terms there add 0 */ \
                for (long t = diverged[b] ? 0 : k0; t <= T; t++)            \
                    for (int j = 0; j < q; j++)                             \
                        for (int i = 0; i < n; i++)                         \
                            ACC(Sb[t * q + j], xb[t * n + i], pc[j][i]);    \
            for (int i = 0; i < 4; i++)                                     \
                for (int j = 0; j < 4; j++) {                               \
                    pa[i][j] = 0.0 + pa[i][j];                              \
                    pb[i][j] = 0.0 + pb[i][j];                              \
                    pc[i][j] = 0.0 + pc[i][j];                              \
                }                                                           \
            for (int i = 0; i < n && Lb; i++)                               \
                for (int j = 0; j < q; j++)                                 \
                    if (q == 1) {                                           \
                        const double *m = &pa[0][i], *x = Lb;               \
                        const long cs = 4;                                  \
                        X[i] = 0.0 + N_ROW(n);                              \
                    } else                                                  \
                        PRODUCT(ACC, X[j * n + i], Lb + j, q, &pa[0][i], 4, n); \
            for (int i = 0; i < n * n; i++)                                 \
                g[i] = pa[i / n][i % n] + (lam_A * sign(A[i] - an[i])) / (n * n); \
            for (int i = 0; i < n * p; i++) {                               \
                R = (lam_B * sign(A[n * n + i] - an[n * n + i])) / (n * p); \
                gB[i] = pb[i % p][i / p] + R;                               \
            }                                                               \
            for (int i = 0; i < q * n; i++) {                               \
                R = (lam_C * sign(C[i] - an[n * (n + p) + i])) / (q * n);   \
                gC[i] = Lb ? (-pc[i / n][i % n] - X[i]) + R : -pc[i / n][i % n] + R; \
            }                                                               \
            memcpy(g + n * (n + p + q), lb, n * sizeof(double));            \
        }                                                                   \
    }

/* Sandybridge's dgemv 'T' adds the rows past the last multiple of four
 * (the residuals at the window's end) pairwise at n = 4. */
#define SEQ_TAIL_ROW(N) ((N) == 4 ? (T(0) + T(2)) + (T(1) + T(3)) : SEQ_ROW(N))

LOSS_PASS(skx_loss, FMA_TARGET, skx_loop, FMA_ACC, FMA_T_ROW, FMA_T_ROW, SKX_N_ROW, 0)
LOSS_PASS(hsw_loss, FMA_TARGET, hsw_loop, FMA_ACC, FMA_T_ROW, FMA_T_ROW, HSW_N_ROW, 1)
LOSS_PASS(seq_loss, , seq_loop, SEQ_ACC, SEQ_ROW, SEQ_TAIL_ROW, SEQ_ROW, 0)

/* Whether the loss pass of family `family` takes the problem: n in 2..4,
 * p and q in 1..n, T in 2..256 (at T = 1 numpy's products make other BLAS
 * calls, and past 256 steps OpenBLAS's dgemm splits its sums on Haswell
 * and Sandybridge), both CBLAS routines given, and an FMA family only on
 * a CPU with FMA */
static int loss_takes(int family, const struct problem *pr)
{
    const long T = pr->k0 + pr->K;
    return pr->n >= 2 && pr->n <= 4 && pr->p >= 1 && pr->p <= pr->n && pr->q >= 1
           && pr->q <= pr->n && pr->k0 >= 0 && pr->K >= 1 && T >= 2 && T <= 256
           && pr->gemv && pr->gemm && family >= SKX && family <= SEQ
           && (family == SEQ || HAS_FMA());
}

static void loss_pass(int family, const struct problem *pr, const long *idx, long nb,
                      int gradient, const double *theta, const double *L, double *terms,
                      double *grads, double *diverged, const struct loss_space *w)
{
    if (family == SKX)
        skx_loss(pr, idx, nb, gradient, theta, L, terms, grads, diverged, w);
    else if (family == HSW)
        hsw_loss(pr, idx, nb, gradient, theta, L, terms, grads, diverged, w);
    else
        seq_loss(pr, idx, nb, gradient, theta, L, terms, grads, diverged, w);
}

/* Runs the loss pass of family `family` on a stack of nb rows with dims
 * (n, p, q), window [k0, k0 + K] and horizon T = k0 + K: theta and anchor
 * (nb, P), inputs u (nb, T, p), measured outputs y (nb, T + 1, q), gains
 * L (nb, n, q) or NULL for the open loop, all C-contiguous, with numpy's
 * cblas_dgemv and cblas_dgemm. Writes into buf the terms (nb, 5), the
 * gradient (nb, P) and the first divergent steps (nb), and returns 1; or
 * returns 0 with nothing written where loss_takes does not take the
 * problem or its work space cannot be allocated. */
int leo_loss(int family, long nb, int n, int p, int q, long k0, long K, int gradient,
             double lam_A, double lam_B, double lam_C, const double *theta,
             const double *anchor, const double *u, const double *y, const double *L,
             void *gemv, void *gemm, double *buf)
{
    const struct problem pr = {n, p, q, k0, K, lam_A, lam_B, lam_C, anchor, u, y,
                               (dgemv_fn *)gemv, (dgemm_fn *)gemm};
    struct loss_space w;
    double *block;
    if (!loss_takes(family, &pr) || !(block = loss_space(&pr, nb, &w)))
        return 0;
    loss_pass(family, &pr, 0, nb, gradient, theta, L, buf, buf + nb * 5,
              buf + nb * (5 + n * (n + p + q + 1)), &w);
    free(block);
    return 1;
}

/* The gain placement of leo.observer: per row of a stack, in one call,
 * everything observer._numpy_place does for 2 <= n <= 4, with numpy's own
 * LAPACK routines, passed in as function pointers (dgesdd for the
 * singular values, dgeev for the eigenvalues, dgesv for the solves) and
 * called as numpy's linalg calls them: on column-major copies, with the
 * workspace its lwork = -1 query asks for; a call whose only use is a
 * yes/no test is skipped where a certificate decides it (below). The few
 * products take the orders above: C A^j is a dgemv 'N' row at q = 1 and a
 * dgemm chain above, C^T G and L C are dgemm chains (at q = 1 numpy's own
 * loop forms each entry as 0.0 + a b, which a chain of one term equals). */

/* The ILP64 integers of the LAPACK that numpy's OpenBLAS bundles */
typedef int64_t lapack_int;
typedef void gesdd_fn(const char *jobz, const lapack_int *m, const lapack_int *n, double *a,
                      const lapack_int *lda, double *s, double *u, const lapack_int *ldu,
                      double *vt, const lapack_int *ldvt, double *work, const lapack_int *lwork,
                      lapack_int *iwork, lapack_int *info);
typedef void geev_fn(const char *jobvl, const char *jobvr, const lapack_int *n, double *a,
                     const lapack_int *lda, double *wr, double *wi, double *vl,
                     const lapack_int *ldvl, double *vr, const lapack_int *ldvr, double *work,
                     const lapack_int *lwork, lapack_int *info);
typedef void gesv_fn(const lapack_int *n, const lapack_int *nrhs, double *a, const lapack_int *lda,
                     lapack_int *ipiv, double *b, const lapack_int *ldb, lapack_int *info);

#define WORK 2048

struct lapack {
    gesdd_fn *gesdd;
    geev_fn *geev;
    gesv_fn *gesv;
    lapack_int lwork_stack, lwork_x, lwork_eig; /* numpy's queried workspace */
    double work[WORK];
};

/* The singular values s of the m x n column-major a, which it overwrites,
 * as np.linalg.svd(compute_uv=False); with lwork = -1 the query. */
static lapack_int singular_values(struct lapack *la, lapack_int m, lapack_int n, double *a,
                                  double *s, lapack_int lwork)
{
    lapack_int lda = m, ldvt = n, iwork[32], info;
    double u, vt;
    la->gesdd("N", &m, &n, a, &lda, s, &u, &lda, &vt, &ldvt, la->work, &lwork, iwork, &info);
    return info;
}

/* The eigenvalues wr + i wi of the n x n column-major a, which it
 * overwrites, as np.linalg.eigvals; with lwork = -1 the query. */
static lapack_int eigenvalues(struct lapack *la, lapack_int n, double *a, double *wr, double *wi,
                              lapack_int lwork)
{
    lapack_int one = 1, info;
    double vl, vr;
    la->geev("N", "N", &n, a, &n, wr, wi, &vl, &one, &vr, &one, la->work, &lwork, &info);
    return info;
}

/* Solves the n x n column-major a (overwritten by its LU) for the n x nrhs
 * column-major b in place, as np.linalg.solve. */
static lapack_int solve(struct lapack *la, lapack_int n, lapack_int nrhs, double *a, double *b)
{
    lapack_int ipiv[16], info;
    la->gesv(&n, &nrhs, a, &n, ipiv, b, &n, &info);
    return info;
}

/* The workspace a query asks for, or -1 where it fails or exceeds WORK */
static lapack_int queried(lapack_int info, const struct lapack *la)
{
    if (info != 0 || !(la->work[0] <= WORK))
        return -1;
    return la->work[0] > 1 ? (lapack_int)la->work[0] : 1;
}

/* The column-major copy of the rows x cols row-major m */
static void column_major(int rows, int cols, const double *m, double *out)
{
    for (int r = 0; r < rows; r++)
        for (int c = 0; c < cols; c++)
            out[r + c * rows] = m[r * cols + c];
}

static int all_finite(int len, const double *a)
{
    for (int i = 0; i < len; i++)
        if (!__builtin_isfinite(a[i]))
            return 0;
    return 1;
}

FMA_TARGET static double fused_square_plus_one(double r)
{
    return __builtin_fma(r, r, 1.0);
}

/* |re + i im| as np.abs computes it for complex128 in its SIMD loop:
 * larger * sqrt(ratio^2 + 1), with ratio^2 + 1 fused on a CPU with FMA. */
static double numpy_abs(double re, double im, int fused)
{
    re = __builtin_fabs(re);
    im = __builtin_fabs(im);
    if (re == __builtin_inf())
        im = re;
    else if (im == __builtin_inf())
        re = im;
    if (re != re || im != im)
        re = im = __builtin_nan("");
    const double larger = re > im ? re : im, smaller = re > im ? im : re;
    const double ratio = larger == 0 || smaller == __builtin_inf() ? 0.0 : smaller / larger;
    return __builtin_sqrt(fused ? fused_square_plus_one(ratio) : ratio * ratio + 1.0) * larger;
}

/* The next permutation of p[0..n) in lexicographic order, or 0 after the last */
static int next_permutation(int *p, int n)
{
    int i = n - 2, j = n - 1, t;
    while (i >= 0 && p[i] > p[i + 1])
        i--;
    if (i < 0)
        return 0;
    while (p[j] < p[i])
        j--;
    t = p[i], p[i] = p[j], p[j] = t;
    for (i++, j = n - 1; i < j; i++, j--)
        t = p[i], p[i] = p[j], p[j] = t;
    return 1;
}

/* The n x n distances |w_i - z_k| of the eigenvalues wr + i wi to the
 * poles z (interleaved re, im), as np.abs(w[:, None] - z) computes them */
static void distances(int n, const double *wr, const double *wi, const double *z, int fused,
                      double cost[4][4])
{
    for (int i = 0; i < n; i++)
        for (int k = 0; k < n; k++)
            cost[i][k] = numpy_abs(wr[i] - z[2 * k], wi[i] - z[2 * k + 1], fused);
}

/* observer._spectrum_deviation of one row for n <= 4: the largest distance
 * of the first least-sum permutation in lexicographic order, with argmin's
 * and max's NaN rules (a NaN sum is least, a NaN distance is largest). */
static double deviation(int n, const double *wr, const double *wi, const double *z, int fused)
{
    double cost[4][4], least = 0.0, worst;
    int perm[4] = {0, 1, 2, 3}, pick[4] = {0, 1, 2, 3}, first = 1;
    distances(n, wr, wi, z, fused, cost);
    do {
        double sum = -0.0;
        for (int i = 0; i < n; i++)
            sum += cost[i][perm[i]];
        sum = 0.0 + sum;
        if (first || (least == least && !(sum >= least))) {
            least = sum;
            memcpy(pick, perm, sizeof pick);
        }
        first = 0;
    } while (next_permutation(perm, n));
    worst = cost[0][pick[0]];
    for (int i = 1; i < n; i++) {
        const double c = cost[i][pick[i]];
        if (worst == worst && (c != c || c > worst))
            worst = c;
    }
    return worst;
}

/* Certificates of place_row's decision-only LAPACK calls. Of its LAPACK
 * calls, four feed nothing but a yes/no test: the SVD of the observability
 * stack O (full rank), the eigenvalues of A (one within 1e-9 of a pole or
 * a target), the SVD of X (well conditioned) and, where the caller does
 * not read the best deviation, the eigenvalues of A - LC (deviation below
 * tol). Where a bound of a few dozen flops decides such a test by a wide
 * margin, place_row takes the decision from it and skips the call; else it
 * makes the call as before. Every float that reaches an output comes from
 * the same calls in the same order either way. The bounds, with u the
 * unit roundoff (DBL_EPSILON here, twice the true one):
 *
 * - dgesdd's singular values are exact for a + E, and dgeev's eigenvalues
 *   for its balanced matrix b + E, with ||E||_F <= BACKWARD ||.||_F:
 *   1e3 u, a thousand times the p(n) = 1 that LAPACK's own error bounds
 *   take (Users' Guide, 4.7 and 4.8), for n <= 4 and 16 rows.
 * - sigma_min(M) >= 1 / ||M^-1||_F, with M^-1 by Gauss-Jordan elimination
 *   with partial pivoting, whose computed inverse Y has a residual
 *   ||M Y - I||_F <= GJ ||M||_F ||Y||_F, GJ = 1e4 u (Higham, Accuracy and
 *   Stability of Numerical Algorithms, 14.4: 8 n u |L||U||Y|, with growth
 *   at most 2^(n - 1) = 8). sigma_min_bound answers only where
 *   ||M||_F ||Y||_F <= 1e8, so 1 / ||Y||_F is then within 0.03% of a true
 *   lower bound; every margin below is 1e3. */
#define BACKWARD (1e3 * __DBL_EPSILON__)
#define GJ (1e4 * __DBL_EPSILON__)

static double frobenius(int len, const double *a)
{
    double sum = 0.0;
    for (int i = 0; i < len; i++)
        sum += a[i] * a[i];
    return __builtin_sqrt(sum);
}

/* A lower bound on the least singular value of the n x n row-major m,
 * n <= 4, with m's inverse into y (row-major): 1 / ||y||_F; 0 where it
 * cannot tell (||m||_F not in [1e-100, 1e100], a zero pivot, or
 * ||m||_F ||y||_F above 1e8 or not finite). */
static double sigma_min_bound(int n, const double *m, double *y)
{
    const double norm = frobenius(n * n, m);
    double a[4][8], t;
    if (!(norm >= 1e-100 && norm <= 1e100))
        return 0.0;
    for (int i = 0; i < n; i++)
        for (int j = 0; j < n; j++) {
            a[i][j] = m[i * n + j];
            a[i][n + j] = i == j;
        }
    for (int k = 0; k < n; k++) {
        int p = k;
        for (int i = k + 1; i < n; i++)
            if (__builtin_fabs(a[i][k]) > __builtin_fabs(a[p][k]))
                p = i;
        if (a[p][k] == 0)
            return 0.0;
        for (int j = 0; j < 2 * n; j++)
            t = a[k][j], a[k][j] = a[p][j], a[p][j] = t;
        t = a[k][k];
        for (int j = 0; j < 2 * n; j++)
            a[k][j] /= t;
        for (int i = 0; i < n; i++) {
            const double f = a[i][k];
            for (int j = 0; j < 2 * n && i != k; j++)
                a[i][j] -= f * a[k][j];
        }
    }
    for (int i = 0; i < n; i++)
        for (int j = 0; j < n; j++)
            y[i * n + j] = a[i][n + j];
    t = frobenius(n * n, y);
    return t * norm <= 1e8 ? 1.0 / t : 0.0;
}

/* m balanced as dgeev balances it before its QR iterations (dgebal, job
 * 'B'): writes b = D^-1 m D and D's diagonal d, and returns BACKWARD
 * ||b||_F, so dgeev's eigenvalues of m are exact for b + E_b with ||E_b||_F
 * at most that; returns +inf where it cannot tell.
 *
 * This replays dgebal's sweeps (LAPACK 3.5 on), which scale a row by 1/f
 * and its column by f, f a power of 2 (exact), while the column and row
 * 2-norms c and r have c < r / 2, or c / 2 >= r, and keep a scaling only
 * if c + r then falls below 0.95 of its start. Replayed with other
 * roundings of c and r, every comparison takes the same branch unless it
 * is within 1e-12 of a tie, so it answers only without such a tie; without
 * a row or column whose off-diagonal entries are all zero (dgebal would
 * permute); with every entry 0 or in [1e-100, 1e100], and D within
 * 2^(+-40), so that no scaling rounds and no guard of dgebal's nor dgeev's
 * own scaling acts. */
static double balanced(int n, const double *m, double *b, double *d)
{
    int sweeps = 0, scaled = 1;
#define TIE(x, y) (__builtin_fabs((x) - (y)) <= 1e-12 * (y))
    for (int i = 0; i < n * n; i++) {
        const double a = __builtin_fabs(b[i] = m[i]);
        if (!(a == 0 || (a >= 1e-100 && a <= 1e100)))
            return __builtin_inf();
    }
    for (int i = 0; i < n; i++) {
        int row = 0, col = 0;
        for (int j = 0; j < n; j++)
            if (j != i)
                row |= b[i * n + j] != 0, col |= b[j * n + i] != 0;
        if (!row || !col)
            return __builtin_inf();
        d[i] = 1;
    }
    while (scaled) {
        if (++sweeps > 64)
            return __builtin_inf();
        scaled = 0;
        for (int i = 0; i < n; i++) {
            double c = 0, r = 0, f = 1, g, s;
            for (int j = 0; j < n; j++) {
                c += b[j * n + i] * b[j * n + i];
                r += b[i * n + j] * b[i * n + j];
            }
            c = __builtin_sqrt(c), r = __builtin_sqrt(r), s = c + r;
            for (g = r / 2; !TIE(c, g) && c < g && f < 0x1p40; g /= 2, r /= 2)
                f *= 2, c *= 2;
            if (TIE(c, g) || c < g)
                return __builtin_inf();
            for (g = c / 2; !TIE(g, r) && g >= r && f > 0x1p-40; g /= 2, c /= 2)
                f /= 2, r *= 2;
            if (TIE(g, r) || g >= r || TIE(c + r, 0.95 * s)
                || !(d[i] * f >= 0x1p-40 && d[i] * f <= 0x1p40))
                return __builtin_inf();
            if (c + r >= 0.95 * s)
                continue;
            d[i] *= f;
            scaled = 1;
            for (int j = 0; j < n; j++) {
                b[i * n + j] /= f;
                b[j * n + i] *= f;
            }
        }
    }
#undef TIE
    return BACKWARD * frobenius(n * n, b);
}

/* Whether dgeev's eigenvalues of A all lie 1e-9 or more from every
 * requested pole and every target (then place_row's test finds no
 * eigenvalue near a pole and none shared), certified: each is exact for
 * b + E_b, b = D^-1 A D, so |lambda - z| >= sigma_min(b - zI) - ||E_b||,
 * which must exceed 1e3 * 1e-9 beyond the rounding of b - zI. Only real z
 * are tried. */
static int clear_of_poles(int n, const double *A, const double *requested,
                          const double *targets)
{
    double b[16], d[4], m[16], y[16];
    const double err = balanced(n, A, b, d);
    if (!(err < __builtin_inf()))
        return 0;
    const double norm = frobenius(n * n, b);
    for (int k = 0; k < 2 * n; k++) {
        const double *z = k < n ? requested + 2 * k : targets + 2 * (k - n);
        int seen = 0;
        for (int j = 0; j < n && k >= n; j++)
            seen |= requested[2 * j] == z[0] && requested[2 * j + 1] == z[1];
        if (seen)
            continue;
        if (z[1] != 0)
            return 0;
        memcpy(m, b, n * n * sizeof(double));
        for (int i = 0; i < n; i++)
            m[i * n + i] -= z[0];
        if (!(sigma_min_bound(n, m, y) - (err + __DBL_EPSILON__ * (norm + __builtin_fabs(z[0])))
              > 1e-6))
            return 0;
    }
    return 1;
}

/* Whether dgeev's eigenvalues of M = A - LC deviate by less than tol from
 * the real targets f, certified. P = X^T (row-major) solves the Sylvester
 * system, so P M P^-1 = F + Delta, Delta = (P M - F P) P^-1, F = diag(f);
 * py is P^-1 by sigma_min_bound. The eigenvalues dgeev gives are exact for
 * b + E_b, b = D^-1 M D, so those of F + Delta + Q E_b Q^-1, Q = P D. By
 * Gershgorin, they lie in the discs about f_i whose radii are the row sums
 * of |Delta~| plus 2 eta (sqrt(n) <= 2 times a Frobenius norm), where
 * Delta~ is Delta as computed and eta bounds, in Frobenius norm, the
 * rounding of P M - F P (gamma_(n+2) (|P||M| + |F||P|)), the error of py
 * (its residual delta), the rounding of the product (gamma_(n+1)
 * |R||py|), and Q E_b Q^-1. Disjoint discs (checked with a factor 2) hold
 * one eigenvalue each, so the matching by disc has each distance within
 * its radius; with every radius at most tol / 100, the least-sum
 * matching's largest distance is at most the sum of the radii, below tol. */
static int placed_within(int n, const double *P, const double *py, const double *M,
                         const double *targets, double tol)
{
    const double u = __DBL_EPSILON__, nP = frobenius(n * n, P), ny = frobenius(n * n, py);
    const double delta = GJ * nP * ny;
    double R[16], D[16], b[16], d[4], Q[16], Qi[16], radius[4], fmax = 0, eta, nR;
    const double err = balanced(n, M, b, d);
    if (!(err < __builtin_inf() && delta <= 0.5))
        return 0;
    for (int i = 0; i < n; i++) {
        if (targets[2 * i + 1] != 0)
            return 0;
        fmax = __builtin_fmax(fmax, __builtin_fabs(targets[2 * i]));
    }
    for (int i = 0; i < n; i++)
        for (int j = 0; j < n; j++) {
            double s = -targets[2 * i] * P[i * n + j];
            for (int k = 0; k < n; k++)
                s += P[i * n + k] * M[k * n + j];
            R[i * n + j] = s;
        }
    for (int i = 0; i < n; i++)
        for (int j = 0; j < n; j++) {
            double s = 0;
            for (int k = 0; k < n; k++)
                s += R[i * n + k] * py[k * n + j];
            D[i * n + j] = s;
            Q[i * n + j] = P[i * n + j] * d[j];
            Qi[i * n + j] = py[i * n + j] / d[i];
        }
    nR = frobenius(n * n, R);
    const double eR = (n + 2) * u * nP * (frobenius(n * n, M) + fmax);
    eta = delta / (1 - delta) * ny * (nR + eR) + ny * eR + (n + 1) * u * nR * ny
          + frobenius(n * n, Q) * frobenius(n * n, Qi) / (1 - delta) * err;
    for (int i = 0; i < n; i++) {
        radius[i] = 2 * eta;
        for (int j = 0; j < n; j++)
            radius[i] += __builtin_fabs(D[i * n + j]);
        if (!(radius[i] <= tol / 100))
            return 0;
        for (int j = 0; j < i; j++)
            if (!(__builtin_fabs(targets[2 * i] - targets[2 * j]) > 2 * (radius[i] + radius[j])))
                return 0;
    }
    return 1;
}

/* The products of one row, in the order of one family */
struct products {
    /* the observability stack O (n q, n): blocks C A^j, j < n */
    void (*stack)(int n, int q, const double *A, const double *C, double *O);
    /* vec(C^T G), column-stacked */
    void (*rhs)(int n, int q, const double *C, const double *G, double *x);
    /* A - L C, with L (n, q) row-major */
    void (*closed)(int n, int q, const double *A, const double *L, const double *C, double *M);
};

#define PLACE_PRODUCTS(NAME, ATTR, ACC, N_ROW)                                  \
    ATTR static void NAME##_stack(int n, int q, const double *A, const double *C, \
                                  double *O)                                    \
    {                                                                           \
        memcpy(O, C, q * n * sizeof(double));                                   \
        for (int j = 1; j < n; j++)                                             \
            for (int r = 0; r < q; r++) {                                       \
                const double *x = O + ((j - 1) * q + r) * n;                    \
                for (int i = 0; i < n; i++) {                                   \
                    const double *m = A + i;                                    \
                    const long cs = n;                                          \
                    if (q == 1)                                                 \
                        O[j * n + i] = 0.0 + N_ROW(n);                          \
                    else                                                        \
                        PRODUCT(ACC, O[(j * q + r) * n + i], x, 1, m, cs, n);  \
                }                                                               \
            }                                                                   \
    }                                                                           \
    ATTR static void NAME##_rhs(int n, int q, const double *C, const double *G, \
                                double *x)                                      \
    {                                                                           \
        for (int i = 0; i < n; i++)                                             \
            for (int a = 0; a < n; a++)                                         \
                PRODUCT(ACC, x[i * n + a], C + a, n, G + i, n, q);              \
    }                                                                           \
    ATTR static void NAME##_closed(int n, int q, const double *A, const double *L, \
                                   const double *C, double *M)                  \
    {                                                                           \
        double lc;                                                              \
        for (int i = 0; i < n; i++)                                             \
            for (int j = 0; j < n; j++) {                                       \
                PRODUCT(ACC, lc, L + i * q, 1, C + j, n, q);                    \
                M[i * n + j] = A[i * n + j] - lc;                               \
            }                                                                   \
    }                                                                           \
    static const struct products NAME = {NAME##_stack, NAME##_rhs, NAME##_closed};

PLACE_PRODUCTS(skx_products, FMA_TARGET, FMA_ACC, SKX_N_ROW)
PLACE_PRODUCTS(hsw_products, FMA_TARGET, FMA_ACC, HSW_N_ROW)
PLACE_PRODUCTS(seq_products, , SEQ_ACC, SEQ_ROW)

enum { PLACED, UNOBSERVABLE, SHARED_EIGENVALUE, NOT_PLACED };

/* One row of leo_place; returns 0 where a LAPACK call fails, as numpy's
 * would raise. best may be NULL where the caller does not read the best
 * deviation; only then may a certified placement skip its dgeev. */
static int place_row(const struct products *pr, struct lapack *la, int fused, int n, int q,
                     double rank_rtol, double tol, long draws, const double *A, const double *C,
                     const double *requested, const double *targets,
                     const double *neg_kron, const double *G, double *L, int64_t *reason,
                     double *best)
{
    const int nq = n * q, nn = n * n;
    double O[64], K[256], work[256], x[16], s[4], wr[4], wi[4], M[16], gain[16], y[16], dev;
    int near = 0, shared = 0, nan = 0;

    /* observable: the stack has full column rank; an overflowed one does
     * not. sigma_min(O) >= sigma_min(O_1), O_1 its first n rows, and
     * sigma_max(O) <= ||O||_F, so s_min > rank_rtol s_max holds where
     * sigma_min(O_1) exceeds 1e3 (rank_rtol + BACKWARD) ||O||_F */
    pr->stack(n, q, A, C, O);
    if (!all_finite(nq * n, O))
        return *reason = UNOBSERVABLE, 1;
    if (!(sigma_min_bound(n, O, y) > 1e3 * (rank_rtol + BACKWARD) * frobenius(nq * n, O))) {
        column_major(nq, n, O, work);
        if (singular_values(la, nq, n, work, s, la->lwork_stack))
            return 0;
        if (!(s[n - 1] > rank_rtol * s[0]))
            return *reason = UNOBSERVABLE, 1;
    }

    /* a spectrum already in place keeps the zero gain; a shared eigenvalue
     * fails before any draw (1e-9: observer._numpy_place's cutoffs) */
    if (!clear_of_poles(n, A, requested, targets)) {
        column_major(n, n, A, work);
        if (eigenvalues(la, n, work, wr, wi, la->lwork_eig))
            return 0;
        double cost[4][4];
        distances(n, wr, wi, requested, fused, cost);
        for (int i = 0; i < nn; i++)
            near |= !(cost[i / n][i % n] >= 1e-9);
        if (near && !(deviation(n, wr, wi, requested, fused) >= 1e-9))
            return *reason = PLACED, 1;
        distances(n, wr, wi, targets, fused, cost);
        for (int i = 0; i < nn; i++) {
            nan |= cost[i / n][i % n] != cost[i / n][i % n];
            shared |= cost[i / n][i % n] < 1e-9;
        }
        if (shared && !nan)
            return *reason = SHARED_EIGENVALUE, 1;
    }

    /* K = kron(I, A^T) - kron(F^T, I), column-major: -kron(F^T, I) plus
     * A^T on the diagonal blocks */
    column_major(nn, nn, neg_kron, K);
    for (int i = 0; i < nn; i += n)
        for (int r = 0; r < n; r++)
            for (int c = 0; c < n; c++)
                K[i + r + (i + c) * nn] += A[c * n + r];
    *reason = NOT_PLACED;
    for (long g = 0; g < draws; g++) {
        const double *Gg = G + g * q * n;
        lapack_int info;
        pr->rhs(n, q, C, Gg, x);
        memcpy(work, K, nn * nn * sizeof(double));
        info = solve(la, nn, 1, work, x);
        if (info < 0)
            return 0;
        dev = __builtin_nan(""); /* X singular: exactly, or not finite, or by its SVD */
        if (info == 0 && all_finite(nn, x)) {
            /* x is X^T row-major, so X column-major. s_min >= max(1e-10
             * s_max, DBL_MIN) holds where sigma_min(X) = sigma_min(X^T)
             * exceeds 1e3 max((1e-10 + BACKWARD) ||X||_F, DBL_MIN) */
            const double bound = sigma_min_bound(n, x, y);
            int regular = bound > 1e3 * __builtin_fmax((1e-10 + BACKWARD) * frobenius(nn, x),
                                                       __DBL_MIN__);
            if (!regular) {
                memcpy(work, x, nn * sizeof(double));
                if (singular_values(la, n, n, work, s, la->lwork_x))
                    return 0;
                const double floor = 1e-10 * s[0];
                regular = s[n - 1] >= (floor > __DBL_MIN__ ? floor : __DBL_MIN__);
            }
            if (regular) {
                /* L from X^T L = G^T: G row-major is G^T column-major */
                column_major(n, n, x, work);
                memcpy(M, Gg, nq * sizeof(double));
                if (solve(la, n, q, work, M))
                    return 0;
                column_major(q, n, M, gain);
                pr->closed(n, q, A, gain, C, M);
                dev = __builtin_inf();
                if (all_finite(nn, M) && !best && bound > 0
                    && placed_within(n, x, y, M, targets, tol))
                    dev = 0.0; /* below tol, certified; its value is not read */
                else if (all_finite(nn, M)) {
                    column_major(n, n, M, work);
                    if (eigenvalues(la, n, work, wr, wi, la->lwork_eig))
                        return 0;
                    dev = deviation(n, wr, wi, targets, fused);
                }
            }
        }
        if (best)
            *best = __builtin_fmin(*best, dev);
        if (dev < tol) {
            memcpy(L, gain, nq * sizeof(double));
            *reason = PLACED;
            break;
        }
    }
    return 1;
}

/* Whether the placement takes (n, q) in family `family`: n in 2..4, q in
 * 1..n, and an FMA family only on a CPU with FMA; if so, fills la with the
 * routines and the workspace numpy's queries ask for, and returns 0 where
 * a query fails */
static int lapack_setup(int family, int n, int q, void *gesdd, void *geev, void *gesv,
                        struct lapack *la)
{
    double a[64], s[4], w[4];
    if (n < 2 || n > 4 || q < 1 || q > n || family < SKX || family > SEQ
        || (family != SEQ && !HAS_FMA()))
        return 0;
    la->gesdd = (gesdd_fn *)gesdd;
    la->geev = (geev_fn *)geev;
    la->gesv = (gesv_fn *)gesv;
    return (la->lwork_stack = queried(singular_values(la, n * q, n, a, s, -1), la)) >= 0
           && (la->lwork_x = queried(singular_values(la, n, n, a, s, -1), la)) >= 0
           && (la->lwork_eig = queried(eigenvalues(la, n, a, s, w, -1), la)) >= 0;
}

static const struct products *family_products(int family)
{
    return family == SKX ? &skx_products : family == HSW ? &hsw_products : &seq_products;
}

/* Places the poles `requested` (n complex, interleaved) on a stack of nb
 * pairs A (nb, n, n) and C (nb, q, n) in order family `family`, with F's
 * attained spectrum `targets`, -kron(F^T, I) `neg_kron` and the G draws
 * (draws, q, n), all C-contiguous: writes each row's gain into L (nb, n, q),
 * its reason code and its least deviation over the solved draws (NaN if
 * none), as observer._numpy_place does, and returns 1. Returns 0, with the
 * outputs meaningless, where lapack_setup does not take (n, q) or where a
 * LAPACK call fails (numpy's would raise). */
int leo_place(int family, long nb, int n, int q, double rank_rtol, double tol, long draws,
              const double *A, const double *C, const double *requested,
              const double *targets, const double *neg_kron, const double *G, void *gesdd,
              void *geev, void *gesv, double *L, int64_t *reason, double *best)
{
    struct lapack la; /* its work space is written before it is read */
    if (!lapack_setup(family, n, q, gesdd, geev, gesv, &la))
        return 0;
    memset(L, 0, nb * n * q * sizeof(double));
    for (long b = 0; b < nb; b++) {
        best[b] = __builtin_nan("");
        if (!place_row(family_products(family), &la, HAS_FMA(), n, q, rank_rtol, tol, draws,
                       A + b * n * n, C + b * q * n, requested, targets, neg_kron, G,
                       L + b * n * q, reason + b, best + b))
            return 0;
    }
    return 1;
}

/* The training pass of leo.learning: every epoch of every run of a batch
 * in one call, as learning's round loop runs them. A round takes the live
 * runs, epoch outer and run inner: each one's gain placement (Luenberger
 * mode, as leo_place), the loss pass over all of them, then each one's
 * Adam step, which its epoch keeps, or undoes by the round loop's one
 * rule: a rollback that halves its learning rate, or an abort. */

/* A run's counters, its row of counts */
enum { EPOCHS_RUN, HALVINGS, REFRESHES, REUSES, OBSERVABLE, ABORT_EPOCH, COUNTS };
/* A run's log row per epoch run: the five loss terms, lr and refreshed */
enum { LOG_ROW = 7 };

/* One Adam step of theta, m and v (P entries) by the gradient g into
 * next (theta, m and v, P each), with the moment decay rates and guard
 * adam = (beta1, beta2, eps), bias corrections c1 and c2, and decoupled
 * weight decay: each element as learning._adam_update computes it.
 * Returns whether g, the new theta and the new v are all finite. */
static int adam_row(long P, const double *adam, double lr, double decay, double c1, double c2,
                    const double *g, const double *theta, const double *m, const double *v,
                    double *next)
{
    const double b1 = adam[0], b2 = adam[1], eps = adam[2];
    double *theta1 = next, *m1 = next + P, *v1 = next + 2 * P;
    int finite = 1;
    for (long i = 0; i < P; i++) {
        m1[i] = b1 * m[i] + (1 - b1) * g[i];
        v1[i] = b2 * v[i] + (1 - b2) * (g[i] * g[i]);
        theta1[i] = theta[i] * decay - lr * (m1[i] / c1) / (__builtin_sqrt(v1[i] / c2) + eps);
        finite &= __builtin_isfinite(g[i]) && __builtin_isfinite(theta1[i])
                  && __builtin_isfinite(v1[i]);
    }
    return finite;
}

/* Trains nb runs for `epochs` epochs in family `family`, with dims
 * (n, p, q) and window [k0, k0 + K], in Luenberger mode where `closed`:
 * hyper holds lam_A, lam_B, lam_C, weight_decay, beta1, beta2, eps, the
 * rank tolerance and the placement tolerance; schedule (3, epochs) holds
 * per epoch e the scheduled learning rate and 1 - beta1^(e + 1) and
 * 1 - beta2^(e + 1); anchor, u and y are as in struct problem; requested
 * to G are leo_place's; routines are gesdd, geev, gesv, cblas_dgemv and
 * cblas_dgemm. theta (nb, P) holds the anchors on entry and the trained
 * parameters on return; L (nb, n, q) gets the last gains, counts (nb,
 * COUNTS) the counters (ABORT_EPOCH -1 where a run did not abort), and
 * log (nb, epochs, LOG_ROW) one row per epoch run. Returns 1; or 0, with
 * the outputs meaningless, where loss_takes or lapack_setup does not take
 * the batch, where memory cannot be allocated, or where a LAPACK call
 * fails (the round loop then runs the batch, and numpy raises). */
int leo_train(int family, long nb, int n, int p, int q, long k0, long K, long epochs, int closed,
              const double *hyper, const double *schedule, const double *anchor, const double *u,
              const double *y, long draws, const double *requested, const double *targets,
              const double *neg_kron, const double *G, void *const *routines, double *theta,
              double *L, int64_t *counts, double *log)
{
    const struct problem pr = {n, p, q, k0, K, hyper[0], hyper[1], hyper[2], anchor, u, y,
                               (dgemv_fn *)routines[3], (dgemm_fn *)routines[4]};
    const long P = n * (n + p + q + 1), nq = n * q;
    struct lapack la;
    struct loss_space w;
    double *block, *state;
    long *rows, live = epochs > 0 ? nb : 0;
    int ok = 1;
    if (!loss_takes(family, &pr)
        || !lapack_setup(family, n, q, routines[0], routines[1], routines[2], &la))
        return 0;
    /* per run: m and v, the snapshot of theta, m and v before its last step,
     * the loss pass's terms, gradient and first divergent step, and its
     * halvings' factor 0.5^h; then the live runs, and per run whether it
     * has a snapshot and whether its gain was refreshed this round */
    block = loss_space(&pr, nb, &w);
    state = malloc(sizeof(double) * nb * (6 * P + 7));
    rows = malloc(sizeof(long) * 3 * nb);
    if (block && state && rows) {
        double *m = state, *v = m + nb * P, *saved = v + nb * P, *terms = saved + 3 * nb * P;
        double *grads = terms + 5 * nb, *diverged = grads + nb * P, *scale = diverged + nb;
        long *has_saved = rows + nb, *fresh = has_saved + nb;
        memset(m, 0, 2 * nb * P * sizeof(double));
        memset(L, 0, nb * nq * sizeof(double));
        memset(counts, 0, nb * COUNTS * sizeof(int64_t));
        for (long b = 0; b < nb; b++) {
            rows[b] = b;
            has_saved[b] = fresh[b] = 0;
            scale[b] = 1.0;
            counts[b * COUNTS + ABORT_EPOCH] = -1;
        }
        while (live > 0) {
            long kept = 0;
            for (long i = 0; closed && i < live; i++) {
                const long b = rows[i];
                const double *A = theta + b * P;
                double gain[16] = {0};
                int64_t reason, *c = counts + b * COUNTS;
                if (!(ok = place_row(family_products(family), &la, HAS_FMA(), n, q, hyper[7],
                                     hyper[8], draws, A, A + n * (n + p), requested, targets,
                                     neg_kron, G, gain, &reason, 0)))
                    break;
                fresh[b] = reason == PLACED;
                if (fresh[b])
                    memcpy(L + b * nq, gain, nq * sizeof(double));
                c[REFRESHES] += fresh[b];
                c[REUSES] += !fresh[b];
                c[OBSERVABLE] += reason != UNOBSERVABLE;
            }
            if (!ok)
                break;
            loss_pass(family, &pr, rows, live, 1, theta, closed ? L : 0, terms, grads, diverged,
                      &w);
            for (long i = 0; i < live; i++) {
                const long b = rows[i];
                int64_t *c = counts + b * COUNTS;
                const long e = c[EPOCHS_RUN], t = e - c[HALVINGS];
                const double lr = schedule[e] * scale[b];
                double *th = theta + b * P, *mv = m + b * P, *vv = v + b * P;
                double *snap = saved + 3 * b * P, next[3 * 52], *row;
                if (!(diverged[b] == 0
                      && adam_row(P, hyper + 4, lr, 1 - lr * hyper[3], schedule[epochs + t],
                                  schedule[2 * epochs + t], grads + b * P, th, mv, vv, next))) {
                    /* a failed epoch undoes the last step, or aborts the run */
                    if (!has_saved[b]) {
                        c[ABORT_EPOCH] = e;
                        continue;
                    }
                    memcpy(th, snap, P * sizeof(double));
                    memcpy(mv, snap + P, P * sizeof(double));
                    memcpy(vv, snap + 2 * P, P * sizeof(double));
                    has_saved[b] = 0;
                    c[HALVINGS] += 1;
                    scale[b] *= 0.5;
                    rows[kept++] = b;
                    continue;
                }
                row = log + (b * epochs + e) * LOG_ROW;
                memcpy(row, terms + 5 * b, 5 * sizeof(double));
                row[5] = lr;
                row[6] = fresh[b];
                memcpy(snap, th, P * sizeof(double));
                memcpy(snap + P, mv, P * sizeof(double));
                memcpy(snap + 2 * P, vv, P * sizeof(double));
                memcpy(th, next, P * sizeof(double));
                memcpy(mv, next + P, P * sizeof(double));
                memcpy(vv, next + 2 * P, P * sizeof(double));
                has_saved[b] = 1;
                if (++c[EPOCHS_RUN] < epochs)
                    rows[kept++] = b;
            }
            live = kept;
        }
    } else
        ok = 0;
    free(block);
    free(state);
    free(rows);
    return ok;
}
