/* The affine time-step loop of leo.lti_core, one call per stack of runs.
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

/* The loop for constant N and layout: S_ij = P[b][i * rs + j * cs]. Step
 * outer, run inner, so the runs' independent recursions overlap. */
#define LOOP(N, TRANS, ROW)                                                 \
    do {                                                                    \
        const long rs = (TRANS) ? (N) : 1, cs = (TRANS) ? 1 : (N);          \
        for (long j = 0; j < K; j++)                                        \
            for (long b = 0; b < nb; b++) {                                 \
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
    ATTR static void NAME(int trans, int backward, long nb, long K, int n,  \
                          const double *P, const double *f, double *out)     \
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
        skx_loop(trans, backward, nb, K, n, P, f, out);
    else if (family == HSW)
        hsw_loop(trans, backward, nb, K, n, P, f, out);
    else
        seq_loop(trans, backward, nb, K, n, P, f, out);
    return 1;
}
