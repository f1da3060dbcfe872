/* Code that the Python code runs through ctypes:
 *
 * lanes_run, the lock-step lane loop of runner.run_trials for d = 1
 * SynthProblem batches with constant schedules: one call advances every lane
 * through a chunk of drawn tokens. It is a copy of the numpy loop and of
 * optim.lane_update at d = 1, which stay the spec: each value is formed by
 * the same IEEE operations in the same order, so the bits are the same. Build
 * without FMA contraction or fast math (-ffp-contract=off -fno-fast-math), or
 * they are not. A step is proposed for all lanes first. If any lane's
 * gradient, iterate, buffers or running sums turn non-finite, nothing of that
 * step is written and the call returns: the numpy loop runs that step, with
 * its divergence mask, flush and compaction, and then calls here again.
 *
 * philox_uniform, philox_normal and philox_choice, the draws of
 * core.RngStream: a numpy bit generator (bitgen_t) over a stream's own Philox
 * words, handed to the distribution functions of numpy's libnpyrandom.a,
 * which this library links statically. The first two are the code that
 * Generator(Philox) runs; philox_choice runs Generator.choice's own loops
 * around numpy's bounded draw. So the bits and the state left are numpy's.
 */
#include <math.h>
#include <stdbool.h>
#include <stdint.h>

/* rows of the state block st (each n lanes long), as runner.run_trials lays
 * them out */
enum { ALPHA, EPS, W, M, V, VHAT, WSUM, GSSUM, ZSUM, ETA, AEFF, GS, NSTATE };
/* rows of the scratch block nx: one step's proposal */
enum { NW, NM, NV, NVHAT, NWSUM, NGSSUM, NZSUM, NETA, NAEFF, NGS, NNEXT };
/* par: the problem's and the step's constants */
enum { P_C, P_SLOPE, P_OFFSET, P_LO, P_HI, P_B1, P_C1, P_B2, P_C2, P_LAM };
/* flags */
enum {
    F_MOMENTUM = 1,    /* m absorbs g (all but sgd) */
    F_ADAPTIVE = 2,    /* v absorbs g and eta is read from a v buffer */
    F_NORMALIZED = 4,  /* avagrad: eta rescaled by sqrt(d) / ||eta|| */
    F_COUPLED = 8,     /* g += lam * w */
    F_DECOUPLED = 16,  /* w_next -= (alpha * lam) * w */
    F_VHAT = 32,       /* amsgrad: eta is read from vhat = max(vhat, v_t) */
    F_FULL = 64,       /* gradient metric: the exact expected gradient */
    F_BATCH = 128,     /* gradient metric: the drawn gradient */
    F_TRACE = 256,
    F_DELAYED = 512,   /* delayed_adam, avagrad(w): eta is read from v_{t-1} */
};

/* np.maximum: NaN propagates, and of two equal values the second is kept */
static double maximum(double a, double b)
{
    if (isnan(a))
        return a;
    if (isnan(b))
        return b;
    return a > b ? a : b;
}

/* ndarray.clip(lo, hi): NaN and a signed zero inside the box are kept */
static double clip(double x, double lo, double hi)
{
    if (x < lo)
        return lo;
    if (x > hi)
        return hi;
    return x;
}

/* Advance n lanes by up to `steps` steps; tok holds one byte per step and
 * lane, nonzero for the rare draw. clock is {t, T, every, n_rows}: the next
 * step's index, the trial length, the row stride and the rows written, and t
 * and n_rows are advanced. rows is the (R, 7, n) row buffer and trace the
 * (6, T, n) trace buffer (unused without F_TRACE). Returns the number of
 * steps committed: fewer than `steps` when a lane fails the finiteness
 * check at the next one. */
int64_t lanes_run(int64_t n, int64_t steps, const uint8_t *tok, double *st, double *nx,
                  const double *par, int64_t flags, int64_t *clock, double *rows,
                  double *trace)
{
    const double big_c = par[P_C], slope = par[P_SLOPE], offset = par[P_OFFSET];
    const double lo = par[P_LO], hi = par[P_HI], lam = par[P_LAM];
    const double b1 = par[P_B1], c1 = par[P_C1], b2 = par[P_B2], c2 = par[P_C2];
    const int metric = (flags & (F_FULL | F_BATCH)) != 0;
    const int64_t T = clock[1], every = clock[2];
    int64_t t = clock[0], n_rows = clock[3], s;
    double *const alpha = st + ALPHA * n, *const eps = st + EPS * n, *const w = st + W * n;
    double *const m = st + M * n, *const v = st + V * n, *const vhat = st + VHAT * n;
    double *const wsum = st + WSUM * n, *const gssum = st + GSSUM * n;
    double *const zsum = st + ZSUM * n, *const eta = st + ETA * n;
    double *const aeff = st + AEFF * n, *const gs = st + GS * n;

    for (s = 0; s < steps; s++, t++) {
        const uint8_t *draw = tok + s * n;
        int64_t p;
        for (p = 0; p < n; p++) {  /* propose: lane_update and the running sums */
            const double a = alpha[p], wp = w[p];
            const double g = draw[p] ? big_c * wp : -1.0;
            double ge = g, mn = m[p], vn = v[p], vhn = vhat[p], e = 1.0, ae = a, wn;
            double gsq = gs[p], gss = gssum[p];
            const double ws = wsum[p] + wp;
            if (metric) {
                const double x = (flags & F_FULL) ? slope * wp - offset : g;
                gsq = x * x;
                gss = gssum[p] + gsq;
            }
            if (flags & F_COUPLED)
                ge = g + lam * wp;
            if (flags & F_MOMENTUM)
                mn = b1 * m[p] + c1 * ge;
            if (flags & F_ADAPTIVE) {
                double r;
                vn = b2 * v[p] + c2 * (ge * ge);
                if (flags & F_VHAT)
                    vhn = maximum(vhat[p], vn);
                r = (flags & F_DELAYED) ? v[p] : (flags & F_VHAT) ? vhn : vn;
                e = 1.0 / (sqrt(r) + eps[p]);
            }
            if (flags & F_NORMALIZED) {
                const double norm = sqrt(e * e);  /* ||eta|| / sqrt(1) */
                wn = wp - a * ((e / norm) * mn);
                ae = a / norm;
            } else if (flags & F_ADAPTIVE) {
                wn = wp - a * (e * mn);
            } else {
                wn = wp - a * ((flags & F_MOMENTUM) ? mn : ge);
            }
            if (flags & F_DECOUPLED)
                wn = wn - (a * lam) * wp;
            {
                const double zs = zsum[p] + a * e;
                if (!(isfinite(ws) && isfinite(zs) && isfinite(g) && isfinite(wn)
                      && isfinite(mn) && isfinite(vn) && (!metric || isfinite(gss))
                      && (!(flags & F_VHAT) || isfinite(vhn))))
                    goto stop;
                nx[NW * n + p] = wn;
                nx[NM * n + p] = mn;
                nx[NV * n + p] = vn;
                nx[NVHAT * n + p] = vhn;
                nx[NWSUM * n + p] = ws;
                nx[NGSSUM * n + p] = gss;
                nx[NZSUM * n + p] = zs;
                nx[NETA * n + p] = e;
                nx[NAEFF * n + p] = ae;
                nx[NGS * n + p] = gsq;
            }
        }
        {
            const int row_due = t % every == 0 || t == T;
            double *const row = rows + n_rows * 7 * n;
            for (p = 0; p < n; p++) {  /* commit, then record */
                const double e = nx[NETA * n + p];
                w[p] = clip(nx[NW * n + p], lo, hi);
                m[p] = nx[NM * n + p];
                v[p] = nx[NV * n + p];
                vhat[p] = nx[NVHAT * n + p];
                wsum[p] = nx[NWSUM * n + p];
                gssum[p] = nx[NGSSUM * n + p];
                zsum[p] = nx[NZSUM * n + p];
                eta[p] = e;
                aeff[p] = nx[NAEFF * n + p];
                gs[p] = nx[NGS * n + p];
                if (flags & F_TRACE) {
                    double *const tr = trace + (t - 1) * n + p;
                    tr[0] = alpha[p];
                    tr[T * n] = e;
                    tr[2 * T * n] = e;
                    tr[3 * T * n] = sqrt(e * e);
                    tr[4 * T * n] = aeff[p];
                    tr[5 * T * n] = gs[p];
                }
                if (row_due) {
                    row[p] = (double)t;
                    row[n + p] = wsum[p] / (double)t;
                    row[2 * n + p] = gssum[p] / (double)t;
                    row[3 * n + p] = alpha[p];
                    row[4 * n + p] = e;
                    row[5 * n + p] = sqrt(e * e);
                    row[6 * n + p] = aeff[p];
                }
            }
            n_rows += row_due;
        }
    }
stop:
    clock[0] = t;
    clock[3] = n_rows;
    return s;
}

/* Philox4x64-10 (Salmon et al., "Parallel random numbers: as easy as 1, 2,
 * 3", SC'11), as numpy's Philox bit generator runs it */
#define PHILOX_M0 0xD2E7470EE14C6C93ULL
#define PHILOX_M1 0xCA5A826395121157ULL
#define PHILOX_W0 0x9E3779B97F4A7C15ULL /* the key bumps */
#define PHILOX_W1 0xBB67AE8584CAA73BULL

/* the low word of a * b, and its high word in *hi */
static uint64_t mulhilo(uint64_t a, uint64_t b, uint64_t *hi)
{
#ifdef __SIZEOF_INT128__
    const unsigned __int128 p = (unsigned __int128)a * b;
    *hi = (uint64_t)(p >> 64);
    return (uint64_t)p;
#else
    const uint64_t a0 = a & 0xFFFFFFFFu, a1 = a >> 32, b0 = b & 0xFFFFFFFFu, b1 = b >> 32;
    const uint64_t p00 = a0 * b0, p01 = a0 * b1, p10 = a1 * b0;
    const uint64_t mid = (p00 >> 32) + (p01 & 0xFFFFFFFFu) + (p10 & 0xFFFFFFFFu);
    *hi = a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32);
    return a * b;
#endif
}

/* the next block: the counter is incremented with carry, then ten rounds
 * encrypt it, the key bumped after each */
static void philox_block(uint64_t *ctr, const uint64_t *key, uint64_t *buf)
{
    uint64_t c0, c1, c2, c3, k0 = key[0], k1 = key[1];
    int r;
    if (++ctr[0] == 0 && ++ctr[1] == 0 && ++ctr[2] == 0)
        ++ctr[3];
    c0 = ctr[0], c1 = ctr[1], c2 = ctr[2], c3 = ctr[3];
#pragma GCC unroll 10 /* as numpy's philox4x64_R is unrolled */
    for (r = 0; r < 10; r++) {
        uint64_t hi0, hi1;
        const uint64_t lo0 = mulhilo(PHILOX_M0, c0, &hi0), lo1 = mulhilo(PHILOX_M1, c2, &hi1);
        c0 = hi1 ^ c1 ^ k0;
        c1 = lo1;
        c2 = hi0 ^ c3 ^ k1;
        c3 = lo0;
        k0 += PHILOX_W0;
        k1 += PHILOX_W1;
    }
    buf[0] = c0, buf[1] = c1, buf[2] = c2, buf[3] = c3;
}

/* A stream's Philox state, as numpy's philox_state holds it: the counter,
 * the key, the output buffer, buffer_pos (4 when the buffer is spent), and
 * has_uint32 and uinteger, the upper half of an output that a 32-bit draw
 * keeps for the next one. */
enum { S_CTR = 0, S_KEY = 4, S_BUF = 6, S_POS = 10, S_HAS32 = 11, S_UINT = 12 };

static uint64_t philox_next64(void *st)
{
    uint64_t *const s = st;
    if (s[S_POS] == 4) {
        philox_block(s + S_CTR, s + S_KEY, s + S_BUF);
        s[S_POS] = 0;
    }
    return s[S_BUF + s[S_POS]++];
}

/* the low half of the next output, then its high half */
static uint32_t philox_next32(void *st)
{
    uint64_t *const s = st;
    uint64_t next;
    if (s[S_HAS32]) {
        s[S_HAS32] = 0;
        return (uint32_t)s[S_UINT];
    }
    next = philox_next64(st);
    s[S_HAS32] = 1;
    s[S_UINT] = next >> 32;
    return (uint32_t)next;
}

static double philox_next_double(void *st)
{
    return (double)(philox_next64(st) >> 11) * (1.0 / 9007199254740992.0);
}

/* numpy's bit generator interface (numpy/random/bitgen.h) and three draws of
 * the libnpyrandom.a that the numpy wheel ships, linked in: the object code
 * that Generator runs. Declared here, since numpy's distributions.h includes
 * Python.h. */
typedef struct {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;

void random_standard_uniform_fill(bitgen_t *bitgen_state, intptr_t cnt, double *out);
void random_standard_normal_fill(bitgen_t *bitgen_state, intptr_t cnt, double *out);
uint64_t random_bounded_uint64(bitgen_t *bitgen_state, uint64_t off, uint64_t rng,
                               uint64_t mask, bool use_masked);

#define BITGEN(st) {(st), philox_next64, philox_next32, philox_next_double, philox_next64}

/* Generator.random(n) into out, on the stream state st */
int64_t philox_uniform(int64_t n, double *out, uint64_t *st)
{
    bitgen_t bg = BITGEN(st);
    random_standard_uniform_fill(&bg, n, out);
    return 0;
}

/* Generator.standard_normal(n) into out, on the stream state st */
int64_t philox_normal(int64_t n, double *out, uint64_t *st)
{
    bitgen_t bg = BITGEN(st);
    random_standard_normal_fill(&bg, n, out);
    return 0;
}

/* k draws of Generator.choice(n, b, replace=False) into the (k, b) out, as
 * numpy makes them: Floyd's algorithm (Bentley & Floyd, "A sample of
 * brilliance", CACM 1987) and then a shuffle of the b picks, or, when
 * n > 10000 and b > n / 50, a shuffle of the tail of 0 ... n - 1. table is n
 * zeroed words of scratch: the picks' membership, cleared after each draw, or
 * the population of the tail shuffle. A shape that numpy rejects draws
 * nothing and returns -1. */
int64_t philox_choice(int64_t k, int64_t *out, uint64_t *st, int64_t n, int64_t b,
                      int64_t *table)
{
    bitgen_t bg = BITGEN(st);
    const int tail = n > 10000 && b > n / 50;
    int64_t i, j, held;
    if (b < 0 || b > n)
        return -1;
    for (; k > 0; k--, out += b) {
        if (tail) {
            for (i = 0; i < n; i++)
                table[i] = i;
            for (i = n - 1; i >= (n - b > 1 ? n - b : 1); i--) {
                j = (int64_t)random_bounded_uint64(&bg, 0, i, 0, false);
                held = table[j], table[j] = table[i], table[i] = held;
            }
            for (i = 0; i < b; i++)
                out[i] = table[n - b + i];
            continue;
        }
        for (i = 0; i < b; i++) {  /* the pick, or n - b + i if it is already drawn */
            j = (int64_t)random_bounded_uint64(&bg, 0, n - b + i, 0, false);
            out[i] = table[j] ? n - b + i : j;
            table[out[i]] = 1;
        }
        for (i = 0; i < b; i++)
            table[out[i]] = 0;
        for (i = b - 1; i > 0; i--) {
            j = (int64_t)random_bounded_uint64(&bg, 0, i, 0, false);
            held = out[j], out[j] = out[i], out[i] = held;
        }
    }
    return 0;
}
