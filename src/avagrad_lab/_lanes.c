/* The lock-step lane loop of runner.run_trials for d = 1 SynthProblem batches
 * with constant schedules: one call advances every lane through a chunk of
 * drawn tokens.
 *
 * It is a copy of the numpy loop and of optim.lane_update at d = 1, which
 * stay the spec: each value is formed by the same IEEE operations in the same
 * order, so the bits are the same. Build without FMA contraction or fast
 * math (-ffp-contract=off -fno-fast-math), or they are not.
 *
 * A step is proposed for all lanes first. If any lane's gradient, iterate,
 * buffers or running sums turn non-finite, nothing of that step is written
 * and the call returns: the numpy loop runs that step, with its divergence
 * mask, flush and compaction, and then calls here again.
 */
#include <math.h>
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
