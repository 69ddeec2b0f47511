/* Compiled event loop of aovcache.simulator.run: the Whittle policy in
 * expected-ageing mode.
 *
 * simulator._compiled_loop draws each batch of inter-arrival times and content
 * ids with numpy and calls whittle_loop once per batch; all state lives
 * in numpy arrays.  Every float operation keeps the order of the Python
 * loop, and the build turns off FMA contraction, so the two loops give
 * bit-identical metrics (tests/test_simulator.py runs them in lockstep).
 */
#include <math.h>
#include <stdint.h>

/* columns of the per-content tables, one row per content */
enum { TAU_STAR, CEILING, INV_STEP, C_ALAM, C_F, C_W, N_CDBL };
enum { Q_STAR, Q_HAT, BP_OFF, N_CINT };
/* running totals; the first six doubles and the first two counts, in
 * this order, form the warmup snapshot */
enum { T, GRAND, Q_INTEGRAL, WAIT_COST, FETCH_COST, AGEING_COST, WQ_RATE, N_ACC };
enum { FETCHES, EVENTS, VIOLATIONS, TOTAL_Q, N_CNT };

/* Runs the events bi..blen-1 of the batch, stopping before an event once
 * events >= stop_events or t >= stop_time.  Returns the index of the
 * first event not run, or -1 if an admission found the cache
 * inconsistent (a victim not cached, or a requester already cached).
 * The cache is slots[0..m-1]; slot_of[id] is id's slot, or -1. */
int64_t whittle_loop(const double *dts, const int64_t *ids, int64_t bi, int64_t blen,
                     int64_t stop_events, double stop_time,
                     const double *cdbl, const int64_t *cint, const double *bps,
                     const double *w_of_tau, int64_t stride,
                     int64_t *queue, double *fetch_time, uint8_t *waited,
                     int64_t *slot_of, int64_t *slots, int64_t m,
                     double *acc, int64_t *cnt)
{
    double t = acc[T], grand = acc[GRAND], q_integral = acc[Q_INTEGRAL];
    double wait_cost = acc[WAIT_COST], fetch_cost = acc[FETCH_COST];
    double ageing_cost = acc[AGEING_COST], wq_rate = acc[WQ_RATE];
    int64_t fetches = cnt[FETCHES], events = cnt[EVENTS];
    int64_t violations = cnt[VIOLATIONS], total_q = cnt[TOTAL_Q];
    const double last_cell = (double)(stride - 1);

    for (; bi < blen && events < stop_events && t < stop_time; bi++) {
        double dt = dts[bi];
        int64_t r = ids[bi];
        const double *cd = cdbl + r * N_CDBL;
        const int64_t *ci = cint + r * N_CINT;
        if (total_q) {
            q_integral += (double)total_q * dt;
            double winc = wq_rate * dt;
            wait_cost += winc;
            grand += winc;
        }
        t += dt;
        events++;

        /* decide: 0 serve, 1 fetch+cache, 2 wait, 3 fetch+discard */
        int kind;
        int64_t victim = -1;
        int cached = slot_of[r] >= 0;
        int64_t q = queue[r];
        double tau_r = 0.0;
        if (cached) {
            tau_r = t - fetch_time[r];
            if (tau_r <= cd[TAU_STAR])
                kind = 0;
            else
                kind = q < ci[Q_STAR] ? 2 : 1;  /* wait, or refresh in place */
        } else if (q < ci[Q_STAR]) {
            kind = 2;
        } else {
            double w_req = q >= ci[Q_HAT] ? cd[CEILING] : bps[ci[BP_OFF] + q - ci[Q_STAR]];
            /* cheapest cached index, lowest id on ties; a copy with requests
             * queued has index 0.  With m == 0 w_min stays infinite and
             * nothing is admitted. */
            double w_min = INFINITY;
            for (int64_t s = 0; s < m; s++) {
                int64_t id = slots[s];
                double w = 0.0;
                if (queue[id] == 0) {
                    double x = (t - fetch_time[id]) * cdbl[id * N_CDBL + INV_STEP];
                    int64_t cell = x < last_cell ? (int64_t)x : stride - 1;
                    w = w_of_tau[id * stride + cell];
                }
                if (w < w_min || (w == w_min && id < victim)) {
                    w_min = w;
                    victim = id;
                }
            }
            if (w_req > w_min)
                kind = 1;
            else
                kind = q < ci[Q_HAT] ? 2 : 3;
        }

        /* apply and charge */
        if (kind == 2) {
            queue[r] = q + 1;
            total_q += 1;
            wq_rate += cd[C_W];
            waited[r] = 1;
            continue;
        }
        if (q) {
            queue[r] = 0;
            total_q -= q;
            wq_rate -= cd[C_W] * (double)q;
        }
        if (kind == 0) {
            double age = cd[C_ALAM] * tau_r * (double)(q + 1);
            ageing_cost += age;
            grand += age;
            violations += waited[r];
            continue;
        }
        if (kind == 1) {
            if (!cached) {
                if (victim < 0 || slot_of[victim] < 0 || slot_of[r] >= 0) {
                    bi = -1;
                    break;
                }
                int64_t s = slot_of[victim];
                slot_of[victim] = -1;
                slot_of[r] = s;
                slots[s] = r;
            }
            fetch_time[r] = t;
        }
        fetch_cost += cd[C_F];
        grand += cd[C_F];
        fetches += 1;
        waited[r] = 0;
    }

    acc[T] = t;
    acc[GRAND] = grand;
    acc[Q_INTEGRAL] = q_integral;
    acc[WAIT_COST] = wait_cost;
    acc[FETCH_COST] = fetch_cost;
    acc[AGEING_COST] = ageing_cost;
    acc[WQ_RATE] = wq_rate;
    cnt[FETCHES] = fetches;
    cnt[EVENTS] = events;
    cnt[VIOLATIONS] = violations;
    cnt[TOTAL_Q] = total_q;
    return bi;
}
