/* Real-argument Wright omega and Lambert W (principal branch), compiled
 * into the event loop's library so that importing the solvers does not
 * import scipy.special.
 *
 * Both restate the algorithms scipy.special 1.17 runs for a real input,
 * step for step and in the same operation order, with libm's exp, log,
 * pow and fma, so that on the same libm they return the same doubles
 * (tests/test_whittle.py and tests/test_thresholds.py compare them bit
 * for bit).  scipy's Lambert W works in complex arithmetic; for a real
 * start every imaginary part stays +0, and each complex operation below
 * reduces to the real one written here.
 */
#include <float.h>
#include <math.h>
#include <stdint.h>

/* One Fritsch-Shafer-Crowley step for w = omega(x), from the residual
 * r = x - w - log(w) of the current w; returns the new w. */
static double fsc_step(double x, double w, double *r, double *wp1)
{
    *r = x - w - log(w);
    *wp1 = w + 1.0;
    double t = 2.0 * *wp1 * (*wp1 + 2.0 / 3.0 * *r);
    double e = *r / *wp1 * (t - *r) / (t - 2.0 * *r);
    return w * (1.0 + e);
}

/* Wright omega of a real x: the w with w + log(w) = x (Lawrence, Corless
 * & Jeffrey 2012, "Algorithm 917: Complex double precision evaluation of
 * the Wright omega function", ACM TOMS 38(3)), as scipy's
 * wright_omega_real. */
static double wright_omega_1(double x)
{
    if (isnan(x))
        return x;
    if (isinf(x))
        return x > 0.0 ? x : 0.0;
    if (x < -50.0)
        return exp(x);  /* exp(x) is omega(x) to double precision */
    if (x > 1e20)
        return x;       /* and so is x */
    double w, r, wp1;
    if (x < -2.0) {
        w = exp(x);
    } else if (x < 1.0) {
        w = exp(2.0 * (x - 1.0) / 3.0);
    } else {
        w = log(x);
        w = x - w + w / x;
    }
    w = fsc_step(x, w, &r, &wp1);
    /* a second step only where the first one's error bound says so */
    if (fabs((2.0 * w * w - 8.0 * w - 1.0) * pow(fabs(r), 4.0))
        >= DBL_EPSILON * 72.0 * pow(fabs(wp1), 6.0))
        w = fsc_step(x, w, &r, &wp1);
    return w;
}

void wright_omega(const double *x, double *out, int64_t n)
{
    for (int64_t i = 0; i < n; i++)
        out[i] = wright_omega_1(x[i]);
}

/* scipy's cevalpoly at a real point: a degree-2 polynomial with
 * coefficients c[0] z^2 + c[1] z + c[2], by Knuth's second-order
 * recurrence with fma (TAOCP vol. 2, 4.6.4, eq. 3). */
static double evalpoly2(const double c[3], double z)
{
    double r = 2.0 * z, s = z * z;
    double b = fma(-s, c[0], c[2]);
    double a = fma(r, c[0], c[1]);
    return z * a + b;
}

#define EXPN1 0.36787944117144232159553  /* exp(-1) */
#define LAMBERT_TOL 1e-8                 /* scipy.special.lambertw's default */

/* Principal-branch Lambert W of a real z in [-1/e, 0] (Corless, Gonnet,
 * Hare, Jeffrey & Knuth 1996, "On the Lambert W function", Adv. Comput.
 * Math. 5), as scipy's lambertw(z, 0, 1e-8).real: a series start near the
 * branch point -1/e, the (3,2) Pade approximant otherwise, then Halley
 * steps.  Every start and step there is negative, so of scipy's two
 * Halley forms only the one for w < 0 is needed.  Returns NaN outside
 * [-1/e, 0], where scipy's start is complex (below the branch point its
 * square root turns imaginary) or the solvers never look. */
static double lambert_w0_1(double z)
{
    if (isnan(z) || z == 0.0)
        return z;
    if (z > 0.0)
        return NAN;
    double w;
    if (fabs(z + EXPN1) < 0.3) {
        /* W = -1 + p - p^2/3 + ..., p = sqrt(2(e z + 1)), eq. 4.22 */
        static const double series[3] = {-1.0 / 3.0, 1.0, -1.0};
        double arg = 2.0 * (M_E * z + 1.0);
        if (!(arg >= 0.0))
            return NAN;
        w = evalpoly2(series, sqrt(arg));
    } else if (z > -0.2) {
        static const double num[3] = {12.85106382978723404255, 12.34042553191489361902, 1.0};
        static const double den[3] = {32.53191489361702127660, 14.34042553191489361702, 1.0};
        w = z * evalpoly2(num, z) / evalpoly2(den, z);
    } else {
        return NAN;
    }
    /* Halley's method, eq. 5.9 */
    for (int i = 0; i < 100; i++) {
        double ew = exp(w);
        double wew = w * ew;
        double wewz = wew - z;
        double wn = w - wewz / (wew + ew - (w + 2.0) * wewz / (2.0 * w + 2.0));
        if (fabs(wn - w) <= LAMBERT_TOL * fabs(wn))
            return wn;
        w = wn;
    }
    return NAN;
}

void lambert_w0(const double *z, double *out, int64_t n)
{
    for (int64_t i = 0; i < n; i++)
        out[i] = lambert_w0_1(z[i]);
}
