/* The two compiled loops of shoalwave: the first-order rates of one frame
 * of its finite-volume step, and the detector search after each step.
 *
 * first_order_rates computes, in one loop over the frame's interfaces,
 * what solver._rhs computes at first order once the ghost cells are
 * filled: the cell velocities m / w, the hydrostatic interface depths
 * max(w + offset, 0), the two-wave flux of solver._hll (an interface
 * whose two states are identical takes the left flux), the hydrostatic
 * corrections, the optional flux perturbation and the two flux
 * differences times -1/dx.
 *
 * Each operation takes the operands of the numpy code in its order, so
 * each loop gives the numpy code's bits, signed zeros included, with a
 * NaN wherever it has one: build without -ffast-math and with
 * -ffp-contract=off, which keeps a * b + c from becoming one fused
 * multiply-add. Which NaN an add or a multiply of two NaNs returns is not
 * kept; numpy's own choice depends on where the pair falls in the array.
 *
 * w and m are the frame's size + 2 ghost-filled cells, from one ghost
 * cell before its first cell to one after its last; bed_left and
 * bed_right are the size + 1 interface offsets; rw and rm receive the
 * size rates.
 */
#include <math.h>
#include <string.h>

/* np.maximum and np.minimum: a NaN operand is returned (the first, when
 * both are NaN), and a tie returns the second operand, so that
 * maximum(-0.0, 0.0) is +0.0. */
static double maximum(double a, double b) { return (isnan(a) || a > b) ? a : b; }

static double minimum(double a, double b) { return (isnan(a) || a < b) ? a : b; }

void first_order_rates(const double *w, const double *m, const double *bed_left,
                       const double *bed_right, double *rw, double *rm, long size,
                       double rate_scale, int perturbed, double perturbation)
{
    double ul = m[0] / w[0];
    double f0_before = 0.0, g_left_before = 0.0;
    for (long j = 0; j <= size; j++) {
        double ur = m[j + 1] / w[j + 1];
        double wl = maximum(w[j] + bed_left[j], 0.0);
        double wr = maximum(w[j + 1] + bed_right[j], 0.0);

        double ml = wl * ul;
        double mr = wr * ur;
        double fl1 = ml * ul + 0.5 * wl * wl;
        double cl = sqrt(wl);
        double cr = sqrt(wr);
        double sl = minimum(ul - cl, ur - cr);
        double sr = maximum(ul + cl, ur + cr);
        double fr1 = mr * ur + 0.5 * wr * wr;
        double f0, f1;
        if (sl >= 0.0 || (wl == wr && ml == mr)) {
            f0 = ml;
            f1 = fl1;
        } else if (sr <= 0.0) {
            f0 = mr;
            f1 = fr1;
        } else {
            double span = sr - sl;
            double safe = span > 0.0 ? span : 1.0;
            double slsr = sl * sr;
            f0 = (sr * ml - sl * mr + slsr * (wr - wl)) / safe;
            f1 = (sr * fl1 - sl * fr1 + slsr * (mr - ml)) / safe;
        }

        double g_right = f1 - 0.5 * (wl * wl);
        double g_left = f1 - 0.5 * (wr * wr);
        if (perturbed)
            g_right = g_right + perturbation * (wl + wr);
        if (j > 0) {
            rw[j - 1] = (f0 - f0_before) * rate_scale;
            /* + 0.0 turns a -0.0 difference into +0.0, as the numpy kernel's
             * cell jump and bed term do. */
            rm[j - 1] = (g_right - g_left_before + 0.0) * rate_scale;
        }
        f0_before = f0;
        g_left_before = g_left;
        ul = ur;
    }
}

/* The detector search of one step (solver._Search): what
 * riemann._refresh_inland and detector._mark_pairs compute, then the
 * marked pairs' nodes.
 *
 * The state differs from the one of the last call only on the nodes
 * [lo, hi) of its n, so gamma, p and, with write_abs, |p| are recomputed
 * there: w = surface - b, gamma = sqrt(w), p = velocity + 2.0 * gamma.
 * p_x is rewritten wherever its stencil reads a new p, as
 * fields._ddx_from spans it, with its centre (ahead - behind) * inv2 and
 * its one-sided end stencils; pairs[i] = p_x[i] * p_x[i + 1] < 0 wherever
 * it reads a new p_x. Each takes numpy's operands in numpy's order.
 *
 * A column with w <= 0 in the window (a NaN is not one) makes it return
 * -1 before p_x is touched: the caller then runs the numpy search, which
 * raises for it.
 * Otherwise the indices i of every marked pair of the whole row, which
 * holds only 0s and 1s, go to nodes in ascending order, and their count
 * is returned.
 */
long inland_search(const double *surface, const double *velocity, long lo, long hi,
                   const double *b, double *gamma, double *p, double *abs_p,
                   double *p_x, unsigned char *pairs, long *nodes, long n,
                   double inv2, int write_abs)
{
    int dry = 0;
    for (long i = lo; i < hi; i++) {
        double w = surface[i] - b[i];
        dry |= w <= 0.0;
        gamma[i] = sqrt(w);
        p[i] = velocity[i] + 2.0 * gamma[i];
        if (write_abs)
            abs_p[i] = fabs(p[i]);
    }
    if (dry)
        return -1;

    long first = lo > 2 ? lo - 1 : 0;
    long last = hi < n - 2 ? hi + 1 : n;
    long end = last < n - 1 ? last : n - 1;
    for (long i = first > 1 ? first : 1; i < end; i++)
        p_x[i] = (p[i + 1] - p[i - 1]) * inv2;
    if (first == 0)
        p_x[0] = (-3.0 * p[0] + 4.0 * p[1] - p[2]) * inv2;
    if (last == n)
        p_x[n - 1] = (3.0 * p[n - 1] - 4.0 * p[n - 2] + p[n - 3]) * inv2;

    for (long i = first > 0 ? first - 1 : 0; i < end; i++)
        pairs[i] = p_x[i] * p_x[i + 1] < 0.0;

    long count = 0;
    const unsigned char *at = pairs, *stop = pairs + (n - 1);
    while ((at = memchr(at, 1, (size_t)(stop - at))) != NULL)
        nodes[count++] = at++ - pairs;
    return count;
}
