/* The two compiled loops of shoalwave: the rest of a first-order step of
 * its finite-volume scheme once dt is known, and the detector search after
 * each step. Each has a numpy twin in solver.py that takes the same steps
 * in the same order (solver._first_order_step, and the numpy search of
 * solver._Search); a change to one is a change to both.
 *
 * Each operation takes the operands of the numpy code in its order, so
 * each loop gives the numpy code's bits, signed zeros included, with a
 * NaN wherever it has one: build without -ffast-math and with
 * -ffp-contract=off, which keeps a * b + c from becoming one fused
 * multiply-add. Which NaN an add or a multiply of two NaNs returns is not
 * kept; numpy's own choice depends on where the pair falls in the array.
 */
#include <math.h>
#include <stdint.h>
#include <string.h>

/* np.maximum and np.minimum: a NaN operand is returned (the first, when
 * both are NaN), and a tie returns the second operand, so that
 * maximum(-0.0, 0.0) is +0.0. */
static double maximum(double a, double b) { return (isnan(a) || a > b) ? a : b; }

static double minimum(double a, double b) { return (isnan(a) || a < b) ? a : b; }

/* The first-order rates of one frame, in one loop over its interfaces:
 * what solver._rhs computes at first order once the ghost cells are
 * filled. That is the cell velocities m / w, the hydrostatic interface
 * depths max(w + offset, 0), the two-wave flux of solver._hll (an
 * interface whose two states are identical takes the left flux), the
 * hydrostatic corrections, the optional flux perturbation and the two
 * flux differences times -1/dx.
 *
 * w and m are the frame's size + 2 ghost-filled cells, from one ghost
 * cell before its first cell to one after its last; bed_left and
 * bed_right are the size + 1 interface offsets; rw and rm receive the
 * size rates.
 */
static void rates(const double *w, const double *m, const double *bed_left,
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

static int same_bits(double a, double b)
{
    uint64_t x, y;
    memcpy(&x, &a, sizeof x);
    memcpy(&y, &b, sizeof y);
    return x == y;
}

/* The rows and constants of a run's first-order steps, bound once per run
 * (solver.Domain's binding, _native.Rows). w_e and m_e are the n + 4 cells
 * of the ghost-extended thickness and momentum rows; bed_left and
 * bed_right the n + 1 interface offsets; rw and rm the rate rows and still
 * the mark row, of which a frame of size cells uses the first size; b the
 * n bed values. ghost_fill says how the whole grid's ghosts are filled: 0
 * when they are filled already (an inflow's), else 1 transmissive, 2
 * periodic and 3 reflective. moved receives a call's first and last moved
 * cell.
 */
struct rows {
    double *w_e, *m_e;
    const double *bed_left, *bed_right;
    double *rw, *rm;
    unsigned char *still;
    const double *b;
    double rate_scale;
    int ghost_fill;
    long moved[2];
};

/* What solver.step does at first order once it has written w = surface - b
 * over the reach of the frame [lo, hi), checked it and computed dt: the
 * whole grid's cells when lo == 0, else a window's cells and the two real
 * cells beside each end, which are its ghosts. solver._first_order_step is
 * its numpy twin, step for step.
 *
 * surface and velocity are the new state's rows, n long: a copy of the
 * old velocity, and of the old surface when track is set. The call writes
 * m = w * u over the reach, fills the whole grid's ghosts, computes the
 * rates into rw and rm, and then w_new = w + dt * rw and m_new = m + dt * rm
 * into them. It returns 1, having written no new state, when one of those
 * is not finite, then 2 when a new depth (w_new + b) - b is below h_min.
 * Otherwise it writes the frame's cells of surface = w_new + b and
 * velocity = m_new / w_new, and returns 0.
 *
 * With track, moved receives the first and the last moved cell, or -1
 * twice when none moved: a cell moved unless its rates were both +-0
 * (marked in still) and its new surface and velocity have the old bits.
 * A whole-grid step whose four end cells do not all have rates of +-0
 * tracks no further, and gives 0 and n - 1.
 */
int first_order_step(struct rows *r, long lo, long hi, double *surface,
                     double *velocity, double dt, double h_min, int perturbed,
                     double perturbation, int track)
{
    double *w_e = r->w_e + lo, *m_e = r->m_e + lo, *rw = r->rw, *rm = r->rm;
    const double *b = r->b + lo;
    long size = hi - lo;
    long first = lo == 0 ? 2 : 0, end = lo == 0 ? size + 2 : size + 4;
    for (long k = first; k < end; k++)
        m_e[k] = w_e[k] * velocity[lo - 2 + k];
    /* The ghosts of solver._ghost_copies; a reflective wall flips the sign
     * of momentum's. */
    for (int row = 0; lo == 0 && r->ghost_fill && row < 2; row++) {
        double *e = row ? m_e : w_e;
        if (r->ghost_fill == 1) {
            e[0] = e[1] = e[2];
            e[size + 2] = e[size + 3] = e[size + 1];
        } else if (r->ghost_fill == 2) {
            e[0] = e[size];
            e[1] = e[size + 1];
            e[size + 2] = e[2];
            e[size + 3] = e[3];
        } else if (row == 0) {
            e[0] = e[3];
            e[1] = e[2];
            e[size + 2] = e[size + 1];
            e[size + 3] = e[size];
        } else {
            e[0] = -e[3];
            e[1] = -e[2];
            e[size + 2] = -e[size + 1];
            e[size + 3] = -e[size];
        }
    }
    rates(w_e + 1, m_e + 1, r->bed_left + lo, r->bed_right + lo, rw, rm, size,
          r->rate_scale, perturbed, perturbation);

    if (track && lo == 0) {
        long ends[4] = {0, 1, size - 2, size - 1};
        for (int k = 0; k < 4; k++)
            if (!(rw[ends[k]] == 0.0 && rm[ends[k]] == 0.0))
                track = 0;
        if (!track) {
            r->moved[0] = 0;
            r->moved[1] = size - 1;
        }
    }
    const double *w = w_e + 2, *m = m_e + 2;
    int finite = 1, deep = 1;
    for (long i = 0; i < size; i++) {
        if (track)
            r->still[i] = rw[i] == 0.0 && rm[i] == 0.0;
        rw[i] = w[i] + dt * rw[i];
        rm[i] = m[i] + dt * rm[i];
        finite &= isfinite(rw[i]) && isfinite(rm[i]);
        deep &= !((rw[i] + b[i]) - b[i] < h_min);
    }
    if (!finite)
        return 1;
    if (!deep)
        return 2;

    long first_moved = -1, last_moved = -1;
    surface += lo;
    velocity += lo;
    for (long i = 0; i < size; i++) {
        double s = rw[i] + b[i], v = rm[i] / rw[i];
        int same = same_bits(s, surface[i]) && same_bits(v, velocity[i]);
        if (track && !(r->still[i] && same)) {
            if (first_moved < 0)
                first_moved = lo + i;
            last_moved = lo + i;
        }
        surface[i] = s;
        velocity[i] = v;
    }
    if (track) {
        r->moved[0] = first_moved;
        r->moved[1] = last_moved;
    }
    return 0;
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
