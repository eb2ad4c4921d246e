/*
 * The trial kernel of wristsim.experiments.run_trial: the closed loop
 * (reach leg -> pointing projection -> branch machine and torque -> rigid
 * plant), classical RK4 with quaternion renormalisation, and the 1 kHz
 * record.
 *
 * Each function is the C form of the Python float law named in its comment
 * and keeps that law's operation order, so the records are bit-identical to
 * the Python loop kept as the test oracle.  Build with -ffp-contract=off and
 * never with -ffast-math: a fused multiply-add or a reassociated sum changes
 * the last bit.
 *
 * The second entry point, wristsim_euler_xyz, is the Euler decomposition of
 * wristsim.experiments.extract_listing, bit-identical to
 * rotations.euler_xyz_from_quat.  The third, wristsim_format_rows, writes
 * the CSV rows of wristsim.cli.write_csv with the bytes of printf's
 * "%.17g".  The wristsim_law_* entry points expose single laws to the test
 * suite only.
 */
#include <math.h>
#include <stdint.h>
#include <stdio.h>
#include <string.h>

#ifndef M_PI
#define M_PI 3.14159265358979323846
#endif

/* planner.ReachProfile; the Python side packs one row per leg */
typedef struct {
    double t0, duration, dist, omega, target[3], unit[3];
} Leg;

/* dynamics.plant_constants */
typedef struct {
    double inertia[9], inv[9], mass, com[3], gravity[3];
} Body;

/* what the closed loop reads; the branch state is frozen inside a substep.
   The desired pose is computed once per distinct plan position and
   torsion: key holds the bits of the (p, cr, sr) that pose was made from,
   and posed says whether it holds one yet.  The controller tick's error at
   the start of a substep also gives the torque of RK4's first stage. */
typedef struct {
    const Leg *leg;
    const Body *body;
    double stiffness, cr, sr, peak;
    int diverging, posed;
    double key[5], pose[4];
} Loop;

/* the orientation error of fic.branch_torque, which does not depend on the
   branch state */
typedef struct {
    double w, x, y, z, vn, angle;
} Error;

/* planner.ReachProfile.position */
static void leg_position(const Leg *leg, double t, double p[3])
{
    double rel = t - leg->t0;
    if (rel >= leg->duration) {
        p[0] = leg->target[0];
        p[1] = leg->target[1];
        p[2] = leg->target[2];
        return;
    }
    if (rel < 0.0)
        rel = 0.0;
    double rem = 0.5 * leg->dist * (1.0 + cos(leg->omega * rel));
    p[0] = leg->target[0] - rem * leg->unit[0];
    p[1] = leg->target[1] - rem * leg->unit[1];
    p[2] = leg->target[2] - rem * leg->unit[2];
}

/* rotations.pointing_quat */
static void pointing_quat(const double p[3], double cr, double sr, double q[4])
{
    double norm = sqrt(p[0] * p[0] + p[1] * p[1] + p[2] * p[2]);
    double rx = p[0] / norm, ry = p[1] / norm, rz = p[2] / norm;
    double w0 = 1.0 + rx, a, b, c;
    if (w0 <= 1e-15) {
        a = 0.0;
        b = 0.0;
        c = 1.0;
    } else {
        double m = sqrt(w0 * w0 + rz * rz + ry * ry);
        a = w0 / m;
        b = -rz / m;
        c = ry / m;
    }
    q[0] = a * cr;
    q[1] = a * sr;
    q[2] = b * cr + c * sr;
    q[3] = c * cr - b * sr;
    if (q[0] < 0.0)
        for (int i = 0; i < 4; i++)
            q[i] = -q[i];
}

/* fic.branch_step */
static void branch_step(int *diverging, double *peak, double disp, double rate)
{
    if (!*diverging && disp <= 1e-6) { /* fic.DEADBAND */
        *diverging = 1;
        *peak = 0.0;
    } else if (rate > 0.0 || disp > *peak) {
        if (!*diverging || disp > *peak)
            *peak = disp;
        *diverging = 1;
    } else {
        *diverging = 0;
    }
}

/* fic.branch_force */
static double branch_force(double disp, double stiffness, int diverging, double peak)
{
    if (diverging)
        return stiffness * disp;
    if (peak > 0.0)
        return 2.0 * (stiffness * peak) / peak * (disp - 0.5 * peak);
    return 0.0;
}

/* fic.branch_torque up to its angle: the error d * q^-1, its vector norm
   and its rotation angle */
static void branch_error(const double q[4], const double d[4], Error *e)
{
    e->w = d[0] * q[0] + d[1] * q[1] + d[2] * q[2] + d[3] * q[3];
    e->x = d[1] * q[0] - d[0] * q[1] - d[2] * q[3] + d[3] * q[2];
    e->y = d[1] * q[3] - d[0] * q[2] + d[2] * q[0] - d[3] * q[1];
    e->z = -d[0] * q[3] - d[1] * q[2] + d[2] * q[1] + d[3] * q[0];
    e->vn = sqrt(e->x * e->x + e->y * e->y + e->z * e->z);
    e->angle = 2.0 * atan2(e->vn, e->w);
}

/* the rest of fic.branch_torque: the world torque of the error e under the
   branch state */
static void branch_torque(const Error *e, double stiffness, int diverging,
                          double peak, double out[3])
{
    if (e->vn < 1e-15) {
        out[0] = out[1] = out[2] = 0.0;
        return;
    }
    double sign = e->w > 0.0 ? 1.0 : (e->w < 0.0 ? -1.0 : 0.0);
    double scale = sign * branch_force(e->angle, stiffness, diverging, peak) / e->vn;
    out[0] = scale * e->x;
    out[1] = scale * e->y;
    out[2] = scale * e->z;
}

/* rotations.to_body */
static void to_body(const double q[4], double vx, double vy, double vz, double out[3])
{
    double tx = 2.0 * (vy * q[3] - vz * q[2]);
    double ty = 2.0 * (vz * q[1] - vx * q[3]);
    double tz = 2.0 * (vx * q[2] - vy * q[1]);
    out[0] = vx + q[0] * tx - q[2] * tz + q[3] * ty;
    out[1] = vy + q[0] * ty - q[3] * tx + q[1] * tz;
    out[2] = vz + q[0] * tz - q[1] * ty + q[2] * tx;
}

/* dynamics.plant, with dynamics.gravity_moment */
static void plant(const Body *b, const double y[7], const double tau[3], double dy[7])
{
    const double *I = b->inertia, *J = b->inv, *c = b->com, *w = y + 4;
    double tb[3], gb[3], l[3];
    to_body(y, tau[0], tau[1], tau[2], tb);
    to_body(y, b->gravity[0], b->gravity[1], b->gravity[2], gb);
    double mgx = b->mass * gb[0], mgy = b->mass * gb[1], mgz = b->mass * gb[2];
    tb[0] += c[1] * mgz - c[2] * mgy;
    tb[1] += c[2] * mgx - c[0] * mgz;
    tb[2] += c[0] * mgy - c[1] * mgx;
    for (int i = 0; i < 3; i++)
        l[i] = I[3 * i] * w[0] + I[3 * i + 1] * w[1] + I[3 * i + 2] * w[2];
    tb[0] -= w[1] * l[2] - w[2] * l[1];
    tb[1] -= w[2] * l[0] - w[0] * l[2];
    tb[2] -= w[0] * l[1] - w[1] * l[0];
    dy[0] = 0.5 * (-y[1] * w[0] - y[2] * w[1] - y[3] * w[2]);
    dy[1] = 0.5 * (y[0] * w[0] + y[2] * w[2] - y[3] * w[1]);
    dy[2] = 0.5 * (y[0] * w[1] - y[1] * w[2] + y[3] * w[0]);
    dy[3] = 0.5 * (y[0] * w[2] + y[1] * w[1] - y[2] * w[0]);
    for (int i = 0; i < 3; i++)
        dy[4 + i] = J[3 * i] * tb[0] + J[3 * i + 1] * tb[1] + J[3 * i + 2] * tb[2];
}

/* the plan position p at time t and its desired pose d; pointing_quat runs
   only when (p, cr, sr) differ from the last call's.  The key compares bit
   patterns, so -0.0 and +0.0 are different keys. */
static void desired(Loop *s, double t, double p[3], double d[4])
{
    leg_position(s->leg, t, p);
    double key[5] = {p[0], p[1], p[2], s->cr, s->sr};
    if (!s->posed || memcmp(key, s->key, sizeof key) != 0) {
        pointing_quat(p, s->cr, s->sr, s->pose);
        memcpy(s->key, key, sizeof key);
        s->posed = 1;
    }
    memcpy(d, s->pose, sizeof s->pose);
}

/* the closed_loop right-hand side of the Python kernel, for the desired
   pose d at the stage time */
static void closed_loop(const Loop *s, const double y[7], const double d[4], double dy[7])
{
    double tau[3];
    Error e;
    branch_error(y, d, &e);
    branch_torque(&e, s->stiffness, s->diverging, s->peak, tau);
    plant(s->body, y, tau, dy);
}

/* dynamics.rk4_step, then dynamics.unit_quat_state; tau1 is the torque at
   (y, t), which the controller tick has already computed, and the two
   midpoint stages share one desired pose */
static void rk4_step(Loop *s, double y[7], double t, double h, const double tau1[3])
{
    double half = 0.5 * h, sixth = h / 6.0;
    double k1[7], k2[7], k3[7], k4[7], ys[7], p[3], d[4];
    plant(s->body, y, tau1, k1);
    desired(s, t + half, p, d);
    for (int i = 0; i < 7; i++)
        ys[i] = y[i] + half * k1[i];
    closed_loop(s, ys, d, k2);
    for (int i = 0; i < 7; i++)
        ys[i] = y[i] + half * k2[i];
    closed_loop(s, ys, d, k3);
    desired(s, t + h, p, d);
    for (int i = 0; i < 7; i++)
        ys[i] = y[i] + h * k3[i];
    closed_loop(s, ys, d, k4);
    for (int i = 0; i < 7; i++)
        y[i] = y[i] + sixth * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
    double n = sqrt(y[0] * y[0] + y[1] * y[1] + y[2] * y[2] + y[3] * y[3]);
    for (int i = 0; i < 4; i++)
        y[i] = y[i] / n;
}

/*
 * Run samples 0..n from the state y (modified in place).  Leg j takes over
 * at sample leg_start[j] (leg 0 is active from the start) and resets the
 * branch machine.  Per sample k the streams give the time, the stiffness
 * and the cosine and sine of half the torsion.  Returns -1, or the first
 * sample whose state is not finite; the records are then filled up to the
 * sample before it.
 */
int64_t wristsim_simulate(int64_t n, int64_t substeps, double h,
                          const double *times, const double *stiff,
                          const double *cr, const double *sr,
                          int64_t n_legs, const int64_t *leg_start, const Leg *legs,
                          const Body *body, double y[7],
                          double *plan_pos, double *quat_des, double *quat,
                          double *omega, double *tau_cmd, double *err_angle,
                          double *disp_max)
{
    Loop s = {legs, body, 0.0, 1.0, 0.0, 0.0, 1, 0, {0.0}, {0.0}};
    int64_t next = 1;
    double prev = 0.0, p[3], d[4], tq[3];
    Error e;

    for (int64_t k = 0; k <= n; k++) {
        double t_k = times[k];
        if (next < n_legs && leg_start[next] == k) {
            s.leg = &legs[next++];
            s.diverging = 1;
            s.peak = 0.0;
            prev = 0.0;
        }
        s.stiffness = stiff[k];
        s.cr = cr[k];
        s.sr = sr[k];

        /* a sum of finite values is finite unless the state has already
           diverged far enough to overflow */
        double sum = 0.0;
        for (int i = 0; i < 7; i++)
            sum += y[i];
        if (!isfinite(sum))
            return k;

        for (int64_t i = 0; i < substeps; i++) {
            double t_sub = t_k + (double)i * h;
            /* controller tick at the substep boundary; its error also
               gives the torque of the record and of RK4's first stage */
            desired(&s, t_sub, p, d);
            branch_error(y, d, &e);
            branch_step(&s.diverging, &s.peak, e.angle, e.angle - prev);
            prev = e.angle;
            branch_torque(&e, s.stiffness, s.diverging, s.peak, tq);
            if (i == 0) { /* record the sample at the first tick of its interval */
                for (int j = 0; j < 3; j++) {
                    plan_pos[3 * k + j] = p[j];
                    omega[3 * k + j] = y[4 + j];
                    tau_cmd[3 * k + j] = tq[j];
                }
                for (int j = 0; j < 4; j++) {
                    quat_des[4 * k + j] = d[j];
                    quat[4 * k + j] = y[j];
                }
                err_angle[k] = e.angle;
                disp_max[k] = s.peak;
                if (k == n) /* the last sample is recorded, not integrated */
                    break;
            }
            rk4_step(&s, y, t_sub, h, tq);
        }
    }
    return -1;
}

/*
 * rotations.euler_xyz_from_quat on the n quaternions at q (rows of w, x,
 * y, z): the intrinsic x-y-z angles into angles (rows of 3), and into
 * locked whether each pose lies within guard radians of gimbal lock.  The
 * clamp keeps the sign of a zero, as numpy's minimum and maximum do, and
 * asin and atan2 are the libm functions that math.asin and math.atan2 call
 * on these arguments.  Returns -1, or the first quaternion that has a
 * component that is not finite or products that overflow into a NaN angle
 * (whose sign bit libm and math.atan2 may set differently); the rows
 * before it are written.
 */
int64_t wristsim_euler_xyz(int64_t n, const double *q, double guard,
                           double *angles, uint8_t *locked)
{
    for (int64_t k = 0; k < n; k++, q += 4, angles += 3) {
        double w = q[0], x = q[1], y = q[2], z = q[3];
        if (!(isfinite(w) && isfinite(x) && isfinite(y) && isfinite(z)))
            return k;
        double r02 = 2.0 * (x * z + w * y);
        double s = r02 > 1.0 ? 1.0 : r02;
        double ang_y = asin(s < -1.0 ? -1.0 : s);
        locked[k] = 0.5 * M_PI - fabs(ang_y) < guard;
        double r12 = 2.0 * (y * z - w * x);
        double r22 = 1.0 - 2.0 * (x * x + y * y);
        double r01 = 2.0 * (x * y - w * z);
        double r00 = 1.0 - 2.0 * (y * y + z * z);
        angles[0] = atan2(-r12, r22);
        angles[1] = ang_y;
        angles[2] = atan2(-r01, r00);
        /* the angles are bounded, so their sum is NaN only if one is */
        if (isnan(angles[0] + ang_y + angles[2]))
            return k;
    }
    return -1;
}

/* Test entry points: one law each, for the bit-for-bit comparisons with
   the Python float laws.  The package never calls them. */
void wristsim_law_leg_position(const Leg *leg, double t, double p[3])
{
    leg_position(leg, t, p);
}

void wristsim_law_pointing_quat(const double p[3], double cr, double sr, double q[4])
{
    pointing_quat(p, cr, sr, q);
}

/* returns the new branch flag; the peak is updated in place */
int wristsim_law_branch_step(int diverging, double *peak, double disp, double rate)
{
    branch_step(&diverging, peak, disp, rate);
    return diverging;
}

/* out = (tx, ty, tz, angle), as fic.branch_torque returns */
void wristsim_law_branch_torque(const double q[4], const double d[4], double stiffness,
                                int diverging, double peak, double out[4])
{
    Error e;
    branch_error(q, d, &e);
    branch_torque(&e, stiffness, diverging, peak, out);
    out[3] = e.angle;
}

void wristsim_law_plant(const Body *b, const double y[7], const double tau[3], double dy[7])
{
    plant(b, y, tau, dy);
}

/* Bytes one value may take with its separator: a sign, 17 digits, the
   point and "e-308" make 24; the Python side sizes its buffer from this. */
#define FIELD_MAX 32

#ifdef __SIZEOF_INT128__
typedef unsigned __int128 u128;
#define E16 10000000000000000ULL
#define E17 100000000000000000ULL

/*
 * The 17 significant digits of ax, a positive finite double, rounded half
 * to even from its exact value, and its decimal exponent e.  With
 * ax = m 2^q and k = 16 - e, the digits are m 5^k 2^(q + k), with m < 2^53
 * and pow5[k] = 5^k.  For k <= 27, 5^k < 2^63 and the product is exact in
 * 128 bits.  For k = 28..55, 5^k < 2^128 and the product is exact in 192
 * bits, made of two 64x64 -> 128 multiplies.  Returns 0, for the caller to
 * fall back on snprintf, when k falls outside 0..55: that is when
 * ax >= 1e17, and when ax < 2^-129 (about 1.47e-39), subnormals included.
 * It also returns 0 when two guesses of e both miss, which a correct table
 * never does, so that a wrong one falls back rather than loops.
 */
static int digits17(double ax, const u128 *pow5, uint64_t *digits, int *exp10)
{
    uint64_t bits;
    memcpy(&bits, &ax, sizeof bits);
    uint64_t m = (bits & ((1ULL << 52) - 1)) | (1ULL << 52);
    int q = (int)(bits >> 52) - 1075;
    /* 2^(q + 52) <= ax, so this is floor(log10 ax) or one less: a second
       pass, with e one up, is all a miss needs */
    int e = (int)floor((q + 52) * 0.30102999566398120);
    for (int pass = 0; pass < 2; pass++) {
        int k = 16 - e;
        if (k < 0 || k > 55)
            return 0;
        int s = q + k;
        u128 n;
        int sticky = 0; /* whether a bit below n's lowest is set */
        if (k <= 27) {
            n = (u128)m * (uint64_t)pow5[k];
        } else {
            /* m 5^k = hi 2^64 + lo < 2^181.  As m 5^k >= 2^117 and the
               digits stay below 10^18, s <= -58 here, so n can keep the
               product shifted right by 56 bits and sticky whether any of
               those 56 bits is set */
            u128 lo = (u128)m * (uint64_t)pow5[k];
            u128 hi = (u128)m * (uint64_t)(pow5[k] >> 64) + (lo >> 64);
            n = (hi << 8) | ((uint64_t)lo >> 56);
            sticky = ((uint64_t)lo << 8) != 0;
            s += 56;
        }
        u128 v = s >= 0 ? n << s : n >> -s; /* the digits, truncated */
        if (v < E16) {
            e--;
            continue;
        }
        if (v >= E17) {
            e++;
            continue;
        }
        if (s < 0) {
            u128 rem = n & (((u128)1 << -s) - 1), half = (u128)1 << (-s - 1);
            if (rem > half || (rem == half && (sticky || (v & 1))))
                v++;
        }
        /* a carry into the next decade: of the doubles taken here, only
           the one nearest 1e-14 rounds up to a power of ten */
        if (v == E17) {
            v = E16;
            e++;
        }
        *digits = (uint64_t)v;
        *exp10 = e;
        return 1;
    }
    return 0;
}

/* pow5[k] = 5^k for k = 0..55 */
static void fill_pow5(u128 pow5[56])
{
    pow5[0] = 1;
    for (int i = 1; i < 56; i++)
        pow5[i] = 5 * pow5[i - 1];
}

/* Test entry point: digits17's result for |x|, with its digits at out[0]
   and its exponent at out[1] when it is 1 */
int wristsim_law_digits17(double x, int64_t out[2])
{
    u128 pow5[56];
    fill_pow5(pow5);
    uint64_t digits;
    int exp10;
    int ok = digits17(fabs(x), pow5, &digits, &exp10);
    if (ok) {
        out[0] = (int64_t)digits;
        out[1] = exp10;
    }
    return ok;
}

/* the 200 characters "00", "01", ..., "99": the two digits of i at 2 i */
static const char PAIRS[] =
    "00010203040506070809"
    "10111213141516171819"
    "20212223242526272829"
    "30313233343536373839"
    "40414243444546474849"
    "50515253545556575859"
    "60616263646566676869"
    "70717273747576777879"
    "80818283848586878889"
    "90919293949596979899";

/* the 8 decimal digits of x < 10^8 at d, two at a time */
static void put8(char *d, uint32_t x)
{
    uint32_t hi = x / 10000, lo = x % 10000;
    memcpy(d, PAIRS + 2 * (hi / 100), 2);
    memcpy(d + 2, PAIRS + 2 * (hi % 100), 2);
    memcpy(d + 4, PAIRS + 2 * (lo / 100), 2);
    memcpy(d + 6, PAIRS + 2 * (lo % 100), 2);
}

/* printf's "%.17g" of the finite x at p; returns the end of the text */
static char *put_g17(double x, char *p, const u128 *pow5)
{
    if (x == 0.0) {
        if (signbit(x))
            *p++ = '-';
        *p++ = '0';
        return p;
    }
    uint64_t v;
    int e;
    if (digits17(fabs(x), pow5, &v, &e)) {
        char d[17]; /* a 9-digit and an 8-digit half */
        uint32_t top = (uint32_t)(v / 100000000);
        d[0] = (char)('0' + top / 100000000);
        put8(d + 1, top % 100000000);
        put8(d + 9, (uint32_t)(v % 100000000));
        int last = 16; /* the last digit kept: %g drops trailing zeros */
        while (last > 0 && d[last] == '0')
            last--;
        if (x < 0.0)
            *p++ = '-';
        if (e < -4) { /* d.ddde-XX; here e >= -39 */
            *p++ = d[0];
            if (last > 0) {
                *p++ = '.';
                memcpy(p, d + 1, last);
                p += last;
            }
            *p++ = 'e';
            *p++ = '-';
            *p++ = (char)('0' - e / 10);
            *p++ = (char)('0' - e % 10);
        } else if (e < 0) { /* 0.000ddd */
            *p++ = '0';
            *p++ = '.';
            for (int i = -1; i > e; i--)
                *p++ = '0';
            memcpy(p, d, last + 1);
            p += last + 1;
        } else { /* ddd.ddd; e <= 16 */
            memcpy(p, d, e + 1);
            p += e + 1;
            if (last > e) {
                *p++ = '.';
                memcpy(p, d + e + 1, last - e);
                p += last - e;
            }
        }
        return p;
    }
    return p + snprintf(p, FIELD_MAX, "%.17g", x);
}
#endif

/*
 * Write the n rows of k doubles at x (row-major) into buf as "%.17g"
 * values joined by ',' and ended by '\n'.  Returns the number of bytes
 * written, -1 when a value is not finite, or -2 when cap is below
 * n * k * FIELD_MAX.
 */
int64_t wristsim_format_rows(int64_t n, int64_t k, const double *x,
                             char *buf, int64_t cap)
{
    if (n < 0 || k < 1 || cap / FIELD_MAX / k < n)
        return -2;
#ifdef __SIZEOF_INT128__
    u128 pow5[56]; /* a local, as a global filled once would race between threads */
    fill_pow5(pow5);
#endif
    char *p = buf;
    for (int64_t i = 0; i < n; i++) {
        for (int64_t j = 0; j < k; j++) {
            double v = *x++;
            if (!isfinite(v))
                return -1;
#ifdef __SIZEOF_INT128__
            p = put_g17(v, p, pow5);
#else /* no exact path: the C library formats every value */
            p += snprintf(p, FIELD_MAX, "%.17g", v);
#endif
            *p++ = j + 1 < k ? ',' : '\n';
        }
    }
    return p - buf;
}
