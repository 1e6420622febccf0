"""Optional compiled kernels (ctypes + cc, NumPy fallback).

Every C kernel of the library comes from this one build.  Each
accumulator algebra (ST, K, KBN, CP, DD) has three: a balanced sweep (the
2-D ensemble sweep of :mod:`repro.trees.evaluate`), a rank-local fold and
a fused fold + balanced rank tree + result reduce (the collective engines
of :mod:`repro.mpi`).  The selection sketch
(:mod:`repro.selection._statskernel`) is the fourth family and PR's fold
(:func:`pr_fold`, the batched path of
:mod:`repro.summation.prerounded`) the fifth: one pass over each item's
chunks extracts every fold coefficient and sums them exactly.

Each algebra is written once, as three C pieces: MERGE (the VectorOps
``merge`` of two states), FOLD (one chunk's accumulator state) and RESULT
(a state's value).  The ``ALGEBRA`` template expands them into the
algebra's three kernels, so no recurrence is written twice and the
balanced level loop is written once.  In NumPy the ensemble sweep is
bandwidth-bound (one full-size temporary per ufunc per level); the C sweep
runs each tree's whole level schedule out of an L1-resident scratch
buffer, leaf gather included, so the permuted operand matrix is never
materialised.

The kernels are **bitwise-identical** to their NumPy fallbacks: they apply
the exact same IEEE-754 double operations in the exact same order (compiled
with ``-ffp-contract=off`` so no FMA contraction can perturb a rounding),
and the engine property tests pin them against the generic node-walk just
like every other fast path.  PR's fold computes the same coefficients and
sums them exactly, so lane order cannot matter there.

Availability is strictly optional.  The C source is compiled on first use
with the system C compiler into a content-addressed cache under the user's
temp directory; if no compiler is present, compilation fails, or
``REPRO_NO_CKERNELS`` is set (any non-empty value), :func:`has_kernel`
returns False and callers stay on the pure-NumPy path.  Nothing is ever
downloaded or installed.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
from typing import Optional

import numpy as np

from repro.obs import get_registry

__all__ = [
    "has_kernel",
    "sweep_matrix",
    "sweep_indexed",
    "fold_block",
    "reduce_block",
    "sketch_planes",
    "pr_fold",
    "kernels_available",
]

#: Every kernel is generated from its algebra's one MERGE / FOLD / RESULT
#: definition by the ``ALGEBRA`` template (see the C comments).
_C_SOURCE = r"""
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* -- the accumulator algebras ------------------------------------------------
 *
 * Each algebra is written once, as three pieces over a (sum, carry) state:
 *
 *   MERGE(a0, a1, b0, b1, &s, &c)  the VectorOps ``merge`` of the left
 *       state (a0, a1) and the right state (b0, b1);
 *   FOLD(row, n, buf, cap, &s, &c)  one chunk's accumulator state, bitwise
 *       ``make_accumulator(); add_array(chunk)`` from the zero state;
 *   RESULT(s, c)  the state's value.
 *
 * ST keeps one component: its MERGE and FOLD never write the carry.  A
 * leaf is the state (x, 0.0), and for every algebra MERGE((x, 0), (y, 0))
 * is bitwise the leaf-pair formula the NumPy sweep applies (b - (0+0) == b,
 * (0+comp)+0 == comp+0, (0+0)+delta == delta+0, e+0+0 unchanged), so the
 * sweeps need no leaf-level formula of their own.
 */

static inline void st_merge(double a0, double a1, double b0, double b1,
                            double *s, double *c)
{
    (void)a1; (void)b1; (void)c;
    *s = a0 + b0;
}

static inline void kahan_merge(double a0, double a1, double b0, double b1,
                               double *s, double *c)
{
    double y = b0 - (a1 + b1);
    double t = a0 + y;
    *s = t;
    *c = (t - a0) - y;
}

static inline void kbn_merge(double a0, double a1, double b0, double b1,
                             double *s, double *c)
{
    double t = a0 + b0;
    double comp = (fabs(a0) >= fabs(b0)) ? (a0 - t) + b0 : (b0 - t) + a0;
    *s = t;
    *c = (a1 + comp) + b1;
}

static inline void cp_merge(double a0, double a1, double b0, double b1,
                            double *s, double *c)
{
    double sum = a0 + b0;
    double bb = sum - a0;
    double delta = (a0 - (sum - bb)) + (b0 - bb);
    *s = sum;
    *c = a1 + b1 + delta;
}

static inline void dd_merge(double a0, double a1, double b0, double b1,
                            double *s, double *c)
{
    double sum = a0 + b0;
    double bb = sum - a0;
    double e = (a0 - (sum - bb)) + (b0 - bb);
    e = e + a1 + b1;
    double s2 = sum + e;
    *s = s2;
    *c = e - (s2 - sum);
}

static inline double result_s(double s, double c) { (void)c; return s; }
static inline double result_sc(double s, double c) { return s + c; }

/* -- rank-local row folds (the collective fast path) ------------------------
 *
 * A chunk's fold replays the matching accumulator's ``add_array``
 * op-for-op: per-row power-of-two zero padding, then the algorithm's block
 * fold (the TwoSum carry fold, whose levels are CP's MERGE; Kahan's
 * flat-error fold; or the pairwise dd_add fold, whose levels are DD's
 * MERGE).  The FOLD pieces below merge the block into the zero state.  ``buf`` is a caller scratch of four non-overlapping quarters
 * of ``cap`` doubles each (cap >= half the row's power-of-two width).
 */

static int64_t pow2_ceil(int64_t n)
{
    int64_t p = 1;
    while (p < n) p <<= 1;
    return p;
}

/* One carry-fold level (CP's MERGE): pair adjacent (sum, carry) nodes from
 * (s, c) into (so, co).  Out-of-place with restrict operands so the compiler can SIMD
 * the TwoSum lanes (every lane is an independent, bit-exact IEEE chain).
 */
static void carry_fold_level(const double *restrict s, const double *restrict c,
                             double *restrict so, double *restrict co,
                             int64_t h2)
{
    for (int64_t i = 0; i < h2; i++)
        cp_merge(s[2 * i], c[2 * i], s[2 * i + 1], c[2 * i + 1], &so[i], &co[i]);
}

/* First fold level fused with the row load: operand j is row[j] for j < n,
 * an exact-zero pad otherwise.  A TwoSum against a zero pad still runs the
 * full formula (it normalises -0.0 operands to +0.0 exactly like the
 * padded NumPy path), all-pad pairs produce exact (+0, +0) states, and the
 * level-1 carries are 0.0 + err (matching c0 + c1 + err with zero carries).
 * Levels ping-pong between the (sa, ca) and (sb, cb) scratch pairs (same
 * values as an in-place compaction, laid out for vectorisation); the row's
 * (s_blk, e_blk) lands in (*out_s, *out_c).
 */
static void carry_fold_row(const double *restrict row, int64_t n,
                           double *restrict sa, double *restrict ca,
                           double *restrict sb, double *restrict cb,
                           double *out_s, double *out_c)
{
    if (n <= 1) {               /* pow2 pad of 0/1 elements: no fold level */
        *out_s = n ? row[0] : 0.0;
        *out_c = 0.0;
        return;
    }
    if (n == 2) {               /* single level, no scratch */
        cp_merge(row[0], 0.0, row[1], 0.0, out_s, out_c);
        return;
    }
    /* Levels 1+2 fused: each output slot consumes a quad of leaves, so the
     * widest level's partials never touch scratch.  Pad leaves are exact
     * zeros; two_sum against them runs the full formula (identical to the
     * unfused odd-tail op), and all-pad quads reduce to exact (+0, +0) —
     * the same values the unfused zero-fill stores. */
    int64_t h2 = pow2_ceil(n) / 4, q = n / 4;
    for (int64_t i = 0; i < q; i++) {
        double s1, c1, s2, c2;
        cp_merge(row[4 * i], 0.0, row[4 * i + 1], 0.0, &s1, &c1);
        cp_merge(row[4 * i + 2], 0.0, row[4 * i + 3], 0.0, &s2, &c2);
        cp_merge(s1, c1, s2, c2, &sa[i], &ca[i]);
    }
    int64_t w = q;
    if (n & 3) {                /* boundary quad: 1-3 real leaves + pads */
        int64_t rem = n & 3;
        double s1, c1, s2, c2;
        cp_merge(row[4 * q], 0.0, rem > 1 ? row[4 * q + 1] : 0.0, 0.0, &s1, &c1);
        cp_merge(rem > 2 ? row[4 * q + 2] : 0.0, 0.0, 0.0, 0.0, &s2, &c2);
        cp_merge(s1, c1, s2, c2, &sa[w], &ca[w]);
        w++;
    }
    for (int64_t i = w; i < h2; i++) { sa[i] = 0.0; ca[i] = 0.0; }
    double *s = sa, *c = ca, *t = sb, *d = cb;
    int64_t m = h2;
    while (m > 1) {
        int64_t half = m / 2;
        carry_fold_level(s, c, t, d, half);
        double *tmp;
        tmp = s; s = t; t = tmp;
        tmp = c; c = d; d = tmp;
        m = half;
    }
    *out_s = s[0];
    *out_c = c[0];
}

/* NumPy's pairwise summation (umath pairwise_sum_DOUBLE), reproduced
 * bit-for-bit for contiguous doubles: < 8 sequential, <= 128 eight-way
 * unrolled partials combined as ((r0+r1)+(r2+r3)) + ((r4+r5)+(r6+r7)),
 * else recursive halving on a multiple-of-8 boundary.  The Kahan fold
 * collapses each level's error mass through ``np.sum``, so the kernel
 * must produce the same bits NumPy's reduction does. */
static double pairwise_sum(const double *a, int64_t n)
{
    if (n < 8) {
        double res = 0.0;
        for (int64_t i = 0; i < n; i++) res += a[i];
        return res;
    }
    else if (n <= 128) {
        double r0 = a[0], r1 = a[1], r2 = a[2], r3 = a[3];
        double r4 = a[4], r5 = a[5], r6 = a[6], r7 = a[7];
        int64_t i;
        for (i = 8; i < n - (n % 8); i += 8) {
            r0 += a[i];     r1 += a[i + 1]; r2 += a[i + 2]; r3 += a[i + 3];
            r4 += a[i + 4]; r5 += a[i + 5]; r6 += a[i + 6]; r7 += a[i + 7];
        }
        double res = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7));
        for (; i < n; i++) res += a[i];
        return res;
    }
    else {
        int64_t n2 = n / 2;
        n2 -= n2 % 8;
        return pairwise_sum(a, n2) + pairwise_sum(a + n2, n - n2);
    }
}

/* One flat-error TwoSum level: pair adjacent sums from s into t, errors
 * into e.  Out-of-place with restrict operands so the lanes SIMD. */
static void twosum_sum_level(const double *restrict s, double *restrict t,
                             double *restrict e, int64_t h2)
{
    for (int64_t i = 0; i < h2; i++) {
        double a = s[2 * i], b = s[2 * i + 1];
        double sum = a + b;
        double bb = sum - a;
        e[i] = (a - (sum - bb)) + (b - bb);
        t[i] = sum;
    }
}

/* Kahan's flat-error row fold (KahanAccumulator.add_array image): pairwise
 * TwoSum levels whose error arrays are collapsed by one NumPy-identical
 * pairwise_sum each, accumulated sequentially across levels — one add per
 * element on the error channel, the cost gap that keeps K cheaper than
 * CP's carried-error fold.  Pads are exact zeros: their TwoSum entries are
 * (+0, +0), level error entries are never -0.0 (the error of an exact sum
 * rounds to +0), and zero tails on power-of-two boundaries leave the
 * pairwise grouping of real entries intact — so a row-local pow2 pad
 * matches the NumPy path's global-width pad bit-for-bit. */
static void kahan_fold_row(const double *restrict row, int64_t n,
                           double *restrict sa, double *restrict sb,
                           double *restrict e1, double *restrict e2,
                           double *out_s, double *out_e)
{
    if (n <= 1) {               /* pow2 pad of 0/1 elements: no fold level */
        *out_s = n ? row[0] : 0.0;
        *out_e = 0.0;
        return;
    }
    if (n == 2) {               /* single level, single error entry */
        double a = row[0], b = row[1];
        double sum = a + b;
        double bb = sum - a;
        *out_s = sum;
        *out_e = 0.0 + ((a - (sum - bb)) + (b - bb));
        return;
    }
    /* Levels 1+2 fused: each quad of leaves yields two level-1 errors (kept
     * in level order in e1), one level-2 error (e2) and one level-2 partial
     * sum (sa) — the widest level's partials never touch scratch.  Pad
     * leaves are exact zeros; their TwoSum entries are the same (+0, +0)
     * the zero-fill stores. */
    int64_t h = pow2_ceil(n) / 2, h2 = pow2_ceil(n) / 4, q = n / 4;
    for (int64_t i = 0; i < q; i++) {
        double a0 = row[4 * i], a1 = row[4 * i + 1];
        double a2 = row[4 * i + 2], a3 = row[4 * i + 3];
        double s1 = a0 + a1;
        double b1 = s1 - a0;
        e1[2 * i] = (a0 - (s1 - b1)) + (a1 - b1);
        double s2 = a2 + a3;
        double b2 = s2 - a2;
        e1[2 * i + 1] = (a2 - (s2 - b2)) + (a3 - b2);
        double sum = s1 + s2;
        double bb = sum - s1;
        e2[i] = (s1 - (sum - bb)) + (s2 - bb);
        sa[i] = sum;
    }
    int64_t w = q;
    if (n & 3) {                /* boundary quad: 1-3 real leaves + pads */
        int64_t rem = n & 3;
        double a0 = row[4 * q];
        double a1 = rem > 1 ? row[4 * q + 1] : 0.0;
        double a2 = rem > 2 ? row[4 * q + 2] : 0.0;
        double s1 = a0 + a1;
        double b1 = s1 - a0;
        e1[2 * q] = (a0 - (s1 - b1)) + (a1 - b1);
        double s2 = a2 + 0.0;
        double b2 = s2 - a2;
        e1[2 * q + 1] = (a2 - (s2 - b2)) + (0.0 - b2);
        double sum = s1 + s2;
        double bb = sum - s1;
        e2[w] = (s1 - (sum - bb)) + (s2 - bb);
        sa[w] = sum;
        w++;
    }
    for (int64_t i = 2 * w; i < h; i++) e1[i] = 0.0;
    for (int64_t i = w; i < h2; i++) { sa[i] = 0.0; e2[i] = 0.0; }
    double err_total = 0.0;
    err_total += pairwise_sum(e1, h);
    err_total += pairwise_sum(e2, h2);
    double *s = sa, *t = sb;
    int64_t m = h2;
    while (m > 1) {
        int64_t half = m / 2;
        twosum_sum_level(s, t, e1, half);
        err_total += pairwise_sum(e1, half);
        double *tmp = s; s = t; t = tmp;
        m = half;
    }
    *out_s = s[0];
    *out_e = err_total;
}

/* One pairwise dd_add level (DD's MERGE) out-of-place. */
static void dd_fold_level(const double *restrict s, const double *restrict c,
                          double *restrict so, double *restrict co, int64_t h2)
{
    for (int64_t i = 0; i < h2; i++)
        dd_merge(s[2 * i], c[2 * i], s[2 * i + 1], c[2 * i + 1], &so[i], &co[i]);
}

/* One row's DD accumulator state (pairwise dd_add fold + normalized +
 * merge_parts from the zero state), using the caller's 4-quarter scratch. */
static void dd_fold_row(const double *restrict row, int64_t n,
                        double *restrict sa, double *restrict ca,
                        double *restrict sb, double *restrict cb,
                        double *out_s, double *out_c)
{
    double hi, lo;
    if (n <= 1) {
        hi = n ? row[0] : 0.0;
        lo = 0.0;
    } else {
        /* fused level 1: leaf lo components are exact zeros */
        int64_t h = pow2_ceil(n) / 2, full = n / 2;
        for (int64_t i = 0; i < full; i++)
            dd_merge(row[2 * i], 0.0, row[2 * i + 1], 0.0, &sa[i], &ca[i]);
        int64_t w = full;
        if (n & 1) {
            dd_merge(row[n - 1], 0.0, 0.0, 0.0, &sa[w], &ca[w]);
            w++;
        }
        for (int64_t i = w; i < h; i++) { sa[i] = 0.0; ca[i] = 0.0; }
        double *s = sa, *c = ca, *t = sb, *d = cb;
        int64_t m = h;
        while (m > 1) {              /* pairwise dd_add levels */
            int64_t h2 = m / 2;
            dd_fold_level(s, c, t, d, h2);
            double *tmp;
            tmp = s; s = t; t = tmp;
            tmp = c; c = d; d = tmp;
            m = h2;
        }
        hi = s[0];
        lo = c[0];
    }
    double sum = hi + lo;            /* DoubleDouble.normalized */
    double bb = sum - hi;
    double err = (hi - (sum - bb)) + (lo - bb);
    hi = sum; lo = err;
    double s0 = 0.0 + hi;            /* merge_parts from (0, 0) */
    double bb2 = s0 - 0.0;
    double delta = (0.0 - (s0 - bb2)) + (hi - bb2);
    double e2 = delta + (0.0 + lo);
    double s2 = s0 + e2;
    *out_s = s2;
    *out_c = e2 - (s2 - s0);
}

/* -- the FOLD pieces: one chunk -> its accumulator state ------------------- */

static inline void st_fold(const double *restrict row, int64_t n,
                           double *restrict buf, int64_t cap,
                           double *s, double *c)
{
    (void)buf; (void)cap; (void)c;
    double acc = 0.0;
    for (int64_t j = 0; j < n; j++)
        acc = acc + row[j];
    *s = acc;
}

static inline void kahan_fold(const double *restrict row, int64_t n,
                              double *restrict buf, int64_t cap,
                              double *s, double *c)
{
    double s_blk, e_blk;
    kahan_fold_row(row, n, buf, buf + cap, buf + 2 * cap, buf + 3 * cap,
                   &s_blk, &e_blk);
    double y = s_blk - 0.0;          /* add(s_blk) from (0, 0) */
    double t = 0.0 + y;
    double cc = (t - 0.0) - y;
    y = e_blk - cc;                  /* add(e_blk) */
    double t2 = t + y;
    *s = t2;
    *c = (t2 - t) - y;
}

static inline void kbn_fold(const double *restrict row, int64_t n,
                            double *restrict buf, int64_t cap,
                            double *s, double *c)
{
    double s_blk, e_blk;
    carry_fold_row(row, n, buf, buf + cap, buf + 2 * cap, buf + 3 * cap,
                   &s_blk, &e_blk);
    kbn_merge(0.0, 0.0, s_blk, e_blk, s, c);  /* add(s_blk); c += e_blk */
}

static inline void cp_fold(const double *restrict row, int64_t n,
                           double *restrict buf, int64_t cap,
                           double *s, double *c)
{
    double s_blk, e_blk;
    carry_fold_row(row, n, buf, buf + cap, buf + 2 * cap, buf + 3 * cap,
                   &s_blk, &e_blk);
    double sum = 0.0 + s_blk;        /* two_sum(0.0, s_blk) */
    double bb = sum - 0.0;
    double delta = (0.0 - (sum - bb)) + (s_blk - bb);
    *s = sum;
    *c = 0.0 + (delta + e_blk);
}

static inline void dd_fold(const double *restrict row, int64_t n,
                           double *restrict buf, int64_t cap,
                           double *s, double *c)
{
    dd_fold_row(row, n, buf, buf + cap, buf + 2 * cap, buf + 3 * cap, s, c);
}

/* -- the kernels: three per algebra, all from its three pieces ---------------
 *
 * balanced_sweep_<alg>(data, idx, n_rows, n, out): the balanced-tree value
 *     of every row.  ``idx == NULL`` means matrix mode (row r's leaves are
 *     ``data[r*n : (r+1)*n]``); otherwise ``data`` is the base operand
 *     vector and row r's leaves are ``data[idx[r*n + j]]``.
 * fold_<alg>(rows, len, n_rows, max_len, out0, out1): the accumulator
 *     state of every chunk; rows[r] points at chunk r's len[r] doubles (a
 *     tick block's pointer table, read in place).
 * reduce_balanced_<alg>(rows, len, n_items, n_ranks, max_len, out): every
 *     item end-to-end; item i's rank-r chunk is rows[i*n_ranks + r].  Each
 *     rank chunk folds to its state, the states collapse through the
 *     balanced rank tree and out[i] is the root's value — bitwise fold +
 *     compile_tree(balanced).reduce_states + result.
 *
 * ``max_len`` bounds the fold scratch (>= every len[r]).  The level loop
 * is the ``shapes.balanced`` schedule: pair adjacent nodes in place, carry
 * an odd trailing node up unchanged.  Scratch is calloc'd, so ST's carry
 * plane, which nothing writes, still reads as zeros.
 */

#define LEAF(j) (idx ? data[idx[(size_t)r * (size_t)n + (size_t)(j)]] \
                     : data[(size_t)r * (size_t)n + (size_t)(j)])

static int64_t fold_cap(int64_t max_len)
{
    return pow2_ceil(max_len > 1 ? max_len : 2) / 2;
}

#define ALGEBRA(name, MERGE, FOLD, RESULT)                                   \
static inline double root_##name(double *s, double *c, int64_t w)            \
{                                                                            \
    while (w > 1) {                                                          \
        int64_t h2 = w / 2;                                                  \
        for (int64_t i = 0; i < h2; i++)                                     \
            MERGE(s[2 * i], c[2 * i], s[2 * i + 1], c[2 * i + 1],            \
                  &s[i], &c[i]);                                             \
        if (w & 1) { s[h2] = s[w - 1]; c[h2] = c[w - 1]; }                   \
        w = h2 + (w & 1);                                                    \
    }                                                                        \
    return RESULT(s[0], c[0]);                                               \
}                                                                            \
                                                                             \
int balanced_sweep_##name(const double *data, const int64_t *idx,            \
                          int64_t n_rows, int64_t n, double *out)            \
{                                                                            \
    int64_t h = (n + 1) / 2;                                                 \
    double *s = (double *)calloc((size_t)(2 * h), sizeof(double));           \
    if (!s) return 1;                                                        \
    double *c = s + h;                                                       \
    for (int64_t r = 0; r < n_rows; r++) {                                   \
        int64_t w = n / 2;                                                   \
        for (int64_t i = 0; i < w; i++)                                      \
            MERGE(LEAF(2 * i), 0.0, LEAF(2 * i + 1), 0.0, &s[i], &c[i]);     \
        if (n & 1) { s[w] = LEAF(n - 1); c[w] = 0.0; w++; }                  \
        out[r] = root_##name(s, c, w);                                       \
    }                                                                        \
    free(s);                                                                 \
    return 0;                                                                \
}                                                                            \
                                                                             \
int fold_##name(const double *const *restrict rows,                          \
                const int64_t *restrict len, int64_t n_rows,                 \
                int64_t max_len, double *restrict out0, double *out1)        \
{                                                                            \
    int64_t cap = fold_cap(max_len);                                         \
    double *buf = (double *)malloc((size_t)(4 * cap) * sizeof(double));      \
    if (!buf) return 1;                                                      \
    for (int64_t r = 0; r < n_rows; r++)                                     \
        FOLD(rows[r], len[r], buf, cap, &out0[r], &out1[r]);                 \
    free(buf);                                                               \
    return 0;                                                                \
}                                                                            \
                                                                             \
int reduce_balanced_##name(const double *const *restrict rows,               \
                           const int64_t *restrict len, int64_t n_items,     \
                           int64_t n_ranks, int64_t max_len,                 \
                           double *restrict out)                             \
{                                                                            \
    int64_t cap = fold_cap(max_len);                                         \
    double *buf = (double *)malloc((size_t)(4 * cap) * sizeof(double));      \
    double *s = (double *)calloc((size_t)(2 * n_ranks), sizeof(double));     \
    if (!buf || !s) { free(buf); free(s); return 1; }                        \
    double *c = s + n_ranks;                                                 \
    for (int64_t it = 0; it < n_items; it++) {                               \
        for (int64_t r = 0; r < n_ranks; r++)                                \
            FOLD(rows[it * n_ranks + r], len[it * n_ranks + r], buf, cap,    \
                 &s[r], &c[r]);                                              \
        out[it] = root_##name(s, c, n_ranks);                                \
    }                                                                        \
    free(buf); free(s);                                                      \
    return 0;                                                                \
}

ALGEBRA(st, st_merge, st_fold, result_s)
ALGEBRA(kahan, kahan_merge, kahan_fold, result_s)
ALGEBRA(kbn, kbn_merge, kbn_fold, result_sc)
ALGEBRA(cp, cp_merge, cp_fold, result_sc)
ALGEBRA(dd, dd_merge, dd_fold, result_sc)

/* Compensated sketch rows (repro.selection._statskernel).
 *
 * One read of each row yields max|x|, min{|x| : x != 0} and TwoSum-
 * compensated (hi, lo) sums of |x| and x.  Eight lanes: element j of the
 * row's first width - width % 8 elements feeds lane j % 8, the tail feeds
 * lane 0, and lanes 1..7 merge into lane 0 in order.  Each lane is the
 * sequential Sum2 chain hi, e = TwoSum(hi, v); lo = lo + e, so the hi
 * planes are exactly the plain lane sums.  Row-major output, six doubles
 * per row: max, min_nonzero, abs_hi, abs_lo, sum_hi, sum_lo.
 *
 * row_out (may be NULL) receives every row; item_out (may be NULL)
 * receives each item's StreamProfile.merge chain over its ranks[it] rows
 * from the empty sketch, in rank order (items are consecutive runs of
 * rows, so ragged rank counts and widths sketch in one call).
 */

#define LANES 8

/* The eight lanes as one generic vector (the sketch's and PR's fold's):
 * every lane op is the scalar IEEE op (no reassociation, no FMA under
 * -ffp-contract=off), so the compiler maps the lanes onto whatever SIMD
 * width the host has without changing a bit.  fabs is a sign-bit clear;
 * the selects are bit blends. */
typedef double lane_vd __attribute__((vector_size(8 * LANES)));
typedef int64_t lane_vl __attribute__((vector_size(8 * LANES)));

#define LANE_BLEND(mask, a, b) \
    ((lane_vd)(((lane_vl)(a) & (mask)) | ((lane_vl)(b) & ~(mask))))

static void sketch_row(const double *restrict row, int64_t n,
                       double *restrict o)
{
    const lane_vd zero = {0.0};
    const lane_vd inf = zero + INFINITY;
    const lane_vl absmask = (lane_vl){0} + INT64_MAX;
    lane_vd vsh = zero, vsl = zero, vah = zero, val = zero, vmx = zero;
    lane_vd vmn = inf;
    int64_t nb = n - n % LANES;
    for (int64_t j = 0; j < nb; j += LANES) {
        lane_vd v;
        memcpy(&v, row + j, sizeof v);
        lane_vd av = (lane_vd)((lane_vl)v & absmask);
        lane_vd s = vsh + v;
        lane_vd bb = s - vsh;
        vsl = vsl + ((vsh - (s - bb)) + (v - bb));
        vsh = s;
        lane_vd t = vah + av;
        lane_vd tb = t - vah;
        val = val + ((vah - (t - tb)) + (av - tb));
        vah = t;
        vmx = LANE_BLEND(av > vmx, av, vmx);
        lane_vd cand = LANE_BLEND(av > zero, av, inf);
        vmn = LANE_BLEND(cand < vmn, cand, vmn);
    }
    double sh[LANES], sl[LANES], ah[LANES],
           al[LANES], mx[LANES], mn[LANES];
    memcpy(sh, &vsh, sizeof sh); memcpy(sl, &vsl, sizeof sl);
    memcpy(ah, &vah, sizeof ah); memcpy(al, &val, sizeof al);
    memcpy(mx, &vmx, sizeof mx); memcpy(mn, &vmn, sizeof mn);
    for (int64_t j = nb; j < n; j++) {
        double v = row[j];
        double av = fabs(v);
        double s = sh[0] + v;
        double bb = s - sh[0];
        sl[0] = sl[0] + ((sh[0] - (s - bb)) + (v - bb));
        sh[0] = s;
        double t = ah[0] + av;
        double tb = t - ah[0];
        al[0] = al[0] + ((ah[0] - (t - tb)) + (av - tb));
        ah[0] = t;
        mx[0] = av > mx[0] ? av : mx[0];
        double cand = av > 0.0 ? av : INFINITY;
        mn[0] = cand < mn[0] ? cand : mn[0];
    }
    double SH = sh[0], SL = sl[0], AH = ah[0], AL = al[0];
    double MX = mx[0], MN = mn[0];
    for (int k = 1; k < LANES; k++) {
        double s = SH + sh[k];
        double bb = s - SH;
        SL = SL + (((SH - (s - bb)) + (sh[k] - bb)) + sl[k]);
        SH = s;
        double t = AH + ah[k];
        double tb = t - AH;
        AL = AL + (((AH - (t - tb)) + (ah[k] - tb)) + al[k]);
        AH = t;
        MX = mx[k] > MX ? mx[k] : MX;
        MN = mn[k] < MN ? mn[k] : MN;
    }
    o[0] = MX; o[1] = MN; o[2] = AH; o[3] = AL; o[4] = SH; o[5] = SL;
}

int sketch_rows(const double *const *restrict rows,
                const int64_t *restrict len, const int64_t *restrict ranks,
                int64_t n_items, double *restrict row_out,
                double *restrict item_out)
{
    int64_t idx = 0;
    for (int64_t it = 0; it < n_items; it++) {
        double MX = 0.0, MN = INFINITY, AH = 0.0, AL = 0.0, SH = 0.0, SL = 0.0;
        for (int64_t r = 0; r < ranks[it]; r++, idx++) {
            double o[6];
            sketch_row(rows[idx], len[idx], o);
            if (row_out)
                for (int p = 0; p < 6; p++) row_out[6 * idx + p] = o[p];
            MX = o[0] > MX ? o[0] : MX;
            MN = o[1] < MN ? o[1] : MN;
            double t = AH + o[2];
            double tb = t - AH;
            AL = AL + (((AH - (t - tb)) + (o[2] - tb)) + o[3]);
            AH = t;
            double s = SH + o[4];
            double bb = s - SH;
            SL = SL + (((SH - (s - bb)) + (o[4] - bb)) + o[5]);
            SH = s;
        }
        if (item_out) {
            double *io = item_out + 6 * it;
            io[0] = MX; io[1] = MN; io[2] = AH; io[3] = AL; io[4] = SH; io[5] = SL;
        }
    }
    return 0;
}

/* PR's fold (repro.summation.prerounded._fold_items).
 *
 * Per item, over its ranks[it] chunks: one max|x| pass (which also finds a
 * non-finite operand), the bin exponent E (or the capacity check against a
 * shared bin), then one pass that takes every operand through all K folds
 *
 *     y = r * 2**-g_f;  q = rint(y);  sums[f] += q;  r = r - q * 2**g_f
 *
 * with g_f = E - (f+1)*W and r = x at f = 0, the last residual dropped —
 * the op sequence of the NumPy add_array, so every q is the same.
 *
 * rint(y) is (y + 1.5*2**52) - 1.5*2**52: for |y| < 2**51 the sum lies in
 * [2**52, 2**53), where the spacing is 1, so the add rounds y to the
 * nearest integer, ties to even, and the subtract is exact.  |y| < 2**(W+1)
 * at fold 0 and <= 2**(W-1) after, so this holds at every W <= 50.  The
 * coefficients sum exactly in double lanes: |q| <= 2**(W+1), so a lane of
 * at most 2**(51-W) deposits stays an integer <= 2**52, and every lane is
 * flushed into the item's sums before it can hold more.  An item's sum is
 * kept as two words, a low uint64 and a high int64, with the carry made
 * explicit (no 128-bit integer type needed).
 *
 * Rows binned at E = 1023 (fold 0's q * 2**g may round up to 2**1024, not a
 * double: it is subtracted as two halves) and rows with a grid whose
 * 2**-g is not a double (a bin near the subnormal floor: scaled by ldexp)
 * take the scalar pr_deposit on every operand; so does each chunk's tail.
 *
 * exps[it] receives E; sums_lo/sums_hi[it*K + f] the low (unsigned) and
 * high words of fold f's sum.  Returns 0, 1 on allocation failure, 2 on a
 * non-finite operand, 3 on an operand beyond the shared bin (bin_set).
 */

#define PF_MAGIC 6755399441055744.0     /* 1.5 * 2**52 */

typedef struct {
    int64_t K, top;
    const int64_t *g;                   /* fold grids g_f */
    const double *down, *up;            /* 2**-g_f, 2**g_f (when doubles) */
} pf_grid;

static inline double pf_scale(double x, int64_t k, double pow2)
{
    return (k < -1023 || k > 1023) ? ldexp(x, (int)k) : x * pow2;
}

/* (hi, lo) += v: the two-word add of v sign-extended */
static inline void pf_add(uint64_t *lo, int64_t *hi, int64_t v)
{
    uint64_t s = *lo + (uint64_t)v;
    *hi += (v < 0 ? -1 : 0) + (s < *lo);
    *lo = s;
}

static inline void pr_deposit(double x, const pf_grid *gd, uint64_t *lo,
                              int64_t *hi)
{
    double r = x;
    for (int64_t f = 0; f < gd->K; f++) {
        double y = pf_scale(r, -gd->g[f], gd->down[f]);
        double q = (y + PF_MAGIC) - PF_MAGIC;
        pf_add(&lo[f], &hi[f], (int64_t)q);
        if (f + 1 == gd->K) break;
        if (f == 0 && gd->top) {
            double h = pf_scale(q * 0.5, gd->g[f], gd->up[f]);
            r = (r - h) - h;
        } else {
            r = r - pf_scale(q, gd->g[f], gd->up[f]);
        }
    }
}

static void pf_flush(lane_vd *acc, int64_t K, uint64_t *lo, int64_t *hi)
{
    for (int64_t f = 0; f < K; f++) {
        int64_t t = 0;                  /* eight lanes of <= 2**52 each */
        for (int l = 0; l < LANES; l++) t += (int64_t)acc[f][l];
        pf_add(&lo[f], &hi[f], t);
        acc[f] = (lane_vd){0.0};
    }
}

/* The vector pass over nb (a multiple of LANES) operands of a plain row:
 * all K folds of eight operands at a time into the lane sums acc. */
static inline __attribute__((always_inline)) void
pf_lanes(const double *restrict row, int64_t nb, int64_t K,
         const double *restrict down, const double *restrict up,
         lane_vd *restrict acc, uint64_t *restrict lo, int64_t *restrict hi,
         int64_t *deposits, int64_t cap)
{
    const lane_vd magic = (lane_vd){0.0} + PF_MAGIC;
    for (int64_t j = 0; j < nb; j += LANES) {
        lane_vd r;
        memcpy(&r, row + j, sizeof r);
        for (int64_t f = 0; f < K; f++) {
            lane_vd q = ((r * down[f]) + magic) - magic;
            acc[f] += q;
            r = r - q * up[f];
        }
        if (++*deposits == cap) { pf_flush(acc, K, lo, hi); *deposits = 0; }
    }
}

int pr_fold_rows(const double *const *restrict rows,
                 const int64_t *restrict len, const int64_t *restrict ranks,
                 int64_t n_items, int64_t K, int64_t W, int64_t bin,
                 int64_t bin_set, int64_t *restrict exps,
                 uint64_t *restrict sums_lo, int64_t *restrict sums_hi)
{
    /* K lane vectors on their own alignment, which malloc need not give */
    char *acc_mem = (char *)malloc((size_t)(K + 1) * sizeof(lane_vd));
    lane_vd *acc = (lane_vd *)(acc_mem + sizeof(lane_vd)
                               - (uintptr_t)acc_mem % sizeof(lane_vd));
    int64_t *g = (int64_t *)malloc((size_t)K * sizeof(int64_t));
    double *down = (double *)malloc((size_t)K * sizeof(double));
    double *up = (double *)malloc((size_t)K * sizeof(double));
    int status = (acc_mem && g && down && up) ? 0 : 1;
    const lane_vd zero = {0.0};
    const lane_vd finite = zero + 1.7976931348623157e308;
    const lane_vl absmask = (lane_vl){0} + INT64_MAX;
    const int64_t cap = (int64_t)1 << (51 - W);   /* deposits per lane */
    int64_t first = 0;
    for (int64_t it = 0; it < n_items && !status; first += ranks[it], it++) {
        const double *const *chunk = rows + first;
        const int64_t *clen = len + first;
        lane_vd vmx = zero;
        lane_vl bad = (lane_vl){0};
        double MX = 0.0;
        for (int64_t c = 0; c < ranks[it]; c++) {
            const double *row = chunk[c];
            int64_t n = clen[c], nb = n - n % LANES;
            for (int64_t j = 0; j < nb; j += LANES) {
                lane_vd v;
                memcpy(&v, row + j, sizeof v);
                lane_vd av = (lane_vd)((lane_vl)v & absmask);
                bad |= ~(av <= finite);           /* NaN or inf */
                vmx = LANE_BLEND(av > vmx, av, vmx);
            }
            for (int64_t j = nb; j < n; j++) {
                double av = fabs(row[j]);
                if (!(av <= 1.7976931348623157e308)) bad[0] = -1;
                MX = av > MX ? av : MX;
            }
        }
        for (int l = 0; l < LANES; l++) {
            if (bad[l]) status = 2;
            MX = vmx[l] > MX ? vmx[l] : MX;
        }
        if (status) break;
        int e = 0;
        if (MX > 0.0) frexp(MX, &e);
        int64_t E = MX > 0.0 ? e - 1 : 0;
        if (bin_set) {
            if (MX > 0.0 && E > bin) { status = 3; break; }
            E = bin;
        }
        exps[it] = E;
        uint64_t *lo = sums_lo + it * K;
        int64_t *hi = sums_hi + it * K;
        for (int64_t f = 0; f < K; f++) {
            g[f] = E - (f + 1) * W;
            down[f] = g[f] < -1023 ? 0.0 : ldexp(1.0, (int)-g[f]);
            up[f] = g[f] < -1023 ? 0.0 : ldexp(1.0, (int)g[f]);
            lo[f] = 0;
            hi[f] = 0;
            acc[f] = zero;
        }
        pf_grid gd = {K, E == 1023, g, down, up};
        int plain = E < 1023 && g[K - 1] >= -1023;
        int64_t deposits = 0;
        for (int64_t c = 0; MX > 0.0 && c < ranks[it]; c++) {
            const double *row = chunk[c];
            int64_t n = clen[c], nb = plain ? n - n % LANES : 0;
            if (K == 3)     /* PR's default fold count: acc in registers */
                pf_lanes(row, nb, 3, down, up, acc, lo, hi, &deposits, cap);
            else
                pf_lanes(row, nb, K, down, up, acc, lo, hi, &deposits, cap);
            for (int64_t j = nb; j < n; j++) pr_deposit(row[j], &gd, lo, hi);
        }
        pf_flush(acc, K, lo, hi);
    }
    free(acc_mem); free(g); free(down); free(up);
    return status;
}
"""

#: accumulator algebra tag (``VectorOps.ckernel``) -> state component count
_ALGEBRAS = {"st": 1, "kahan": 2, "kbn": 2, "cp": 2, "dd": 2}

_PTR_F8 = ctypes.POINTER(ctypes.c_double)
_PTR_I8 = ctypes.POINTER(ctypes.c_int64)
_PTR_TABLE = ctypes.POINTER(ctypes.c_void_p)  # a tick block's chunk pointers
_I8 = ctypes.c_int64

#: kernel family (the ``kernel`` label of the fallback counter) -> C name
#: prefix and argtypes; every family has one kernel per algebra,
#: ``<prefix><tag>`` (see the C comment above ``ALGEBRA``)
_FAMILIES = {
    "sweep": ("balanced_sweep_", [_PTR_F8, _PTR_I8, _I8, _I8, _PTR_F8]),
    "fold": ("fold_", [_PTR_TABLE, _PTR_I8, _I8, _I8, _PTR_F8, _PTR_F8]),
    "reduce": ("reduce_balanced_", [_PTR_TABLE, _PTR_I8, _I8, _I8, _I8, _PTR_F8]),
}

_lock = threading.Lock()
_lib: Optional[ctypes.CDLL] = None
_load_attempted = False

_OBS = get_registry()


def _record_compile_event(outcome: str) -> None:
    """Count one kernel-load outcome (compiled / reused / gated / ...).

    Load happens once per process, so enabling metrics *before* the first
    kernel-using call is what captures the event; the counter exists so
    a serving snapshot can state which fast-path tier the process runs on.
    """
    if _OBS.enabled:
        _OBS.counter("repro_ckernels_compile_events_total", outcome=outcome).inc()


def _count_stale_kernels(cache_dir: str, so_path: str) -> int:
    """Cached kernels whose content digest no longer matches this build."""
    try:
        entries = sorted(os.listdir(cache_dir))
    except OSError:
        return 0
    want = os.path.basename(so_path)
    return sum(
        1
        for name in entries
        if name.startswith("balanced-") and name.endswith(".so") and name != want
    )


def _compile_library() -> Optional[ctypes.CDLL]:
    """Compile (or reuse) the kernel shared object; None on any failure."""
    # Build gate only: disabling C kernels falls back to the Python fold the
    # kernels are digest-verified bitwise-equal to.
    # repro: allow[FP009] -- build gate, fallback is bitwise-equal
    if os.environ.get("REPRO_NO_CKERNELS"):
        _record_compile_event("gated")
        return None
    cc = shutil.which("cc") or shutil.which("gcc") or shutil.which("clang")
    if cc is None:
        _record_compile_event("no_compiler")
        return None
    # -ffp-contract=off: no FMA contraction; every rounding in the source
    # happens exactly as written, matching NumPy.  -O3/-march=native only
    # widen the SIMD lanes of the elementwise level loops (identical
    # per-element IEEE ops); sequential FP reductions are never reassociated
    # without -ffast-math, so results stay bitwise.  The alignment flags pin
    # every function and loop to a 64-byte boundary, so a kernel's speed
    # does not move when code elsewhere in the build grows or shrinks.
    flags = [
        "-O3", "-march=native", "-fPIC", "-shared", "-ffp-contract=off",
        "-falign-functions=64", "-falign-loops=64",
    ]
    digest = hashlib.blake2b(
        (_C_SOURCE + "\0" + " ".join(flags)).encode(), digest_size=16
    ).hexdigest()
    # Cache *location* only; the kernel loaded from any directory is the same
    # digest-addressed, bitwise-verified object.
    # repro: allow[FP009] -- cache path knob, kernel bytes digest-pinned
    cache_dir = os.environ.get("REPRO_CKERNEL_CACHE") or os.path.join(
        tempfile.gettempdir(), "repro-ckernels"
    )
    so_path = os.path.join(cache_dir, f"balanced-{digest}.so")
    try:
        if not os.path.exists(so_path):
            # any cached kernels under other digests were built from a
            # different source/flag set: record the mismatch so snapshots
            # can explain a surprise recompile in a warmed environment
            stale = _count_stale_kernels(cache_dir, so_path)
            if stale and _OBS.enabled:
                _OBS.counter("repro_ckernels_digest_mismatch_total").inc(stale)
            outcome = "compiled"
            os.makedirs(cache_dir, exist_ok=True)
            with tempfile.TemporaryDirectory(dir=cache_dir) as td:
                src = os.path.join(td, "kernels.c")
                with open(src, "w") as f:
                    f.write(_C_SOURCE)
                tmp_so = os.path.join(td, "kernels.so")
                try:
                    subprocess.run(
                        [cc, *flags, src, "-o", tmp_so],
                        check=True,
                        capture_output=True,
                        timeout=120,
                    )
                except subprocess.CalledProcessError:
                    # some toolchains lack -march=native (e.g. cross cc)
                    # or the alignment flags
                    safe = [
                        f for f in flags
                        if f != "-march=native" and not f.startswith("-falign")
                    ]
                    subprocess.run(
                        [cc, *safe, src, "-o", tmp_so],
                        check=True,
                        capture_output=True,
                        timeout=120,
                    )
                os.replace(tmp_so, so_path)  # atomic within cache_dir
        else:
            outcome = "reused"
        lib = ctypes.CDLL(so_path)
    except (OSError, subprocess.SubprocessError):
        _record_compile_event("failed")
        return None
    _record_compile_event(outcome)
    for prefix, argtypes in _FAMILIES.values():
        for tag in _ALGEBRAS:
            fn = getattr(lib, prefix + tag)
            fn.argtypes = argtypes
            fn.restype = ctypes.c_int
    lib.sketch_rows.argtypes = [
        _PTR_TABLE,
        _PTR_I8,
        _PTR_I8,  # per-item rank counts
        _I8,
        ctypes.c_void_p,  # row planes (NULL: not wanted)
        ctypes.c_void_p,  # item planes (NULL: not wanted)
    ]
    lib.sketch_rows.restype = ctypes.c_int
    lib.pr_fold_rows.argtypes = [
        _PTR_TABLE,
        _PTR_I8,
        _PTR_I8,  # per-item rank counts
        _I8,
        _I8,  # folds
        _I8,  # fold width
        _I8,  # shared bin exponent
        _I8,  # 1 when the bin is shared
        _PTR_I8,
        ctypes.c_void_p,  # low words of the fold sums
        _PTR_I8,  # high words
    ]
    lib.pr_fold_rows.restype = ctypes.c_int
    return lib


def _get_lib() -> Optional[ctypes.CDLL]:
    global _lib, _load_attempted
    if not _load_attempted:
        with _lock:
            if not _load_attempted:
                _lib = _compile_library()
                _load_attempted = True
    return _lib


def kernels_available() -> bool:
    """True when the compiled kernels loaded (compiler present, not gated)."""
    return _get_lib() is not None


def has_kernel(vops, family: str = "sweep") -> bool:
    """True when ``vops``'s algebra has compiled kernels and they load.

    ``family`` names the caller's kernel (``"sweep"``, ``"fold"`` or
    ``"reduce"``) on the fallback counter; every algebra has all three.
    PR's fold has no algebra: ``has_kernel(None, "pr_fold")``.
    """
    advertised = family == "pr_fold" or getattr(vops, "ckernel", None) in _ALGEBRAS
    available = advertised and _get_lib() is not None
    if advertised and not available and _OBS.enabled:
        # the algebra *would* run compiled but can't: a NumPy fallback
        # activation (gated, no compiler, or compile/load failure)
        _OBS.counter("repro_ckernels_fallback_total", kernel=family).inc()
    return available


def _kernel(family: str, vops):
    """The compiled ``family`` kernel of ``vops``'s algebra."""
    lib = _get_lib()
    assert lib is not None, "compiled kernels not available"
    return getattr(lib, _FAMILIES[family][0] + vops.ckernel)


def _sweep(data: np.ndarray, idx, n_rows: int, n: int, vops,
           out: Optional[np.ndarray]) -> np.ndarray:
    if out is None:
        out = np.empty(n_rows, dtype=np.float64)
    status = _kernel("sweep", vops)(
        data.ctypes.data_as(_PTR_F8),
        _PTR_I8() if idx is None else idx.ctypes.data_as(_PTR_I8),
        n_rows,
        n,
        out.ctypes.data_as(_PTR_F8),
    )
    if status != 0:  # pragma: no cover - allocation failure
        raise MemoryError("balanced_sweep scratch allocation failed")
    return out


def sweep_matrix(mat: np.ndarray, vops, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Balanced-tree values of every row of a ``(P, n)`` operand matrix.

    Bitwise-equal to the NumPy ``balanced_ensemble_vops`` sweep; requires
    ``has_kernel(vops)`` and ``n >= 2``.
    """
    mat = np.ascontiguousarray(mat, dtype=np.float64)
    return _sweep(mat, None, *mat.shape, vops, out)


def sweep_indexed(
    data: np.ndarray,
    idx: np.ndarray,
    vops,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Like :func:`sweep_matrix` but row r's leaves are ``data[idx[r]]``.

    The leaf gather happens inside the kernel, so the permuted operand
    matrix is never materialised.  Indices are **not** bounds-checked here;
    callers validate untrusted index matrices up front.
    """
    data = np.ascontiguousarray(data, dtype=np.float64)
    idx = np.ascontiguousarray(idx, dtype=np.int64)
    return _sweep(data, idx, *idx.shape, vops, out)


def fold_block(block, vops) -> tuple:
    """Rank-local states of every chunk of a tick block in one kernel call.

    ``block`` is a :class:`repro.util.tickblock.TickBlock`; its chunks are
    read in place through the block's pointer table.  The compiled
    counterpart of :meth:`repro.summation.base.VectorOps.fold`: returns the
    component tuple of ``(n_chunks,)`` arrays, each row bitwise-equal to the
    algorithm's accumulator fed that chunk.  Requires
    ``has_kernel(vops, "fold")``.
    """
    lengths = block.lens
    outs = tuple(
        np.empty(lengths.size, dtype=np.float64)
        for _ in range(_ALGEBRAS[vops.ckernel])
    )
    status = _kernel("fold", vops)(
        block.ptrs.ctypes.data_as(_PTR_TABLE),
        lengths.ctypes.data_as(_PTR_I8),
        int(lengths.size),
        block.max_len,
        outs[0].ctypes.data_as(_PTR_F8),
        outs[-1].ctypes.data_as(_PTR_F8),
    )
    if status != 0:  # pragma: no cover - allocation failure
        raise MemoryError("fold scratch allocation failed")
    return outs


def reduce_block(block, vops, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Balanced rank-tree values of every item of a tick block in one
    fused kernel call.

    Every item must have the same rank count.  Each item folds its rank
    chunks to accumulator states and collapses them through the balanced
    reduction tree inside the kernel.  Bitwise-equal to :func:`fold_block`
    + ``compile_tree(balanced(n_ranks)).reduce_states`` + ``vops.result``;
    requires ``has_kernel(vops, "reduce")``.  ``out`` (when given) must be a
    contiguous float64 vector of ``len(block)``.
    """
    n_items = len(block)
    if out is None:
        out = np.empty(n_items, dtype=np.float64)
    elif out.dtype != np.float64 or not out.flags.c_contiguous or out.size != n_items:
        raise ValueError("out must be a contiguous float64 vector of n_items")
    if n_items == 0:
        return out
    n_ranks = int(block.ranks[0])
    if n_ranks <= 0 or (block.ranks != n_ranks).any():
        raise ValueError("every item needs the same positive rank count")
    status = _kernel("reduce", vops)(
        block.ptrs.ctypes.data_as(_PTR_TABLE),
        block.lens.ctypes.data_as(_PTR_I8),
        n_items,
        n_ranks,
        block.max_len,
        out.ctypes.data_as(_PTR_F8),
    )
    if status != 0:  # pragma: no cover - allocation failure
        raise MemoryError("reduce_balanced scratch allocation failed")
    return out


def sketch_planes(block, rows: bool, items: bool):
    """Compiled compensated sketch of every chunk of a tick block.

    Returns ``(row_planes, item_planes)``: ``(n_chunks, 6)`` and
    ``(n_items, 6)`` float64 arrays (or ``None`` when not asked for) with
    columns ``max, min_nonzero, abs_hi, abs_lo, sum_hi, sum_lo`` — see the
    ``sketch_rows`` C comment for the lane order.  Ragged widths and rank
    counts sketch in the same call; requires :func:`kernels_available`.
    """
    lib = _get_lib()
    assert lib is not None, "compiled kernels not available"
    row_out = np.empty((block.lens.size, 6)) if rows else None
    item_out = np.empty((len(block), 6)) if items else None
    lib.sketch_rows(
        block.ptrs.ctypes.data_as(_PTR_TABLE),
        block.lens.ctypes.data_as(_PTR_I8),
        block.ranks.ctypes.data_as(_PTR_I8),
        len(block),
        None if row_out is None else row_out.ctypes.data,
        None if item_out is None else item_out.ctypes.data,
    )
    return row_out, item_out


def pr_fold(block, folds: int, fold_width: int, bin_exponent: Optional[int]):
    """PR's bin exponent and exact fold sums of every item of a tick block.

    Returns ``(exps, sums)``: item ``i`` is binned at ``exps[i]`` and
    ``sums[i][j]`` is the exact integer sum of its fold-``j`` coefficients
    -- bitwise what the NumPy ``PreroundedAccumulator.add_array`` of
    :mod:`repro.summation.prerounded` deposits per item (see the
    ``pr_fold_rows`` C comment).  Each item's chunks are read in place
    through the block's pointer table.  ``bin_exponent=None`` bins every
    item at its own largest magnitude; otherwise all share it.  Raises
    ``ValueError`` on a non-finite operand or one beyond the shared bin, for
    the first faulty item; requires ``has_kernel(None, "pr_fold")``.
    """
    lib = _get_lib()
    assert lib is not None, "compiled kernels not available"
    if folds < 1 or not 2 <= fold_width <= 50:  # the C extraction's range
        raise ValueError("pr_fold needs folds >= 1 and fold_width in [2, 50]")
    n_items = len(block)
    exps = np.empty(n_items, dtype=np.int64)
    lo = np.empty((n_items, folds), dtype=np.uint64)
    hi = np.empty((n_items, folds), dtype=np.int64)
    status = lib.pr_fold_rows(
        block.ptrs.ctypes.data_as(_PTR_TABLE),
        block.lens.ctypes.data_as(_PTR_I8),
        block.ranks.ctypes.data_as(_PTR_I8),
        n_items,
        folds,
        fold_width,
        0 if bin_exponent is None else bin_exponent,
        bin_exponent is not None,
        exps.ctypes.data_as(_PTR_I8),
        lo.ctypes.data,
        hi.ctypes.data_as(_PTR_I8),
    )
    if status == 2:
        raise ValueError("cannot accumulate non-finite values")
    if status == 3:
        raise ValueError("operand exceeds bin capacity; bad global max")
    if status != 0:  # pragma: no cover - allocation failure
        raise MemoryError("pr_fold scratch allocation failed")
    low = lo.view(np.int64)
    if (hi == low >> 63).all():  # every sum fits one int64
        return exps.tolist(), low.tolist()
    return exps.tolist(), [
        [(h << 64) | l for h, l in zip(hs, ls)] for hs, ls in zip(hi.tolist(), lo.tolist())
    ]
