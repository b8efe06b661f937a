/* Compiled lane of the kernel layer: _corepy.fold_multiply,
   _corepy.fold_trials and _corepy.bernoulli_bits in C.

   fold_multiply(a, b, m, k) takes and returns what the pure lane does and
   runs the same schedule, so products and ledgers are identical. It loads
   its operands, through the cache below, and fold_body builds the copies
   of A and runs accumulate, combine and Horner for it and for
   fold_trials; the phases are written nowhere else.

   Numbers are arrays of 32-bit limbs, lowest first, each held in a 64-bit
   lane. add_shifted adds x << s, 0 <= s < 32, to a run of lanes, reading
   each shifted limb from its two source limbs with no carry from the limb
   before, so the loop vectorises. It builds copies 1..31 of A, each
   shifted by its index, in the zeroed copy buffer (copy 0 is A; each copy
   is len(A) + 1 limbs), and column i's accumulate step adds copy i % 32
   at limb i / 32 of its cell: no column shifts a full-width copy of A
   (the classical multiprecision add, Knuth, TAOCP Vol. 2, 4.3.1).
   Accumulate and combine add lane by lane and leave the carries in the
   lanes' upper halves; Horner resolves each part cell once and adds it
   into the product with add_shifted.

   Those loops are written once, in the always-inline fold_body, and
   compiled into one fold routine per instruction set: fold_baseline for
   the build's, and on x86-64 gcc and clang fold_avx512f and fold_avx2,
   whose lane adds run 8 or 4 lanes to a vector where the baseline runs 2.
   Module init picks the wide routine once, from __builtin_cpu_supports,
   and exports its name as SIMD ("avx512f", "avx2", or "baseline" where
   the CPU has neither or the build has no wide routines). A fold whose
   copies of A hold at least WIDE_LANES = 16 lanes (A over 448 bits) runs
   the wide routine. That is the measured crossover: on a 2-CPU AVX-512
   x86-64 host (gcc 12, fold_trials and fold_multiply at k = 1, 3, 5 and
   8, both routines loaded in one process) the AVX-512F routine took
   1.0-1.2x the baseline's time at 3-7 lanes, 0.8-1.04x at 9-15 and
   0.69-0.87x from 16 lanes up, and the AVX2 routine 0.84-1.03x at 9-15
   and 0.76-0.87x from 16 up. So every oracle-sized fold, m <= 256, runs
   fold_baseline, through the same direct call as a build with no wide
   routines. Every routine runs the same adds in the same order, so its
   tuples are the baseline's. Each fold zeroes what it writes, unless its
   buffer came zeroed from PyMem_Calloc.

   fold_multiply folds in a static region of KEEP_BYTES, 1 MiB, that
   outlives the call; it lives in .bss, so its pages enter RSS only once a
   fold writes them. Its front holds the 32 shifted copies of the last
   multiplicand, and the next region the last multiplier's bytes, which
   each call pads with zeros as far as its accumulate reads; the call's
   working set follows, and each call zeroes only that. A call whose a is
   the very int object the copies were built from reuses them, and one
   whose b is the very int object of the kept bytes reuses those:
   criterion 1's folds of one pair at k = 1..8 and its two baselines read
   and shift the multiplicand once. a's width places b's region, so a
   rebuilt multiplicand drops the kept multiplier too. Only exact ints are
   cached, each held by a strong reference: an int is immutable, so
   identity implies value, and dropping one runs no __del__ while the
   region is in use. A cache is invalidated before its region is rebuilt
   and set only once the rebuild is done. A fold that needs more than
   1 MiB drops both operands and runs in a zeroed buffer of its own from
   PyMem_Calloc, which tracemalloc sees, as it sees fold_trials' buffer.
   Its untouched pages stay out of RSS, as a sparsely filled bank's mostly
   do, and it is freed on every return, so a 2**24-bit multiply still
   returns its ~150 MB; between calls only the 1 MiB region stays. Under
   AddressSanitizer the region past the call's working set is poisoned,
   so an overrun traps as one past an exact-size allocation would. The
   region takes no lock: that is safe only because fold_multiply never
   releases the GIL.

   fold_trials(seed, m, k, trials) runs a sweep point in one call. It
   lays out a buffer of its own once, for two m-bit operands, and zeroes
   what each trial's fold writes; trial t draws the two m-bit values a
   fresh numpy.random.default_rng([seed, m, k, t]) gives, from the stream
   below, straight into copy 0 and b_bytes and runs fold_body, the
   product's resolved limbs included; only the product int is never
   built. A narrower draw's zero top words change no count,
   peak or residue. It returns the accumulate, combine and Horner counts
   summed over the trials, the sum of the squared totals and the sum of
   the products mod 2**32 - 1, each kept in an unsigned __int128. The
   counts depend on the multiplier alone; the residue, the sum of the
   product's resolved limbs folded once, is what lets the lane-parity
   tests see the multiplicand's half of a trial. It calls
   PyErr_CheckSignals between trials, so Ctrl-C stops a long point, and
   frees its buffer on every return; a signal handler that folds uses
   buffers of its own, so the kept operands outlive the call.

   Accumulate reads the column patterns 8 columns at a time and keeps
   none of them past its step: it takes one byte of each part, 8 parts
   to a 64-bit word, and one 8 x 8 bit transpose per word gives each
   column its pattern byte (Warren, Hacker's Delight, 7-3). The OR of the
   parts' bytes names the columns with a nonzero pattern, and only those
   add. B is held zero-padded past the last byte accumulate reads, so a
   byte is read from any part at any bit offset.

   The n columns fill at most n of the 2**k - 1 cells, so each cell has a
   filled byte: accumulate sets it, and a combine add, which runs only
   when its source cell is filled, sets it on both destinations. A
   skipped add would have added zero, so combine still counts every add
   of the schedule, 2**(k+1) - 2k - 2, as _corepy does. The peak is the
   widest part cell 2**j: a cell v with top bit t, not a power of two, is
   final before round t + 1 adds it into cell 2**t, which no later round
   writes, and cells are non-negative, so v <= cell 2**t. _corepy, which
   measures every cell, checks this in the lane-parity tests.

   Every cell holds a sum of distinct accumulate terms, so it stays below
   A * 2**n and fits len(A) + ceil(n / 32) limbs, and each of its lanes
   sums at most n limbs, which fits 64 bits for m < 2**32.

   The stream fold_trials draws from is numpy's own
   (numpy/random/bit_generator.pyx, numpy/random/src/pcg64), for the
   entropy (seed, m, k, t):
   - SeedSequence: each entropy entry, a non-negative int, is split into
     32-bit words lowest first (0 is one zero word), so the entropy has at
     least 4 words. The first 4 are hashed into a 4-word pool, every pool
     word is mixed with the hash of every other one, and each later word
     is hashed and mixed into every pool word. generate_state hashes
     the pool, cycled, into 8 words: 4 little-endian uint64 s0..s3. The
     hashmix/mix constants are those of O'Neill's seed_seq_fe.
   - PCG64 (O'Neill, "PCG: A Family of Simple Fast Space-Efficient
     Statistically Good Algorithms for Random Number Generation", 2014):
     a 128-bit LCG with inc = (s2 << 64 | s3) << 1 | 1, seeded as state =
     0, step, state += s0 << 64 | s1, step. Each output steps the state
     and returns its XSL-RR permutation: high half XOR low half, rotated
     right by the state's top 6 bits. The state is an unsigned __int128,
     so the module needs a 64-bit gcc or clang; where it does not build,
     setup.py installs without it and the pure lane runs.
   Generator.bytes keeps the little-endian bytes of those outputs, so
   value i is the i-th run of ceil(m / 32) 32-bit words masked to m bits,
   the rule _corepy.draw_bits applies in Python. next_word reads that
   stream word by word, low half of each output first.

   bernoulli_bits(rng, b, delta) draws from rng the b doubles rng.random(b)
   would: it calls the next_double of rng.bit_generator's public
   "BitGenerator" capsule b times, holding the bit generator's lock and not
   the GIL, as Generator.random does. So on every numpy bit generator the
   value and the state left behind are the pure lane's, and the draw needs
   b / 8 bytes from PyMem_Malloc, which tracemalloc sees, where the pure
   lane holds a float64 and a bool per bit.
   density.bernoulli_block, its one caller, checks that rng is a numpy
   Generator, as folding.multiply checks fold_multiply's operands; here an
   rng without those attributes raises AttributeError, and a capsule of
   another name ValueError, before any draw.

   fold_multiply, fold_trials and bernoulli_bits are vectorcall entry
   points (METH_FASTCALL, PEP 590): each reads its arguments from the
   caller's array, and the folds build their results with PyTuple_New, so
   a call makes no argument tuple and parses no format string. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>

/* AddressSanitizer's poisoning calls where it instruments the build, and
   no-ops elsewhere */
#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#include <sanitizer/asan_interface.h>
#endif
#endif
#ifndef ASAN_POISON_MEMORY_REGION
#define ASAN_POISON_MEMORY_REGION(p, size) ((void)(p), (void)(size))
#define ASAN_UNPOISON_MEMORY_REGION(p, size) ((void)(p), (void)(size))
#endif

/* costmodel.K_CEILING, exported as K_CEILING for the tests to compare: above
   it 2**k cells alone outgrow the accumulator bank budget */
#define K_CEILING 27

typedef uint64_t lane;

/* Inlined wherever it is called, even into a wide fold routine below, so
   its loops are compiled for the routine's instruction set */
#define ALWAYS_INLINE static inline __attribute__((always_inline))

#define LIMB_MASK 0xFFFFFFFFu

static uint32_t
load_le32(const unsigned char *p)
{
    return (uint32_t)p[0] | (uint32_t)p[1] << 8 | (uint32_t)p[2] << 16
           | (uint32_t)p[3] << 24;
}

static void
store_le32(unsigned char *p, uint32_t x)
{
    p[0] = (unsigned char)x;
    p[1] = (unsigned char)(x >> 8);
    p[2] = (unsigned char)(x >> 16);
    p[3] = (unsigned char)(x >> 24);
}

/* dst[0 .. len) += src[0 .. len), lane by lane */
ALWAYS_INLINE void
add_lanes(lane *restrict dst, const lane *restrict src, size_t len)
{
    for (size_t t = 0; t < len; t++)
        dst[t] += src[t];
}

/* dst[0 .. len] += x[0 .. len) << s, lane by lane, for resolved limbs x
   and 0 <= s < 32; each limb reads its two source limbs and carries
   nothing to the next, so the loop vectorises */
ALWAYS_INLINE void
add_shifted(lane *restrict dst, const lane *restrict x, size_t len,
            unsigned s)
{
    if (!len)
        return;
    dst[0] += x[0] << s & LIMB_MASK;
    for (size_t t = 1; t < len; t++)
        dst[t] += (x[t] << s & LIMB_MASK) | x[t - 1] << s >> 32;
    dst[len] += x[len - 1] << s >> 32;
}

/* The 8 bits of b from bit pos up; b holds at least pos / 8 + 2 bytes */
ALWAYS_INLINE unsigned
bits8(const unsigned char *b, size_t pos)
{
    return (unsigned)(b[pos / 8] | b[pos / 8 + 1] << 8) >> pos % 8 & 0xFF;
}

/* The 8 x 8 bit matrix x, bit 8r + c holding row r, column c, transposed:
   three rounds of masked swaps of 2 x 2, 4 x 4 and 8 x 8 blocks (Warren,
   Hacker's Delight, 7-3) */
ALWAYS_INLINE uint64_t
transpose8(uint64_t x)
{
    x = (x & UINT64_C(0xAA55AA55AA55AA55))
        | (x & UINT64_C(0x00AA00AA00AA00AA)) << 7
        | (x >> 7 & UINT64_C(0x00AA00AA00AA00AA));
    x = (x & UINT64_C(0xCCCC3333CCCC3333))
        | (x & UINT64_C(0x0000CCCC0000CCCC)) << 14
        | (x >> 14 & UINT64_C(0x0000CCCC0000CCCC));
    return (x & UINT64_C(0xF0F0F0F00F0F0F0F))
           | (x & UINT64_C(0x00000000F0F0F0F0)) << 28
           | (x >> 28 & UINT64_C(0x00000000F0F0F0F0));
}

/* Carry each lane's upper half into the next lane, leaving one limb per
   lane; the value must fit len limbs */
ALWAYS_INLINE void
resolve(lane *x, size_t len)
{
    lane carry = 0;
    for (size_t t = 0; t < len; t++) {
        carry += x[t];
        x[t] = carry & LIMB_MASK;
        carry >>= 32;
    }
}

/* Bit length of resolved limbs x[0 .. len) */
ALWAYS_INLINE Py_ssize_t
bit_length(const lane *x, size_t len)
{
    while (len && !x[len - 1])
        len--;
    return len ? 32 * (Py_ssize_t)len + 32 - __builtin_clzll(x[len - 1]) : 0;
}

/* Bit width of an operand: -1 with ValueError set unless 0 <= x < 2**m */
static Py_ssize_t
operand_bits(PyObject *x, const char *name, Py_ssize_t m)
{
    if (_PyLong_Sign(x) < 0) {
        PyErr_Format(PyExc_ValueError, "%s must be >= 0", name);
        return -1;
    }
    size_t bits = _PyLong_NumBits(x);
    if (bits == (size_t)-1 && PyErr_Occurred())
        return -1;
    if (bits > (size_t)m) {
        PyErr_Format(PyExc_ValueError, "%s has %zu bits, exceeds m = %zd",
                     name, bits, m);
        return -1;
    }
    return (Py_ssize_t)bits;
}

/* x, checked by operand_bits, as len little-endian bytes */
static int
read_bytes(PyObject *x, unsigned char *out, size_t len)
{
    return len ? _PyLong_AsByteArray((PyLongObject *)x, out, len, 1, 0
#if PY_VERSION_HEX >= 0x030D0000
                                     , 1
#endif
                                     ) : 0;
}

/* *total += count * size, or -1 if that overflows size_t; the builtins
   test for overflow with no division, which costs as much as a small
   fold's set-up */
static int
reserve(size_t *total, size_t count, size_t size)
{
    size_t bytes;
    return __builtin_mul_overflow(count, size, &bytes)
           || __builtin_add_overflow(*total, bytes, total) ? -1 : 0;
}

/* The entry points check their arguments as PyArg_ParseTuple did, with
   the same exception types: TypeError for a wrong count or an operand that
   is not an int (a bool or other int subclass passes, as "O!" with
   PyLong_Type passed), TypeError for a size without __index__ and
   OverflowError for one past Py_ssize_t. */

/* 0, or -1 with TypeError set unless nargs == want */
static int
check_nargs(const char *func, Py_ssize_t nargs, Py_ssize_t want)
{
    if (nargs == want)
        return 0;
    PyErr_Format(PyExc_TypeError, "%s() takes exactly %zd arguments "
                 "(%zd given)", func, want, nargs);
    return -1;
}

/* 0, or -1 with TypeError set unless args[i] is an int */
static int
int_arg(const char *func, PyObject *const *args, int i)
{
    if (PyLong_Check(args[i]))
        return 0;
    PyErr_Format(PyExc_TypeError, "%s() argument %d must be int, not %.50s",
                 func, i + 1, Py_TYPE(args[i])->tp_name);
    return -1;
}

/* *out = x through __index__, as "n" read it: 0, or -1 with an exception
   set */
static int
ssize_arg(PyObject *x, Py_ssize_t *out)
{
    *out = PyNumber_AsSsize_t(x, PyExc_OverflowError);
    return *out == -1 && PyErr_Occurred() ? -1 : 0;
}

/* fold_multiply's kept region (see the header), where every fold of at
   most KEEP_BYTES runs. Its front holds COPY_SLOTS slots of la + 1 lanes,
   the copies of cached_a, and b_bytes after them holds cached_b; a cache
   is NULL when its region holds nothing reusable. No lock guards it:
   fold_multiply never releases the GIL and runs no Python code while the
   region is in use, so no other call reaches it. */
#define COPY_SLOTS 32
#define KEEP_BYTES ((size_t)1 << 20)
static lane kept[KEEP_BYTES / sizeof(lane)];
static PyObject *cached_a, *cached_b;

static void
drop_kept(void)
{
    Py_CLEAR(cached_a);
    Py_CLEAR(cached_b);
}

/* 0, or -1 with ValueError set unless 1 <= k <= K_CEILING and
   1 <= m < 2**32 */
static int
check_shape(Py_ssize_t m, Py_ssize_t k)
{
    if (k < 1 || k > K_CEILING) {
        PyErr_Format(PyExc_ValueError, "k must be in 1..%d, got %zd",
                     K_CEILING, k);
        return -1;
    }
    if (m < 1 || (uint64_t)m >> 32) {
        PyErr_Format(PyExc_ValueError, "m must be in 1..2**32 - 1, got %zd",
                     m);
        return -1;
    }
    return 0;
}

/* One fold's sizes, and where plan_fold and place_fold put its regions in
   its buffer: the copies of A, b_bytes, then the working set */
typedef struct {
    Py_ssize_t k;
    size_t n, la, b_len, ncols, nparts, b_pad, cell_len, prod_len;
    size_t b_lanes, total;
    lane *copies, *cells, *prod;
    unsigned char *b_bytes, *filled;
} fold;

/* f's sizes for operands of a_bits and b_bits bits: 0, or -1 if its
   buffer would pass SIZE_MAX. fold_multiply plans at its operands' widths
   and fold_trials at m for both; there b_pad >= m / 8 + 2, which rounded
   up to whole lanes holds all 4 * la bytes of b's drawn words */
static int
plan_fold(fold *f, Py_ssize_t m, Py_ssize_t k, size_t a_bits, size_t b_bits)
{
    size_t n = (size_t)(m / k + (m % k != 0));
    f->k = k;
    f->n = n;
    f->la = (a_bits + 31) / 32;
    f->b_len = (b_bits + 7) / 8;
    /* accumulate reads the first ncols columns of the nparts parts that
       start below b_bits: bits8 at pos < last + ncols, with last the top
       such part's offset, which reads bytes pos / 8 and pos / 8 + 1. So b
       is held zero-padded to b_pad bytes */
    f->ncols = b_bits < n ? b_bits : n;
    f->nparts = (b_bits + n - 1) / n;
    size_t last = f->nparts ? (f->nparts - 1) * n : 0;
    f->b_pad = (last + f->ncols) / 8 + 2;
    f->cell_len = f->la + (n + 31) / 32;
    /* Horner adds cell_len + 1 limbs at limb (k - 1) * n / 32 at most */
    f->prod_len = (size_t)(k - 1) * n / 32 + f->cell_len + 1;
    f->b_lanes = (f->b_pad + 7) / 8;
    /* copies, then b_bytes in whole lanes, then the working set */
    f->total = COPY_SLOTS * (f->la + 1) * sizeof(lane);
    return reserve(&f->total, f->b_lanes, sizeof(lane)) < 0
           || reserve(&f->total, (size_t)1 << k,
                      f->cell_len * sizeof(lane)) < 0
           || reserve(&f->total, f->prod_len, sizeof(lane)) < 0
           || reserve(&f->total, (size_t)1 << k, 1) < 0 ? -1 : 0;
}

/* Point f's regions into mem, which holds f->total bytes */
static void
place_fold(fold *f, unsigned char *mem)
{
    f->copies = (lane *)mem;
    f->b_bytes = (unsigned char *)(f->copies + COPY_SLOTS * (f->la + 1));
    f->cells = (lane *)(f->b_bytes + f->b_lanes * sizeof(lane));
    f->prod = f->cells + ((size_t)1 << f->k) * f->cell_len;
    f->filled = (unsigned char *)(f->prod + f->prod_len);
}

/* A fold's ledger counts: accumulate and combine adds, peak_cell_bits */
typedef struct {
    Py_ssize_t acc, comb, peak;
} fold_counts;

/* One fold over copy 0 of A, whose top lane is zero, and b's b_len bytes,
   which it pads with zeros to b_pad: prod ends as the product's resolved
   limbs. With build set it first builds copies 1 .. COPY_SLOTS - 1 of A,
   each shifted by its index; column i reads copy i % 32, so copies n and
   above go unread where n < 32, and there each copy is at most 28 lanes.
   Unless zeroed says the whole buffer is zero, it zeroes what it writes:
   the copies it builds, cells 1 .. 2**k - 1, prod, which follows them, and
   filled. Cell 0 is never used, so it is never touched */
ALWAYS_INLINE fold_counts
fold_body(const fold *f, int build, int zeroed)
{
    lane *copies = f->copies, *cells = f->cells, *prod = f->prod;
    const unsigned char *b_bytes = f->b_bytes;
    unsigned char *filled = f->filled;
    size_t n = f->n, la = f->la, cell_len = f->cell_len;
    size_t ncols = f->ncols, nparts = f->nparts;
    size_t ncells = (size_t)1 << f->k;
    if (build) {
        if (!zeroed)
            memset(copies + la + 1, 0,
                   (COPY_SLOTS - 1) * (la + 1) * sizeof(lane));
        for (size_t s = 1; s < COPY_SLOTS; s++)
            add_shifted(copies + s * (la + 1), copies, la, (unsigned)s);
    }
    if (!zeroed) {
        memset(cells + cell_len, 0,
               ((ncells - 1) * cell_len + f->prod_len) * sizeof(lane));
        memset(filled, 0, ncells);
    }
    memset(f->b_bytes + f->b_len, 0, f->b_pad - f->b_len);

    /* accumulate, 8 columns i0 .. i0 + 7 at a time. Column i's pattern has
       bit j set iff bit i of part j + 1, bit j*n + i of b, is set. Byte
       j % 8 of rows[j / 8] holds those 8 columns of part j + 1, and its
       transpose holds their pattern bits, byte t for column i0 + t. Only
       the first ncols = min(n, b_bits) columns and the nparts parts that
       start below b_bits can hold a set bit. Bit t of nonzero, the OR of
       the parts' bytes, is set iff column i0 + t has a nonzero pattern */
    size_t ngroups = (nparts + 7) / 8;
    Py_ssize_t acc_adds = 0;
    for (size_t i0 = 0; i0 < ncols; i0 += 8) {
        uint64_t rows[(K_CEILING + 7) / 8] = {0};
        unsigned nonzero = 0;
        for (size_t j = 0; j < nparts; j++) {
            unsigned part = bits8(b_bytes, j * n + i0);
            rows[j / 8] |= (uint64_t)part << 8 * (j % 8);
            nonzero |= part;
        }
        /* the last 8 may pass column n - 1 into the next part's bits */
        if (ncols - i0 < 8)
            nonzero &= (1u << (ncols - i0)) - 1;
        if (!nonzero)
            continue;
        for (size_t g = 0; g < ngroups; g++)
            rows[g] = transpose8(rows[g]);
        for (; nonzero; nonzero &= nonzero - 1) {
            unsigned t = (unsigned)__builtin_ctz(nonzero);
            size_t pattern = 0;
            for (size_t g = 0; g < ngroups; g++)
                pattern |= (size_t)(rows[g] >> 8 * t & 0xFF) << 8 * g;
            size_t i = i0 + t;
            add_lanes(cells + pattern * cell_len + i / 32,
                      copies + (i % 32) * (la + 1), la + 1);
            filled[pattern] = 1;
            acc_adds++;
        }
    }

    /* combine: the decremental schedule of _corepy, 2 * (base - 1) adds
       per round, all counted; an add from an unfilled (zero) cell leaves
       its destination as it is, so it is skipped */
    Py_ssize_t comb_adds = 0;
    for (Py_ssize_t r = f->k; r >= 1; r--) {
        size_t base = (size_t)1 << (r - 1);
        lane *top = cells + base * cell_len;
        for (size_t j = 1; j < base; j++) {
            if (!filled[base + j])
                continue;
            const lane *upper = top + j * cell_len;
            add_lanes(top, upper, cell_len);
            add_lanes(cells + j * cell_len, upper, cell_len);
            filled[base] = filled[j] = 1;
        }
        comb_adds += 2 * (Py_ssize_t)(base - 1);
    }

    /* Horner: part product j + 1, in cell 2**j, resolved and added at bit
       offset j*n; the peak is the widest of them */
    Py_ssize_t peak = 0;
    for (size_t j = 0; j < (size_t)f->k; j++) {
        size_t v = (size_t)1 << j, off = j * n;
        if (!filled[v])
            continue;
        lane *cell = cells + v * cell_len;
        resolve(cell, cell_len);
        Py_ssize_t bits = bit_length(cell, cell_len);
        if (bits > peak)
            peak = bits;
        add_shifted(prod + off / 32, cell, cell_len, (unsigned)(off % 32));
    }
    resolve(prod, f->prod_len);
    return (fold_counts){acc_adds, comb_adds, peak};
}

/* fold_body compiled for the build's instruction set */
static fold_counts
fold_baseline(const fold *f, int build, int zeroed)
{
    return fold_body(f, build, zeroed);
}

/* fold_body compiled for a wide instruction set: on x86-64 gcc and clang,
   fold_avx512f and fold_avx2, whose adds run 8 or 4 lanes to a vector */
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define WIDE_COPY(isa)                                                     \
    __attribute__((target(#isa))) static fold_counts                       \
    fold_##isa(const fold *f, int build, int zeroed)                       \
    {                                                                      \
        return fold_body(f, build, zeroed);                                \
    }
WIDE_COPY(avx512f)
WIDE_COPY(avx2)
#endif

/* The measured crossover (see the header), in lanes per copy of A; the
   routine module init chose for folds that wide, fold_baseline where the
   CPU or the build has no wide routine; and its name, exported as SIMD */
#define WIDE_LANES 16
static fold_counts (*wide_fold)(const fold *f, int build,
                                int zeroed) = fold_baseline;
static const char *simd = "baseline";

/* f's fold: the wide routine from WIDE_LANES lanes up, and otherwise
   fold_baseline, through a direct call */
ALWAYS_INLINE fold_counts
run_fold(const fold *f, int build, int zeroed)
{
    if (f->la + 1 >= WIDE_LANES)
        return wide_fold(f, build, zeroed);
    return fold_baseline(f, build, zeroed);
}

static PyObject *
fold_multiply(PyObject *Py_UNUSED(module), PyObject *const *args,
              Py_ssize_t nargs)
{
    Py_ssize_t m, k;
    if (check_nargs("fold_multiply", nargs, 4) < 0
            || int_arg("fold_multiply", args, 0) < 0
            || int_arg("fold_multiply", args, 1) < 0
            || ssize_arg(args[2], &m) < 0 || ssize_arg(args[3], &k) < 0
            || check_shape(m, k) < 0)
        return NULL;
    PyObject *a = args[0], *b = args[1];
    Py_ssize_t a_bits = operand_bits(a, "multiplicand", m);
    Py_ssize_t b_bits = a_bits < 0 ? -1 : operand_bits(b, "multiplier", m);
    if (b_bits < 0)
        return NULL;

    fold f;
    if (plan_fold(&f, m, k, (size_t)a_bits, (size_t)b_bits) < 0)
        return PyErr_NoMemory();
    /* a fold over KEEP_BYTES runs in a zeroed buffer of its own, so the
       kept operands, whose copies it cannot reuse, are dropped */
    int own = f.total > KEEP_BYTES;
    unsigned char *mem = (unsigned char *)kept;
    if (own) {
        drop_kept();
        if (!(mem = PyMem_Calloc(f.total, 1)))
            return PyErr_NoMemory();
    }
    else {
        /* under AddressSanitizer, past the call's working set is poisoned,
           so an overrun traps as one past an exact-size allocation would */
        ASAN_UNPOISON_MEMORY_REGION(mem, f.total);
        ASAN_POISON_MEMORY_REGION(mem + f.total, KEEP_BYTES - f.total);
    }
    place_fold(&f, mem);

    /* each cache is invalidated before its region is rebuilt and set only
       once the rebuild is done, and only in the kept region; a rebuilt a
       may move b_bytes, so it drops the kept b too */
    PyObject *product = NULL;
    fold_counts counts = {0, 0, 0};
    int build = a != cached_a;
    if (build) {
        drop_kept();
        /* a's limbs widen in copy 0, from the top lane down: lane t,
           bytes 8t .. 8t + 7, lies past limbs 0 .. t - 1, still unread */
        if (read_bytes(a, (unsigned char *)f.copies, 4 * f.la) < 0)
            goto done;
        for (size_t t = f.la; t-- > 0;)
            f.copies[t] = load_le32((unsigned char *)f.copies + 4 * t);
        f.copies[f.la] = 0;
    }
    if (b != cached_b) {
        Py_CLEAR(cached_b);
        if (read_bytes(b, f.b_bytes, f.b_len) < 0)
            goto done;
        if (!own && PyLong_CheckExact(b))
            cached_b = Py_NewRef(b);
    }

    counts = run_fold(&f, build, own);
    if (build && !own && PyLong_CheckExact(a))
        cached_a = Py_NewRef(a);
    /* the product narrows in prod, from the bottom lane up: limb t,
       bytes 4t .. 4t + 3, lies in lanes t / 2 <= t, already read */
    for (size_t t = 0; t < f.prod_len; t++)
        store_le32((unsigned char *)f.prod + 4 * t, (uint32_t)f.prod[t]);
    product = _PyLong_FromByteArray((unsigned char *)f.prod, 4 * f.prod_len,
                                    1, 0);
done:
    /* the memory is done with before anything that may run Python code:
       an own buffer goes back to the system on every return */
    if (own)
        PyMem_Free(mem);
    /* (product, *counts); a failed tuple frees the slots it filled */
    PyObject *result = product ? PyTuple_New(6) : NULL;
    if (!result) {
        Py_XDECREF(product);
        return NULL;
    }
    PyTuple_SET_ITEM(result, 0, product);
    Py_ssize_t ledger[] = {counts.acc, counts.comb, k - 1,
                           (Py_ssize_t)f.n + k - 1, counts.peak};
    for (int i = 0; i < 5; i++) {
        PyObject *x = PyLong_FromSsize_t(ledger[i]);
        if (!x) {
            Py_CLEAR(result);
            break;
        }
        PyTuple_SET_ITEM(result, i + 1, x);
    }
    return result;
}

/* numpy's SeedSequence: pool size and hash constants */
#define POOL_SIZE 4
#define INIT_A 0x43b0d7e5u
#define MULT_A 0x931e8875u
#define INIT_B 0x8b51f9ddu
#define MULT_B 0x58f38dedu
#define MIX_MULT_L 0xca01f9ddu
#define MIX_MULT_R 0x4973f715u

/* PCG64's state and increment; __extension__ keeps a pedantic build
   quiet about the GNU type */
__extension__ typedef unsigned __int128 uint128;

/* PCG's default 128-bit LCG multiplier */
#define PCG_MULT ((uint128)UINT64_C(0x2360ed051fc65da4) << 64 \
                  | UINT64_C(0x4385df649fccf645))

typedef struct {
    uint32_t pool[POOL_SIZE];
    uint32_t hash;  /* hashmix's running constant, from INIT_A */
    size_t fed;     /* entropy words mixed in so far */
} seed_seq;

static uint32_t
hashmix(uint32_t value, uint32_t *hash)
{
    value ^= *hash;
    *hash *= MULT_A;
    value *= *hash;
    return value ^ value >> 16;
}

static uint32_t
mix(uint32_t x, uint32_t y)
{
    uint32_t r = MIX_MULT_L * x - MIX_MULT_R * y;
    return r ^ r >> 16;
}

/* Mix the next entropy word into the pool */
static void
feed(seed_seq *s, uint32_t word)
{
    if (s->fed < POOL_SIZE) {
        s->pool[s->fed] = hashmix(word, &s->hash);
        if (s->fed + 1 == POOL_SIZE)
            for (int src = 0; src < POOL_SIZE; src++)
                for (int dst = 0; dst < POOL_SIZE; dst++)
                    if (src != dst)
                        s->pool[dst] = mix(s->pool[dst],
                                           hashmix(s->pool[src], &s->hash));
    }
    else {
        for (int dst = 0; dst < POOL_SIZE; dst++)
            s->pool[dst] = mix(s->pool[dst], hashmix(word, &s->hash));
    }
    s->fed++;
}

/* Feed one entropy entry as 32-bit words, lowest first: 0 with the entry
   fed, -1 with an exception set unless it is a non-negative int */
static int
feed_entry(seed_seq *s, PyObject *entry)
{
    PyObject *x = PyNumber_Index(entry);
    if (!x)
        return -1;
    int rc = -1;
    unsigned char small[16], *bytes = small;
    size_t bits = _PyLong_Sign(x) < 0 ? (size_t)-1 : _PyLong_NumBits(x);
    if (bits == (size_t)-1) {
        if (!PyErr_Occurred())
            PyErr_Format(PyExc_ValueError,
                         "entropy entries must be >= 0, got %R", x);
        goto done;
    }
    size_t words = bits ? (bits + 31) / 32 : 1;
    if (4 * words > sizeof small && !(bytes = PyMem_Malloc(4 * words))) {
        PyErr_NoMemory();
        goto done;
    }
    if (read_bytes(x, bytes, 4 * words) == 0) {
        for (size_t t = 0; t < words; t++)
            feed(s, load_le32(bytes + 4 * t));
        rc = 0;
    }
    if (bytes != small)
        PyMem_Free(bytes);
done:
    Py_DECREF(x);
    return rc;
}

/* Feed x as 32-bit words, lowest first, as feed_entry feeds an int: 0 is
   one zero word */
static void
feed_size(seed_seq *s, uint64_t x)
{
    do {
        feed(s, (uint32_t)x);
        x >>= 32;
    } while (x);
}

/* One LCG step, state = state * multiplier + inc mod 2**128, then the
   XSL-RR output of the new state */
static uint64_t
pcg_next(uint128 *state, uint128 inc)
{
    *state = *state * PCG_MULT + inc;
    uint64_t hi = (uint64_t)(*state >> 64), x = hi ^ (uint64_t)*state;
    unsigned rot = (unsigned)(hi >> 58);
    return x >> rot | x << (-rot & 63);
}

/* PCG64's outputs as Generator.bytes keeps them: 32-bit words, the low
   half of each output first */
typedef struct {
    uint128 state, inc;
    uint64_t high;  /* the last output's high half, while has_high */
    int has_high;
} word_stream;

/* The stream of pool s, with PCG64 seeded as
   SeedSequence.generate_state(4, uint64). s must have taken at least
   POOL_SIZE words, as numpy pads a shorter entropy with zero words:
   fold_trials, the one caller, feeds at least one word for each of seed,
   m, k and t */
static void
pcg_seed(seed_seq s, word_stream *g)
{
    uint32_t hash = INIT_B;
    uint64_t w[4] = {0, 0, 0, 0};
    for (int i = 0; i < 8; i++) {
        uint32_t v = s.pool[i % POOL_SIZE] ^ hash;
        hash *= MULT_B;
        v *= hash;
        w[i / 2] |= (uint64_t)(v ^ v >> 16) << 32 * (i % 2);
    }
    g->inc = ((uint128)w[2] << 64 | w[3]) << 1 | 1;
    g->state = 0;
    pcg_next(&g->state, g->inc);
    g->state += (uint128)w[0] << 64 | w[1];
    pcg_next(&g->state, g->inc);
    g->has_high = 0;
}

/* The stream's next word */
static uint32_t
next_word(word_stream *g)
{
    if (g->has_high) {
        g->has_high = 0;
        return (uint32_t)g->high;
    }
    uint64_t x = pcg_next(&g->state, g->inc);
    g->high = x >> 32;
    g->has_high = 1;
    return (uint32_t)x;
}

/* x as an int */
static PyObject *
long_from_uint128(uint128 x)
{
    unsigned char bytes[16];
    for (int i = 0; i < 4; i++)
        store_le32(bytes + 4 * i, (uint32_t)(x >> 32 * i));
    return _PyLong_FromByteArray(bytes, 16, 1, 0);
}

/* fold_trials(seed, m, k, trials): trial t folds the two m-bit values
   default_rng([seed, m, k, t]) gives, drawn straight into copy 0 and
   b_bytes, and runs every phase fold_multiply runs but the product int.
   Returns the sums over the trials of the accumulate, combine and Horner
   counts, of each trial's squared total and of each product mod
   2**32 - 1 */
static PyObject *
fold_trials(PyObject *Py_UNUSED(module), PyObject *const *args,
            Py_ssize_t nargs)
{
    Py_ssize_t m, k, trials;
    if (check_nargs("fold_trials", nargs, 4) < 0
            || ssize_arg(args[1], &m) < 0 || ssize_arg(args[2], &k) < 0
            || ssize_arg(args[3], &trials) < 0 || check_shape(m, k) < 0)
        return NULL;
    if (trials < 0) {
        PyErr_Format(PyExc_ValueError, "trials must be >= 0, got %zd",
                     trials);
        return NULL;
    }
    seed_seq seeded = {.hash = INIT_A};
    if (feed_entry(&seeded, args[0]) < 0)
        return NULL;
    /* one layout for every trial, that of two m-bit operands, in a buffer
       of this call's own */
    fold f;
    unsigned char *mem = NULL;
    if (plan_fold(&f, m, k, (size_t)m, (size_t)m) < 0
            || !(mem = PyMem_Malloc(f.total)))
        return PyErr_NoMemory();
    place_fold(&f, mem);
    uint32_t top_mask = m % 32 ? (1u << m % 32) - 1 : LIMB_MASK;
    /* acc, comb, horner, total**2 and the residue: a total stays below
       2**33 and a residue below 2**32, so the sums fit 128 bits for any
       trials below 2**62 */
    uint128 sums[5] = {0, 0, 0, 0, 0};
    for (Py_ssize_t t = 0; t < trials; t++) {
        if (PyErr_CheckSignals() < 0) {
            PyMem_Free(mem);
            return NULL;
        }
        seed_seq s = seeded;
        feed_size(&s, (uint64_t)m);
        feed_size(&s, (uint64_t)k);
        feed_size(&s, (uint64_t)t);
        word_stream g;
        pcg_seed(s, &g);
        /* A's la words go into copy 0, whose top lane is zero, and b's
           into b_bytes, each masked to m bits; the fold zeroes the rest of
           what it writes */
        for (size_t w = 0; w < f.la; w++)
            f.copies[w] = next_word(&g)
                          & (w + 1 < f.la ? LIMB_MASK : top_mask);
        f.copies[f.la] = 0;
        for (size_t w = 0; w < f.la; w++)
            store_le32(f.b_bytes + 4 * w, next_word(&g)
                       & (w + 1 < f.la ? LIMB_MASK : top_mask));
        fold_counts counts = run_fold(&f, 1, 0);
        /* 2**32 is 1 mod 2**32 - 1, so the product's residue is that of
           the sum of its limbs, which fits 64 bits for m < 2**32 */
        uint64_t limb_sum = 0;
        for (size_t i = 0; i < f.prod_len; i++)
            limb_sum += f.prod[i];
        uint64_t total = (uint64_t)(counts.acc + counts.comb + k - 1);
        sums[0] += (uint64_t)counts.acc;
        sums[1] += (uint64_t)counts.comb;
        sums[2] += (uint64_t)(k - 1);
        sums[3] += (uint128)total * total;
        sums[4] += limb_sum % LIMB_MASK;
    }
    PyMem_Free(mem);
    PyObject *result = PyTuple_New(5);
    for (int i = 0; result && i < 5; i++) {
        PyObject *x = long_from_uint128(sums[i]);
        if (x)
            PyTuple_SET_ITEM(result, i, x);
        else
            Py_CLEAR(result);
    }
    return result;
}

/* numpy/random/bitgen.h, the struct behind a BitGenerator's public
   "BitGenerator" capsule, declared here because _corec builds without the
   numpy headers */
typedef struct bitgen {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;

/* The names bernoulli_bits looks up, interned once at module init, so
   each lookup hits the type's attribute cache; a name made from a C string
   per call misses it */
static PyObject *bit_generator_str, *capsule_str, *lock_str, *acquire_str,
                *release_str;

/* Bits from b doubles u drawn as Generator.random(b) draws them, under
   the bit generator's lock and without the GIL: bit i is set iff the i-th
   u < float(delta). Each 64 of them are or-ed into one word, without a
   branch */
static PyObject *
bernoulli_bits(PyObject *Py_UNUSED(module), PyObject *const *args,
               Py_ssize_t nargs)
{
    Py_ssize_t b;
    if (check_nargs("bernoulli_bits", nargs, 3) < 0
            || ssize_arg(args[1], &b) < 0)
        return NULL;
    PyObject *rng = args[0], *delta_arg = args[2];
    if (b < 0) {
        PyErr_Format(PyExc_ValueError, "b must be >= 0, got %zd", b);
        return NULL;
    }
    /* float(delta), as the pure lane compares: a wider delta (a Fraction,
       a long double) is rounded once here, not compared exactly */
    PyObject *as_float = PyNumber_Float(delta_arg);
    if (!as_float)
        return NULL;
    double delta = PyFloat_AS_DOUBLE(as_float);
    Py_DECREF(as_float);
    if (!b)
        return PyLong_FromLong(0);
    size_t nwords = ((size_t)b + 63) / 64;
    unsigned char *data = PyMem_Malloc(8 * nwords);
    if (!data)
        return PyErr_NoMemory();
    PyObject *result = NULL, *lock = NULL, *capsule = NULL;
    PyObject *bit_generator = PyObject_GetAttr(rng, bit_generator_str);
    if (!bit_generator
            || !(capsule = PyObject_GetAttr(bit_generator, capsule_str))
            || !(lock = PyObject_GetAttr(bit_generator, lock_str)))
        goto done;
    bitgen_t *bitgen = PyCapsule_GetPointer(capsule, "BitGenerator");
    PyObject *held = bitgen ? PyObject_CallMethodNoArgs(lock, acquire_str)
                            : NULL;
    if (!held)
        goto done;
    Py_DECREF(held);
    Py_BEGIN_ALLOW_THREADS
    for (size_t w = 0; w < nwords; w++) {
        size_t bits = w + 1 < nwords || b % 64 == 0 ? 64 : (size_t)b % 64;
        uint64_t word = 0;
        for (size_t i = 0; i < bits; i++)
            word |= (uint64_t)(bitgen->next_double(bitgen->state) < delta)
                    << i;
        store_le32(data + 8 * w, (uint32_t)word);
        store_le32(data + 8 * w + 4, (uint32_t)(word >> 32));
    }
    Py_END_ALLOW_THREADS
    PyObject *released = PyObject_CallMethodNoArgs(lock, release_str);
    if (released) {
        Py_DECREF(released);
        result = _PyLong_FromByteArray(data, 8 * nwords, 1, 0);
    }
done:
    Py_XDECREF(lock);
    Py_XDECREF(capsule);
    Py_XDECREF(bit_generator);
    PyMem_Free(data);
    return result;
}

static PyMethodDef corec_methods[] = {
    {"fold_multiply", (PyCFunction)(void (*)(void))fold_multiply,
     METH_FASTCALL,
     "fold_multiply(a, b, m, k)\n--\n\n"
     "Fused folded multiply of ints 0 <= a, b < 2**m with 1 <= k <= 27.\n"
     "Returns (product, accumulate_adds, combine_adds, horner_adds, shifts,\n"
     "peak_cell_bits), as _corepy.fold_multiply does."},
    {"fold_trials", (PyCFunction)(void (*)(void))fold_trials,
     METH_FASTCALL,
     "fold_trials(seed, m, k, trials)\n--\n\n"
     "Ledger sums of trials folds of the operand pairs that\n"
     "default_rng([seed, m, k, t]) gives, t = 0 .. trials - 1: returns\n"
     "(accumulate_adds, combine_adds, horner_adds, total_squares,\n"
     "product_residues), as _corepy.fold_trials does."},
    {"bernoulli_bits", (PyCFunction)(void (*)(void))bernoulli_bits,
     METH_FASTCALL,
     "bernoulli_bits(rng, b, delta)\n--\n\n"
     "Int whose bit i is set iff the i-th of b doubles that numpy Generator\n"
     "rng.random(b) would draw is below delta, as _corepy.bernoulli_bits\n"
     "returns it, leaving rng as that draw would."},
    {NULL, NULL, 0, NULL}
};

static struct PyModuleDef corec_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_corec",
    .m_doc = "Compiled lane of the kernel layer: fold_multiply, "
             "fold_trials and bernoulli_bits.",
    .m_size = -1,
    .m_methods = corec_methods,
};

PyMODINIT_FUNC
PyInit__corec(void)
{
    if (!(bit_generator_str = PyUnicode_InternFromString("bit_generator"))
            || !(capsule_str = PyUnicode_InternFromString("capsule"))
            || !(lock_str = PyUnicode_InternFromString("lock"))
            || !(acquire_str = PyUnicode_InternFromString("acquire"))
            || !(release_str = PyUnicode_InternFromString("release")))
        return NULL;
#ifdef WIDE_COPY
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx512f")) {
        wide_fold = fold_avx512f;
        simd = "avx512f";
    }
    else if (__builtin_cpu_supports("avx2")) {
        wide_fold = fold_avx2;
        simd = "avx2";
    }
#endif
    PyObject *module = PyModule_Create(&corec_module);
    if (module && (PyModule_AddIntMacro(module, K_CEILING) < 0
                   || PyModule_AddIntMacro(module, WIDE_LANES) < 0
                   || PyModule_AddStringConstant(module, "SIMD", simd) < 0))
        Py_CLEAR(module);
    return module;
}
