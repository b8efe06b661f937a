/* Compiled lane of the kernel layer: _corepy.fold_multiply,
   _corepy.seeded_bits and _corepy.bernoulli_bits in C.

   fold_multiply(a, b, m, k) takes and returns what the pure lane does and
   runs the same schedule, so products and ledgers are identical.

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

   All of fold_multiply's memory is one module-level buffer that outlives
   the call and grows with realloc. Its front holds the shifted copies of
   the last multiplicand, and the next region the last multiplier's
   bytes, which each call pads with zeros as far as its accumulate reads;
   the call's working set follows, and each call zeroes only that. A call
   whose a (or b) is the very int object the buffer was built from reuses
   its region: criterion 1's folds of one pair at k = 1..8 and its two
   baselines read and shift the multiplicand once. Only exact ints are
   cached, each held by a strong reference: an int is immutable, so
   identity implies value, and dropping one runs no __del__ while the
   buffer is in use. A cache is invalidated before its region is rebuilt
   and set only once the rebuild is done. A call that needs more than
   1 MiB drops both operands and the buffer, takes a zeroed one from
   calloc, whose untouched pages stay out of RSS as a sparsely filled
   bank's mostly do, and frees it at its end, so a 2**24-bit multiply
   still returns its ~150 MB; between calls at most 1 MiB stays. Under AddressSanitizer the buffer past the
   call's working set is poisoned, so an overrun traps as one past an
   exact-size allocation would. The buffer takes no lock: that is safe
   only because fold_multiply never releases the GIL.

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

   seeded_bits(entropy, m, count) returns the values
   random_bitnums(m, numpy.random.default_rng(entropy), count) holds, bit
   for bit, without building a Generator. The stream is numpy's own
   (numpy/random/bit_generator.pyx, numpy/random/src/pcg64):
   - SeedSequence: each entropy entry, a non-negative int, is split into
     32-bit words lowest first (0 is one zero word). The first 4 words are
     hashed into a 4-word pool (zero words pad a shorter entropy), every
     pool word is mixed with the hash of every other one, and each later
     word is hashed and mixed into every pool word. generate_state hashes
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
   and all values are cut from one buffer.

   bernoulli_bits(rng, b, delta) draws from rng the b doubles rng.random(b)
   would: it calls the next_double of rng.bit_generator's public
   "BitGenerator" capsule b times, holding the bit generator's lock and not
   the GIL, as Generator.random does. So on every numpy bit generator the
   value and the state left behind are the pure lane's, and the draw needs
   b / 8 bytes, where the pure lane holds a float64 and a bool per bit.
   density.bernoulli_block, its one caller, checks that rng is a numpy
   Generator, as folding.multiply checks fold_multiply's operands; here an
   rng without those attributes raises AttributeError, and a capsule of
   another name ValueError, before any draw.

   fold_multiply, seeded_bits and bernoulli_bits are vectorcall entry
   points (METH_FASTCALL, PEP 590): each reads its arguments from the
   caller's array, and fold_multiply builds its result with PyTuple_New,
   so a call makes no argument tuple and parses no format string. */

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

/* folding.K_CEILING, exported as K_CEILING for the tests to compare: above
   it 2**k cells alone outgrow the accumulator bank budget */
#define K_CEILING 27

typedef uint64_t lane;

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
static void
add_lanes(lane *restrict dst, const lane *restrict src, size_t len)
{
    for (size_t t = 0; t < len; t++)
        dst[t] += src[t];
}

/* dst[0 .. len] += x[0 .. len) << s, lane by lane, for resolved limbs x
   and 0 <= s < 32; each limb reads its two source limbs and carries
   nothing to the next, so the loop vectorises */
static void
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
static unsigned
bits8(const unsigned char *b, size_t pos)
{
    return (unsigned)(b[pos / 8] | b[pos / 8 + 1] << 8) >> pos % 8 & 0xFF;
}

/* The 8 x 8 bit matrix x, bit 8r + c holding row r, column c, transposed:
   three rounds of masked swaps of 2 x 2, 4 x 4 and 8 x 8 blocks (Warren,
   Hacker's Delight, 7-3) */
static uint64_t
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
static void
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
static Py_ssize_t
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

/* *total += count * size, or -1 if that overflows size_t */
static int
reserve(size_t *total, size_t count, size_t size)
{
    if (size && count > (SIZE_MAX - *total) / size)
        return -1;
    *total += count * size;
    return 0;
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

/* fold_multiply's buffer (see the header), kept between calls up to
   KEEP_BYTES. Its front holds COPY_SLOTS slots of la + 1 lanes, the first
   cached_copies of them the copies of cached_a, and b_bytes at
   cached_b_off holds cached_b; a cache is NULL when its region holds
   nothing reusable. No lock guards it: fold_multiply never releases the
   GIL and runs no Python code while the buffer is in use, so no other
   call reaches it. */
#define COPY_SLOTS 32
#define KEEP_BYTES ((size_t)1 << 20)
static unsigned char *buf;
static size_t buf_cap;
static PyObject *cached_a, *cached_b;
static size_t cached_copies, cached_b_off;

/* Drop both cached operands and free the buffer */
static void
release_buffer(void)
{
    Py_CLEAR(cached_a);
    Py_CLEAR(cached_b);
    ASAN_UNPOISON_MEMORY_REGION(buf, buf_cap);
    free(buf);
    buf = NULL;
    buf_cap = 0;
}

/* buf with room for total bytes: 0 with the bytes it held kept, 1 with
   every byte zero, or -1 with the buffer as it was. A buffer over
   KEEP_BYTES is freed at the end of its call anyway, so it comes fresh
   from calloc: the system's zero pages stay out of RSS until written, as
   most of a large, sparsely filled bank is never written */
static int
reserve_buffer(size_t total)
{
    if (total > KEEP_BYTES) {
        release_buffer();
        if (!(buf = calloc(total, 1)))
            return -1;
        buf_cap = total;
        return 1;
    }
    if (total > buf_cap) {
        ASAN_UNPOISON_MEMORY_REGION(buf, buf_cap);
        unsigned char *p = realloc(buf, total);
        if (!p)
            return -1;
        buf = p;
        buf_cap = total;
    }
    /* under AddressSanitizer, past the call's working set is poisoned, so
       an overrun traps as one past an exact-size allocation would */
    ASAN_UNPOISON_MEMORY_REGION(buf, total);
    ASAN_POISON_MEMORY_REGION(buf + total, buf_cap - total);
    return 0;
}

static PyObject *
fold_multiply(PyObject *Py_UNUSED(module), PyObject *const *args,
              Py_ssize_t nargs)
{
    Py_ssize_t m, k;
    if (check_nargs("fold_multiply", nargs, 4) < 0
            || int_arg("fold_multiply", args, 0) < 0
            || int_arg("fold_multiply", args, 1) < 0
            || ssize_arg(args[2], &m) < 0 || ssize_arg(args[3], &k) < 0)
        return NULL;
    PyObject *a = args[0], *b = args[1];
    if (k < 1 || k > K_CEILING) {
        PyErr_Format(PyExc_ValueError, "k must be in 1..%d, got %zd",
                     K_CEILING, k);
        return NULL;
    }
    if (m < 1 || (uint64_t)m >> 32) {
        PyErr_Format(PyExc_ValueError, "m must be in 1..2**32 - 1, got %zd",
                     m);
        return NULL;
    }
    Py_ssize_t a_bits = operand_bits(a, "multiplicand", m);
    Py_ssize_t b_bits = a_bits < 0 ? -1 : operand_bits(b, "multiplier", m);
    if (b_bits < 0)
        return NULL;

    size_t n = (size_t)(m / k + (m % k != 0));
    size_t ncells = (size_t)1 << k;
    size_t la = ((size_t)a_bits + 31) / 32;
    size_t b_len = ((size_t)b_bits + 7) / 8;
    /* accumulate reads the first ncols columns of the nparts parts that
       start below b_bits: bits8 at pos < last + ncols, with last the top
       such part's offset, which reads bytes pos / 8 and pos / 8 + 1. So b
       is held zero-padded to b_pad bytes */
    size_t ncols = (size_t)b_bits < n ? (size_t)b_bits : n;
    size_t nparts = ((size_t)b_bits + n - 1) / n;
    size_t last = nparts ? (nparts - 1) * n : 0;
    size_t b_pad = (last + ncols) / 8 + 2;
    size_t cell_len = la + (n + 31) / 32;
    size_t ncopies = n < COPY_SLOTS ? n : COPY_SLOTS;
    /* Horner adds cell_len + 1 limbs at limb (k - 1) * n / 32 at most */
    size_t prod_len = (size_t)(k - 1) * n / 32 + cell_len + 1;
    /* copies, then b_bytes rounded up to whole lanes, then the working
       set */
    size_t b_off = COPY_SLOTS * (la + 1) * sizeof(lane), total = b_off;
    if (reserve(&total, (b_pad + 7) / 8, sizeof(lane)) < 0
            || reserve(&total, ncells, cell_len * sizeof(lane)) < 0
            || reserve(&total, prod_len, sizeof(lane)) < 0
            || reserve(&total, 4 * (la + prod_len) + ncells, 1) < 0)
        return PyErr_NoMemory();
    int zeroed = reserve_buffer(total);
    if (zeroed < 0)
        return PyErr_NoMemory();
    lane *copies = (lane *)buf;
    unsigned char *b_bytes = buf + b_off;
    lane *cells = (lane *)(b_bytes + (b_pad + 7) / 8 * sizeof(lane));
    lane *prod = cells + ncells * cell_len;
    unsigned char *a_bytes = (unsigned char *)(prod + prod_len);
    unsigned char *prod_bytes = a_bytes + 4 * la;
    unsigned char *filled = prod_bytes + 4 * prod_len;
    /* cells 1 .. ncells - 1 and prod, which follows them; cell 0 is never
       used, so it is never touched */
    if (!zeroed) {
        memset(cells + cell_len, 0,
               ((ncells - 1) * cell_len + prod_len) * sizeof(lane));
        memset(filled, 0, ncells);
    }

    /* each cache is invalidated before its region is rebuilt and set only
       once the rebuild is done; a rebuilt a of another width moves b_off */
    size_t built = a == cached_a ? cached_copies : 0;
    if (!built) {
        Py_CLEAR(cached_a);
        if (read_bytes(a, a_bytes, 4 * la) < 0)
            goto fail;
        for (size_t t = 0; t < la; t++)
            copies[t] = load_le32(a_bytes + 4 * t);
        copies[la] = 0;
        built = 1;
    }
    if (built < ncopies) {
        if (!zeroed)
            memset(copies + built * (la + 1), 0,
                   (ncopies - built) * (la + 1) * sizeof(lane));
        for (size_t s = built; s < ncopies; s++)
            add_shifted(copies + s * (la + 1), copies, la, (unsigned)s);
        built = ncopies;
    }
    if (!cached_a && PyLong_CheckExact(a))
        cached_a = Py_NewRef(a);
    cached_copies = built;
    if (b != cached_b || b_off != cached_b_off) {
        Py_CLEAR(cached_b);
        if (read_bytes(b, b_bytes, b_len) < 0)
            goto fail;
        if (PyLong_CheckExact(b)) {
            cached_b = Py_NewRef(b);
            cached_b_off = b_off;
        }
    }
    memset(b_bytes + b_len, 0, b_pad - b_len);

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
    for (Py_ssize_t r = k; r >= 1; r--) {
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
    for (size_t j = 0; j < (size_t)k; j++) {
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
    resolve(prod, prod_len);
    for (size_t t = 0; t < prod_len; t++)
        store_le32(prod_bytes + 4 * t, (uint32_t)prod[t]);
    /* the buffer is done with before anything that may run Python code:
       a large one goes back to the system, with the operands it caches */
    PyObject *product = _PyLong_FromByteArray(prod_bytes, 4 * prod_len, 1, 0);
    if (buf_cap > KEEP_BYTES)
        release_buffer();
    /* (product, *counts); a failed tuple frees the slots it filled */
    PyObject *result = product ? PyTuple_New(6) : NULL;
    if (!result) {
        Py_XDECREF(product);
        return NULL;
    }
    PyTuple_SET_ITEM(result, 0, product);
    Py_ssize_t counts[] = {acc_adds, comb_adds, k - 1, (Py_ssize_t)n + k - 1,
                           peak};
    for (int i = 0; i < 5; i++) {
        PyObject *x = PyLong_FromSsize_t(counts[i]);
        if (!x) {
            Py_CLEAR(result);
            break;
        }
        PyTuple_SET_ITEM(result, i + 1, x);
    }
    return result;
fail:
    /* the working set may have overwritten a cached region */
    release_buffer();
    return NULL;
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

/* PCG64 seeded from the pool as SeedSequence.generate_state(4, uint64) */
static void
pcg_seed(const seed_seq *s, uint128 *state, uint128 *inc)
{
    uint32_t hash = INIT_B;
    uint64_t w[4] = {0, 0, 0, 0};
    for (int i = 0; i < 8; i++) {
        uint32_t v = s->pool[i % POOL_SIZE] ^ hash;
        hash *= MULT_B;
        v *= hash;
        w[i / 2] |= (uint64_t)(v ^ v >> 16) << 32 * (i % 2);
    }
    *inc = ((uint128)w[2] << 64 | w[3]) << 1 | 1;
    *state = 0;
    pcg_next(state, *inc);
    *state += (uint128)w[0] << 64 | w[1];
    pcg_next(state, *inc);
}

static PyObject *
seeded_bits(PyObject *Py_UNUSED(module), PyObject *const *args,
            Py_ssize_t nargs)
{
    Py_ssize_t m, count;
    if (check_nargs("seeded_bits", nargs, 3) < 0
            || ssize_arg(args[1], &m) < 0 || ssize_arg(args[2], &count) < 0)
        return NULL;
    PyObject *entropy = args[0];
    seed_seq s = {.hash = INIT_A};
    if (PySequence_Check(entropy)) {
        PyObject *seq = PySequence_Fast(entropy, "entropy must be a sequence");
        if (!seq)
            return NULL;
        int rc = 0;
        for (Py_ssize_t i = 0; rc == 0 && i < PySequence_Fast_GET_SIZE(seq);
             i++)
            rc = feed_entry(&s, PySequence_Fast_GET_ITEM(seq, i));
        Py_DECREF(seq);
        if (rc < 0)
            return NULL;
    }
    else if (feed_entry(&s, entropy) < 0)
        return NULL;
    while (s.fed < POOL_SIZE)
        feed(&s, 0);
    if (m < 0 || count < 0) {
        PyErr_Format(PyExc_ValueError, "%s must be >= 0, got %zd",
                     m < 0 ? "m" : "count", m < 0 ? m : count);
        return NULL;
    }

    size_t nbytes = ((size_t)m + 7) / 8;
    size_t stride = ((size_t)m + 31) / 32 * 4;
    size_t total = 7;  /* rounds the draw up to whole 64-bit outputs */
    if (reserve(&total, (size_t)count, stride) < 0)
        return PyErr_NoMemory();
    total -= total % 8;
    unsigned char *data = malloc(total ? total : 1);
    if (!data)
        return PyErr_NoMemory();
    PyObject *result = PyTuple_New(count);
    if (result) {
        uint128 state, inc;
        pcg_seed(&s, &state, &inc);
        for (size_t t = 0; t < total; t += 8) {
            uint64_t x = pcg_next(&state, inc);
            store_le32(data + t, (uint32_t)x);
            store_le32(data + t + 4, (uint32_t)(x >> 32));
        }
    }
    for (Py_ssize_t i = 0; result && i < count; i++) {
        unsigned char *v = data + (size_t)i * stride;
        if (m % 8)
            v[nbytes - 1] &= (1u << m % 8) - 1;
        PyObject *x = _PyLong_FromByteArray(v, nbytes, 1, 0);
        if (x)
            PyTuple_SET_ITEM(result, i, x);
        else
            Py_CLEAR(result);
    }
    free(data);
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
    unsigned char *data = malloc(8 * nwords);
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
    free(data);
    return result;
}

static PyMethodDef corec_methods[] = {
    {"fold_multiply", (PyCFunction)(void (*)(void))fold_multiply,
     METH_FASTCALL,
     "fold_multiply(a, b, m, k)\n--\n\n"
     "Fused folded multiply of ints 0 <= a, b < 2**m with 1 <= k <= 27.\n"
     "Returns (product, accumulate_adds, combine_adds, horner_adds, shifts,\n"
     "peak_cell_bits), as _corepy.fold_multiply does."},
    {"seeded_bits", (PyCFunction)(void (*)(void))seeded_bits,
     METH_FASTCALL,
     "seeded_bits(entropy, m, count)\n--\n\n"
     "count ints of m uniform bits from numpy's SeedSequence/PCG64 stream\n"
     "for entropy, an int or a sequence of ints >= 0, as\n"
     "_corepy.seeded_bits returns them."},
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
    .m_doc = "Compiled lane of the kernel layer: fold_multiply, seeded_bits "
             "and bernoulli_bits.",
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
    PyObject *module = PyModule_Create(&corec_module);
    if (module && PyModule_AddIntMacro(module, K_CEILING) < 0)
        Py_CLEAR(module);
    return module;
}
