/* Compiled lane of the fused folded multiply: _corepy.fold_multiply in C.

   fold_multiply(a, b, m, k) takes and returns what the pure lane does and
   runs the same schedule, so products and ledgers are identical.

   Numbers are arrays of 32-bit limbs, lowest first, each held in a 64-bit
   lane. A is shifted once into one copy per bit offset 0..31, each
   len(A) + 1 limbs, and column i's accumulate step adds copy i % 32 at
   limb i / 32 of its cell: no column shifts a full-width copy of A (the
   classical multiprecision add, Knuth, TAOCP Vol. 2, 4.3.1). Accumulate
   and combine add lane by lane and leave the carries in the lanes' upper
   halves; they are resolved once per cell before the peak width and
   Horner read the cells. Every buffer comes from one calloc sized from
   the operand widths, n and k.

   Every cell holds a sum of distinct accumulate terms, so it stays below
   A * 2**n and fits len(A) + ceil(n / 32) limbs, and each of its lanes
   sums at most n limbs, which fits 64 bits for m < 2**32. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>

/* folding.K_CEILING, exported as K_CEILING for the tests to compare: above
   it 2**k cells alone outgrow the accumulator bank budget */
#define K_CEILING 27

typedef uint64_t lane;

#define LIMB_MASK 0xFFFFFFFFu

/* dst[0 .. len) += src[0 .. len), lane by lane */
static void
add_lanes(lane *restrict dst, const lane *restrict src, size_t len)
{
    for (size_t t = 0; t < len; t++)
        dst[t] += src[t];
}

/* out[0 .. len] = x[0 .. len) << s for resolved limbs x and 0 <= s < 32 */
static void
shift_into(lane *restrict out, const lane *restrict x, size_t len, unsigned s)
{
    lane below = 0;
    for (size_t t = 0; t < len; t++) {
        lane w = x[t] << s;
        out[t] = (w & LIMB_MASK) | below;
        below = w >> 32;
    }
    out[len] = below;
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

static Py_ssize_t
bit_length(const lane *x, size_t len)
{
    while (len && !x[len - 1])
        len--;
    if (!len)
        return 0;
    Py_ssize_t bits = 32 * (Py_ssize_t)(len - 1);
    for (lane top = x[len - 1]; top; top >>= 1)
        bits++;
    return bits;
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

static PyObject *
fold_multiply(PyObject *Py_UNUSED(module), PyObject *args)
{
    PyObject *a, *b;
    Py_ssize_t m, k;
    if (!PyArg_ParseTuple(args, "O!O!nn:fold_multiply", &PyLong_Type, &a,
                          &PyLong_Type, &b, &m, &k))
        return NULL;
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
    size_t cell_len = la + (n + 31) / 32;
    size_t ncopies = n < 32 ? n : 32;
    /* Horner adds cell_len + 1 limbs at limb (k - 1) * n / 32 at most */
    size_t prod_len = (size_t)(k - 1) * n / 32 + cell_len + 1;
    size_t total = 0;
    if (reserve(&total, ncells, cell_len * sizeof(lane)) < 0
            || reserve(&total, ncopies, (la + 1) * sizeof(lane)) < 0
            || reserve(&total, prod_len + cell_len + 1, sizeof(lane)) < 0
            || reserve(&total, n, sizeof(uint32_t)) < 0
            || reserve(&total, 4 * (la + prod_len) + b_len, 1) < 0)
        return PyErr_NoMemory();
    lane *cells = calloc(total, 1);
    if (!cells)
        return PyErr_NoMemory();
    lane *copies = cells + ncells * cell_len;
    lane *prod = copies + ncopies * (la + 1);
    lane *shifted = prod + prod_len;
    uint32_t *patterns = (uint32_t *)(shifted + cell_len + 1);
    unsigned char *a_bytes = (unsigned char *)(patterns + n);
    unsigned char *b_bytes = a_bytes + 4 * la;
    unsigned char *prod_bytes = b_bytes + b_len;
    PyObject *result = NULL;
    if (read_bytes(a, a_bytes, 4 * la) < 0
            || read_bytes(b, b_bytes, b_len) < 0)
        goto done;

    /* column i's pattern has bit j set iff bit i of part j + 1, which is
       bit j*n + i of b, is set */
    for (size_t j = 0; j < (size_t)k && j * n < (size_t)b_bits; j++) {
        size_t start = j * n;
        size_t stop = start + n < (size_t)b_bits ? start + n : (size_t)b_bits;
        for (size_t pos = start; pos < stop; pos++)
            patterns[pos - start] |=
                (uint32_t)((b_bytes[pos / 8] >> (pos % 8)) & 1) << j;
    }

    for (size_t t = 0; t < la; t++) {
        const unsigned char *p = a_bytes + 4 * t;
        copies[t] = (lane)p[0] | (lane)p[1] << 8 | (lane)p[2] << 16
                    | (lane)p[3] << 24;
    }
    for (size_t s = 1; s < ncopies; s++)
        shift_into(copies + s * (la + 1), copies, la, (unsigned)s);
    Py_ssize_t acc_adds = 0;
    for (size_t i = 0; i < n; i++) {
        if (!patterns[i])
            continue;
        add_lanes(cells + patterns[i] * cell_len + i / 32,
                  copies + (i % 32) * (la + 1), la + 1);
        acc_adds++;
    }

    /* combine: the decremental schedule of _corepy, 2 * (base - 1) adds
       per round */
    Py_ssize_t comb_adds = 0;
    for (Py_ssize_t r = k; r >= 1; r--) {
        size_t base = (size_t)1 << (r - 1);
        lane *top = cells + base * cell_len;
        for (size_t j = 1; j < base; j++) {
            const lane *upper = top + j * cell_len;
            add_lanes(top, upper, cell_len);
            add_lanes(cells + j * cell_len, upper, cell_len);
        }
        comb_adds += 2 * (Py_ssize_t)(base - 1);
    }
    Py_ssize_t peak = 0;
    for (size_t v = 0; v < ncells; v++) {
        resolve(cells + v * cell_len, cell_len);
        Py_ssize_t bits = bit_length(cells + v * cell_len, cell_len);
        if (bits > peak)
            peak = bits;
    }

    /* Horner: part product j + 1, in cell 2**j, added at bit offset j*n */
    for (size_t j = 0; j < (size_t)k; j++) {
        size_t off = j * n;
        shift_into(shifted, cells + ((size_t)1 << j) * cell_len, cell_len,
                   (unsigned)(off % 32));
        add_lanes(prod + off / 32, shifted, cell_len + 1);
    }
    resolve(prod, prod_len);
    for (size_t t = 0; t < prod_len; t++) {
        unsigned char *p = prod_bytes + 4 * t;
        p[0] = (unsigned char)prod[t];
        p[1] = (unsigned char)(prod[t] >> 8);
        p[2] = (unsigned char)(prod[t] >> 16);
        p[3] = (unsigned char)(prod[t] >> 24);
    }
    PyObject *product = _PyLong_FromByteArray(prod_bytes, 4 * prod_len, 1, 0);
    if (product)
        result = Py_BuildValue("(Nnnnnn)", product, acc_adds, comb_adds,
                               k - 1, (Py_ssize_t)n + k - 1, peak);
done:
    free(cells);
    return result;
}

static PyMethodDef corec_methods[] = {
    {"fold_multiply", fold_multiply, METH_VARARGS,
     "fold_multiply(a, b, m, k)\n--\n\n"
     "Fused folded multiply of ints 0 <= a, b < 2**m with 1 <= k <= 27.\n"
     "Returns (product, accumulate_adds, combine_adds, horner_adds, shifts,\n"
     "peak_cell_bits), as _corepy.fold_multiply does."},
    {NULL, NULL, 0, NULL}
};

static struct PyModuleDef corec_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_corec",
    .m_doc = "Compiled lane of the fused folded multiply kernel.",
    .m_size = -1,
    .m_methods = corec_methods,
};

PyMODINIT_FUNC
PyInit__corec(void)
{
    PyObject *module = PyModule_Create(&corec_module);
    if (module && PyModule_AddIntMacro(module, K_CEILING) < 0)
        Py_CLEAR(module);
    return module;
}
