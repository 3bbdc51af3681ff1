/* Compiled kernels; semantics mirror ``pure.py`` exactly.
 *
 * Plain CPython C API, built by ``setup.py`` with the system compiler.
 * Grid markers are stored as bytes, so the grid kernels accept grid
 * numbers up to 256 and raise ValueError above, as ``pure.py`` does.
 * Braid letters must fit a C int; a larger one raises OverflowError.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <limits.h>
#include <string.h>

#define MAX_GRID 256

/* ---- braid words: handle reduction ------------------------------------ */

/* The earliest-closing handle of w[0:m]: for each t, the previous letter
 * of the same index k is w[s]; (s, t) is a handle when w[s] == -w[t] and
 * no letter of index k - 1 lies between them.  Returns 0 if there is none. */
static int
first_handle(const long long *w, Py_ssize_t m, Py_ssize_t *ps, Py_ssize_t *pt)
{
    for (Py_ssize_t t = 0; t < m; t++) {
        long long k = w[t] < 0 ? -w[t] : w[t];
        int blocked = 0;
        for (Py_ssize_t s = t - 1; s >= 0; s--) {
            long long a = w[s] < 0 ? -w[s] : w[s];
            if (a == k) {
                if (w[s] == -w[t] && !blocked) {
                    *ps = s;
                    *pt = t;
                    return 1;
                }
                break;
            }
            if (a == k - 1)
                blocked = 1;
        }
    }
    return 0;
}

PyDoc_STRVAR(reduce_handles_doc,
"reduce_handles(word)\n--\n\n"
"Fully handle-reduce a braid word (letters are nonzero ints).");

static PyObject *
reduce_handles(PyObject *self, PyObject *word)
{
    PyObject *seq = PySequence_Fast(word, "braid word must be iterable");
    if (seq == NULL)
        return NULL;
    Py_ssize_t m = PySequence_Fast_GET_SIZE(seq);
    Py_ssize_t cap = 16 + 2 * m;
    long long *w = PyMem_Malloc(cap * sizeof(long long));
    long long *buf = PyMem_Malloc(cap * sizeof(long long));
    PyObject *result = NULL;
    if (w == NULL || buf == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (Py_ssize_t i = 0; i < m; i++) {
        long v = PyLong_AsLong(PySequence_Fast_GET_ITEM(seq, i));
        if (v == -1 && PyErr_Occurred())
            goto done;
        if (v < INT_MIN || v > INT_MAX) {
            PyErr_SetString(PyExc_OverflowError, "braid letter does not fit a C int");
            goto done;
        }
        w[i] = v;
    }

    Py_ssize_t s, t;
    while (first_handle(w, m, &s, &t)) {
        /* Replace w[s..t] by its interior, each letter of index k + 1
         * turned into three: -e(k+1), d*k, e(k+1). */
        long long k = w[s] < 0 ? -w[s] : w[s];
        long long e = w[s] > 0 ? 1 : -1;
        Py_ssize_t new_m = m - 2;
        for (Py_ssize_t i = s + 1; i < t; i++)
            if (w[i] == k + 1 || w[i] == -(k + 1))
                new_m += 2;
        if (new_m > cap) {
            cap = 2 * new_m + 16;
            long long *w2 = PyMem_Realloc(w, cap * sizeof(long long));
            if (w2 == NULL) {
                PyErr_NoMemory();
                goto done;
            }
            w = w2;
            PyMem_Free(buf);
            buf = PyMem_Malloc(cap * sizeof(long long));
            if (buf == NULL) {
                PyErr_NoMemory();
                goto done;
            }
        }
        memcpy(buf, w, s * sizeof(long long));
        Py_ssize_t j = s;
        for (Py_ssize_t i = s + 1; i < t; i++) {
            if (w[i] == k + 1 || w[i] == -(k + 1)) {
                buf[j++] = -e * (k + 1);
                buf[j++] = (w[i] > 0 ? 1 : -1) * k;
                buf[j++] = e * (k + 1);
            }
            else {
                buf[j++] = w[i];
            }
        }
        for (Py_ssize_t i = t + 1; i < m; i++)
            buf[j++] = w[i];
        m = j;
        long long *tmp = w;
        w = buf;
        buf = tmp;
    }

    result = PyTuple_New(m);
    if (result == NULL)
        goto done;
    for (Py_ssize_t i = 0; i < m; i++) {
        PyObject *v = PyLong_FromLongLong(w[i]);
        if (v == NULL) {
            Py_CLEAR(result);
            goto done;
        }
        PyTuple_SET_ITEM(result, i, v);
    }
done:
    PyMem_Free(w);
    PyMem_Free(buf);
    Py_DECREF(seq);
    return result;
}

/* ---- grids: translation-class keys and their commutation neighbors ---- */

static int
check_grid_number(Py_ssize_t n)
{
    if (n > MAX_GRID) {
        PyErr_SetString(PyExc_ValueError, "class keys hold one byte per marker, so n must be at most 256");
        return -1;
    }
    return 0;
}

/* best[0:2n] = the least serialization of (x, o) over all n*n torus
 * translations; x and o hold n values in [0, n). */
static void
canon(int n, const unsigned char *x, const unsigned char *o, unsigned char *best)
{
    /* t holds x twice, then o twice, so a column shift dc reads a plain
     * slice: byte c of the candidate is t[c + dc], or t[n + c + dc] for
     * c >= n. */
    unsigned char t[4 * MAX_GRID];
    memcpy(t, x, n);
    memcpy(t + n, x, n);
    memcpy(t + 2 * n, o, n);
    memcpy(t + 3 * n, o, n);
    int first = 1;
    for (int dr = 0; dr < n; dr++) {
        for (int dc = 0; dc < n; dc++) {
            int less = first;
            first = 0;
            for (int c = 0; c < 2 * n; c++) {
                int v = t[c + dc + (c < n ? 0 : n)] + dr;
                if (v >= n)
                    v -= n;
                if (!less) {
                    if (v > best[c])
                        break;
                    if (v < best[c])
                        less = 1;
                }
                best[c] = (unsigned char)v;
            }
        }
    }
}

/* Read the first n items of a sequence of ints into out, reduced mod n. */
static int
read_markers(PyObject *obj, Py_ssize_t n, unsigned char *out)
{
    PyObject *seq = PySequence_Fast(obj, "grid markers must be a sequence");
    if (seq == NULL)
        return -1;
    if (PySequence_Fast_GET_SIZE(seq) < n) {
        PyErr_SetString(PyExc_IndexError, "grid markers: index out of range");
        Py_DECREF(seq);
        return -1;
    }
    for (Py_ssize_t i = 0; i < n; i++) {
        long v = PyLong_AsLong(PySequence_Fast_GET_ITEM(seq, i));
        if (v == -1 && PyErr_Occurred()) {
            Py_DECREF(seq);
            return -1;
        }
        v %= (long)n;
        out[i] = (unsigned char)(v < 0 ? v + n : v);
    }
    Py_DECREF(seq);
    return 0;
}

PyDoc_STRVAR(grid_canon_key_doc,
"grid_canon_key(n, x, o)\n--\n\n"
"Minimal serialization of (x, o) over all torus translations.");

static PyObject *
grid_canon_key(PyObject *self, PyObject *args)
{
    Py_ssize_t n;
    PyObject *xs, *os;
    unsigned char x[MAX_GRID], o[MAX_GRID], best[2 * MAX_GRID];
    if (!PyArg_ParseTuple(args, "nOO:grid_canon_key", &n, &xs, &os))
        return NULL;
    if (check_grid_number(n) < 0)
        return NULL;
    if (n <= 0)
        Py_RETURN_NONE;
    if (read_markers(xs, n, x) < 0 || read_markers(os, n, o) < 0)
        return NULL;
    canon((int)n, x, o, best);
    return PyBytes_FromStringAndSize((const char *)best, 2 * n);
}

/* Adjacent lines with marker intervals [a1, b1], [a2, b2] commute when
 * the four endpoints are distinct and the intervals are disjoint or
 * strictly nested. */
static int
intervals_commute(int a1, int b1, int a2, int b2)
{
    if (a1 == a2 || a1 == b2 || b1 == a2 || b1 == b2)
        return 0;
    int lo1 = a1 < b1 ? a1 : b1, hi1 = a1 < b1 ? b1 : a1;
    int lo2 = a2 < b2 ? a2 : b2, hi2 = a2 < b2 ? b2 : a2;
    if (hi1 < lo2 || hi2 < lo1)
        return 1;
    return (lo1 < lo2 && hi2 < hi1) || (lo2 < lo1 && hi1 < hi2);
}

/* Insert key (2n bytes) into the sorted, duplicate-free keys[0:*count]. */
static void
insert_key(unsigned char *keys, int *count, const unsigned char *key, int n)
{
    int len = 2 * n, i = 0, cmp = 1;
    while (i < *count && (cmp = memcmp(keys + i * len, key, len)) < 0)
        i++;
    if (i < *count && cmp == 0)
        return;
    memmove(keys + (i + 1) * len, keys + i * len, (size_t)(*count - i) * len);
    memcpy(keys + i * len, key, len);
    (*count)++;
}

PyDoc_STRVAR(grid_class_neighbors_doc,
"grid_class_neighbors(n, key)\n--\n\n"
"Canonical keys of all commutation neighbors of a translation class.");

static PyObject *
grid_class_neighbors(PyObject *self, PyObject *args)
{
    Py_ssize_t nn, klen;
    const unsigned char *key;
    if (!PyArg_ParseTuple(args, "ny#:grid_class_neighbors", &nn, &key, &klen))
        return NULL;
    if (check_grid_number(nn) < 0)
        return NULL;
    if (nn <= 0)
        return PyList_New(0);
    int n = (int)nn;
    if (klen < 2 * nn) {
        PyErr_SetString(PyExc_IndexError, "class key: index out of range");
        return NULL;
    }
    const unsigned char *x = key, *o = key + n;
    int x_inv[MAX_GRID] = {0}, o_inv[MAX_GRID] = {0};
    for (int c = 0; c < n; c++) {
        if (x[c] >= n || o[c] >= n) {
            PyErr_SetString(PyExc_IndexError, "class key: marker out of range");
            return NULL;
        }
        x_inv[x[c]] = c;
        o_inv[o[c]] = c;
    }

    /* at most 2n neighbors, kept sorted and distinct */
    unsigned char *keys = PyMem_Malloc((size_t)4 * n * n);
    if (keys == NULL)
        return PyErr_NoMemory();
    unsigned char x2[MAX_GRID], o2[MAX_GRID], cand[2 * MAX_GRID];
    int count = 0;
    for (int r = 0; r < n; r++) {
        int s = (r + 1) % n;
        if (intervals_commute(x_inv[r], o_inv[r], x_inv[s], o_inv[s])) {
            for (int i = 0; i < n; i++) {
                x2[i] = x[i] == r ? s : x[i] == s ? r : x[i];
                o2[i] = o[i] == r ? s : o[i] == s ? r : o[i];
            }
            canon(n, x2, o2, cand);
            insert_key(keys, &count, cand, n);
        }
    }
    for (int c = 0; c < n; c++) {
        int d = (c + 1) % n;
        if (intervals_commute(x[c], o[c], x[d], o[d])) {
            memcpy(x2, x, n);
            memcpy(o2, o, n);
            x2[c] = x[d];
            x2[d] = x[c];
            o2[c] = o[d];
            o2[d] = o[c];
            canon(n, x2, o2, cand);
            insert_key(keys, &count, cand, n);
        }
    }

    PyObject *out = PyList_New(count);
    for (int i = 0; out != NULL && i < count; i++) {
        PyObject *b = PyBytes_FromStringAndSize((const char *)keys + i * 2 * n, 2 * n);
        if (b == NULL)
            Py_CLEAR(out);
        else
            PyList_SET_ITEM(out, i, b);
    }
    PyMem_Free(keys);
    return out;
}

/* ---- module ----------------------------------------------------------- */

static PyMethodDef fast_methods[] = {
    {"reduce_handles", reduce_handles, METH_O, reduce_handles_doc},
    {"grid_canon_key", grid_canon_key, METH_VARARGS, grid_canon_key_doc},
    {"grid_class_neighbors", grid_class_neighbors, METH_VARARGS, grid_class_neighbors_doc},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef fast_module = {
    .m_base = PyModuleDef_HEAD_INIT,
    .m_name = "gridknot._kernels._fast",
    .m_doc = "Compiled kernels; semantics mirror ``pure.py`` exactly.",
    .m_size = -1,
    .m_methods = fast_methods,
};

PyMODINIT_FUNC
PyInit__fast(void)
{
    return PyModule_Create(&fast_module);
}
