/* Compiled integer kernels: the two that ``distset._core`` routes here.

``all_pairs_completion`` and ``validate_metric`` return what their
``ops_py`` twins return, bit for bit, and raise ValueError where they
do.  Inputs are Python ints scaled to a common denominator.  This file
alone guards the int64 range: read_int refuses an entry outside
[-LIMIT, LIMIT], LIMIT = 2**60, so every sum of three entries fits, and
``_core`` answers that OverflowError with ``ops_py``.  Input that C
would read out of bounds or wrap raises before d is written: an entry
that is not an int (TypeError) or out of range (OverflowError), a d that
is not n by n, or los and his of different lengths (ValueError).
*/

#define PY_SSIZE_T_CLEAN
#include <Python.h>

typedef long long i64;

#define LIMIT (1LL << 60)

/* Read an int in [-LIMIT, LIMIT] into *out; -1 with an exception set if v
   is not an int or out of range.  No Python code runs, so a sequence
   being read cannot change under its reader. */
static int
read_int(PyObject *v, i64 *out)
{
    if (!PyLong_Check(v)) {
        PyErr_Format(PyExc_TypeError, "expected an int, got %.100s",
                     Py_TYPE(v)->tp_name);
        return -1;
    }
    *out = PyLong_AsLongLong(v);
    if (*out == -1 && PyErr_Occurred())
        return -1;
    if (*out < -LIMIT || *out > LIMIT) {
        PyErr_SetString(PyExc_OverflowError, "entry outside [-2**60, 2**60]");
        return -1;
    }
    return 0;
}

/* An "O&" converter for n.  An n that does not fit Py_ssize_t raises
   ValueError: OverflowError is kept for entries, so that _core's
   fallback to ops_py never sees an n that no matrix can have. */
static int
read_n(PyObject *v, void *out)
{
    *(Py_ssize_t *)out = PyNumber_AsSsize_t(v, PyExc_ValueError);
    return !(*(Py_ssize_t *)out == -1 && PyErr_Occurred());
}

/* A PyMem_Malloc'ed copy of a sequence of ints, its length in *len;
   NULL with an exception set on failure. */
static i64 *
copy_ints(PyObject *seq, Py_ssize_t *len)
{
    PyObject *fast = PySequence_Fast(seq, "expected a sequence of ints");
    if (fast == NULL)
        return NULL;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(fast);
    PyObject **items = PySequence_Fast_ITEMS(fast);
    i64 *buf = PyMem_Malloc((n > 0 ? n : 1) * sizeof(i64));
    if (buf == NULL)
        PyErr_NoMemory();
    for (Py_ssize_t t = 0; buf != NULL && t < n; t++)
        if (read_int(items[t], &buf[t]) < 0) {
            PyMem_Free(buf);
            buf = NULL;
        }
    Py_DECREF(fast);
    *len = n;
    return buf;
}

/* Whether a flat matrix of total entries is n by n. */
static int
is_square(Py_ssize_t n, Py_ssize_t total)
{
    if (n >= 0 && (n == 0 ? total == 0 : total % n == 0 && total / n == n))
        return 1;
    PyErr_SetString(PyExc_ValueError, "d must hold n * n entries");
    return 0;
}

PyDoc_STRVAR(all_pairs_completion_doc,
"all_pairs_completion($module, n, d, los, his, /)\n--\n\n"
"All-pairs walk-infimum closure of a flat n*n weight matrix, in place;\n"
"-1 marks an absent edge.  Returns d.  See ops_py.all_pairs_completion.");

static PyObject *
all_pairs_completion(PyObject *self, PyObject *args)
{
    Py_ssize_t n, total, m, mh;
    PyObject *d, *los_obj, *his_obj, *result = NULL;
    if (!PyArg_ParseTuple(args, "O&OOO:all_pairs_completion",
                          read_n, &n, &d, &los_obj, &his_obj))
        return NULL;
    i64 *dd = copy_ints(d, &total), *orig = NULL, *los = NULL, *his = NULL;
    if (dd == NULL || !is_square(n, total)
        || (orig = PyMem_Malloc((total > 0 ? total : 1) * sizeof(i64))) == NULL
        || (los = copy_ints(los_obj, &m)) == NULL
        || (his = copy_ints(his_obj, &mh)) == NULL)
        goto done;
    if (m != mh) {
        PyErr_SetString(PyExc_ValueError, "los and his differ in length");
        goto done;
    }
    memcpy(orig, dd, total * sizeof(i64));
    for (Py_ssize_t t = 0; t < total; t++)
        if (dd[t] < 0)
            dd[t] = -1;
    /* Round k relaxes every i-j through k.  A walk sum s = d_ik + d_kj
       replaces d_ij, truncated to the largest member <= s, when d_ij is
       absent or s < d_ij: the test ops_py makes. */
    for (Py_ssize_t k = 0; k < n; k++) {
        const i64 *row_k = dd + k * n;
        for (Py_ssize_t i = 0; i < n; i++) {
            i64 *row_i = dd + i * n, dik = row_i[k];
            if (dik < 0)
                continue;
            for (Py_ssize_t j = 0; j < n; j++) {
                i64 s = dik + row_k[j];
                if (row_k[j] < 0 || (row_i[j] >= 0 && s >= row_i[j]))
                    continue;
                Py_ssize_t lo = 0, hi = m;  /* bisect_right(los, s) */
                while (lo < hi) {
                    Py_ssize_t mid = (lo + hi) / 2;
                    if (los[mid] <= s)
                        lo = mid + 1;
                    else
                        hi = mid;
                }
                if (lo == 0) {
                    PyErr_SetString(PyExc_ValueError,
                                    "no set element below the requested bound");
                    goto done;
                }
                row_i[j] = s < his[lo - 1] ? s : his[lo - 1];
            }
        }
    }
    for (Py_ssize_t t = 0; t < total; t++) {
        if (dd[t] == orig[t])
            continue;
        PyObject *v = PyLong_FromLongLong(dd[t]);
        if (v == NULL || PySequence_SetItem(d, t, v) < 0) {
            Py_XDECREF(v);
            goto done;
        }
        Py_DECREF(v);
    }
    Py_INCREF(d);
    result = d;
done:
    PyMem_Free(dd);
    PyMem_Free(orig);
    PyMem_Free(los);
    PyMem_Free(his);
    return result;
}

PyDoc_STRVAR(validate_metric_doc,
"validate_metric($module, n, d, /)\n--\n\n"
"First metric-axiom violation in a flat n*n matrix, or None:\n"
"(\"diag\", i, i), (\"sym\", i, j), (\"pos\", i, j) or the first\n"
"(\"tri\", i, j, k) in (i, j, k) order.  See ops_py.validate_metric.");

static PyObject *
validate_metric(PyObject *self, PyObject *args)
{
    Py_ssize_t n, total;
    PyObject *d, *result = NULL;
    if (!PyArg_ParseTuple(args, "O&O:validate_metric", read_n, &n, &d))
        return NULL;
    i64 *dd = copy_ints(d, &total);
    if (dd == NULL || !is_square(n, total))
        goto done;
    for (Py_ssize_t i = 0; i < n; i++)
        if (dd[i * n + i] != 0) {
            result = Py_BuildValue("(snn)", "diag", i, i);
            goto done;
        }
    for (Py_ssize_t i = 0; i < n; i++)
        for (Py_ssize_t j = i + 1; j < n; j++) {
            if (dd[i * n + j] != dd[j * n + i]) {
                result = Py_BuildValue("(snn)", "sym", i, j);
                goto done;
            }
            if (dd[i * n + j] <= 0) {
                result = Py_BuildValue("(snn)", "pos", i, j);
                goto done;
            }
        }
    /* The matrix is now symmetric, so d_kj is read as d_jk, along row j.
       With a zero diagonal and positive entries, k = i and k = j cannot
       fire, so no k is skipped. */
    for (Py_ssize_t i = 0; i < n; i++) {
        const i64 *row_i = dd + i * n;
        for (Py_ssize_t j = 0; j < n; j++) {
            const i64 *row_j = dd + j * n;
            for (Py_ssize_t k = 0; k < n; k++)
                if (row_i[j] > row_i[k] + row_j[k]) {
                    result = Py_BuildValue("(snnn)", "tri", i, j, k);
                    goto done;
                }
        }
    }
    result = Py_NewRef(Py_None);
done:
    PyMem_Free(dd);
    return result;
}

static PyMethodDef methods[] = {
    {"all_pairs_completion", all_pairs_completion, METH_VARARGS,
     all_pairs_completion_doc},
    {"validate_metric", validate_metric, METH_VARARGS, validate_metric_doc},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_ops_c",
    .m_doc = "The integer kernels that distset._core routes to compiled code.",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC
PyInit__ops_c(void)
{
    return PyModule_Create(&module);
}
