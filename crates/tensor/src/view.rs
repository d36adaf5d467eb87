//! Where a logical `rows × n` matrix lives in its buffer ([`RunView`]),
//! and a buffer written through one, a band of rows at a time
//! ([`ViewMut`]): the addressing the sparse-dense kernel reads `B` and
//! writes `C` through, and the dense row-panel kernels' epilogue
//! ([`mod@crate::gemm`]) writes finished tiles through — for a contraction
//! result, the output permutation.

use crate::scalar::Scalar;
use crate::shape::is_permutation;
use crate::{Error, Result};
use std::marker::PhantomData;
use std::sync::OnceLock;

/// One mode of a row-major tensor: `(extent, stride)`.
type Axis = (usize, usize);

/// Where the logical `rows × n` matrix of an operand or result lives in
/// its buffer, as *(offset tables, contiguous inner run)*: element
/// `(r, o·run + i)` sits at `rows[r] + outer[o] + i`, which is
/// `rows[r] + cols[o·run + i]`. A plain row-major matrix is the view with
/// one full-width run per row. Every view is injective — a matrix, or a
/// tensor's modes each read once ([`Modes`]) — so distinct rows never
/// share an element.
pub struct RunView {
    rows: Vec<usize>,
    outer: Vec<usize>,
    run: usize,
    /// Offset of every column when runs are longer than one element,
    /// built for the first [`ViewMut`] (the sparse-dense kernel walks runs
    /// and never needs it).
    cols: OnceLock<Vec<usize>>,
    /// One past the largest offset.
    span: usize,
}

impl RunView {
    /// The view of a contiguous row-major `rows × n` matrix, cut into runs
    /// of `run` elements (`run` divides `n`; both may be zero).
    pub fn matrix(rows: usize, n: usize, run: usize) -> Self {
        Self::new(
            (0..rows).map(|r| r * n).collect(),
            (0..n / run.max(1)).map(|o| o * run).collect(),
            run,
        )
    }

    /// The view a dense contraction writes its result through: row `r`,
    /// column `j` of the natural-order (`free A`, `free B`) `m × n` product
    /// — `nat_dims`, its last modes spanning `n` — at its place in the
    /// output tensor, whose mode `i` is natural mode `out_perm[i]`.
    pub fn output(nat_dims: &[usize], out_perm: &[usize], (m, n): (usize, usize)) -> Result<Self> {
        if !is_permutation(out_perm, nat_dims.len()) {
            return Err(Error::ShapeMismatch(format!(
                "{out_perm:?} does not permute {} modes",
                nat_dims.len()
            )));
        }
        let volume = nat_dims.iter().try_fold(1usize, |v, &d| v.checked_mul(d));
        if volume.is_none() || volume != m.checked_mul(n) {
            return Err(Error::ShapeMismatch(format!(
                "{nat_dims:?} is no {m} × {n} matrix"
            )));
        }
        if m * n == 0 {
            return Ok(Self::matrix(m, n, n));
        }
        let mut inv = vec![0usize; out_perm.len()];
        for (i, &q) in out_perm.iter().enumerate() {
            inv[q] = i;
        }
        let out_dims: Vec<usize> = out_perm.iter().map(|&q| nat_dims[q]).collect();
        let modes = Modes::new(&out_dims, &inv, n)?;
        modes.view(modes.max_run())
    }

    /// The view whose runs start at the offsets `outer`.
    fn new(rows: Vec<usize>, outer: Vec<usize>, run: usize) -> Self {
        let last = |offs: &[usize]| offs.iter().max().copied();
        let span = match (last(&rows), last(&outer)) {
            (Some(r), Some(o)) if run > 0 => r + o + run,
            _ => 0,
        };
        Self {
            rows,
            outer,
            run,
            cols: OnceLock::new(),
            span,
        }
    }

    /// Offset of every column, `outer[j / run] + j % run`: the run
    /// offsets themselves when runs are one element long.
    fn cols(&self) -> &[usize] {
        if self.run == 1 {
            return &self.outer;
        }
        self.cols.get_or_init(|| {
            let mut cols = Vec::with_capacity(self.n());
            for &o in &self.outer {
                cols.extend(o..o + self.run);
            }
            cols
        })
    }

    /// Row offsets.
    #[inline]
    pub fn rows(&self) -> &[usize] {
        &self.rows
    }

    /// Offsets of the runs within a row.
    #[inline]
    pub fn outer(&self) -> &[usize] {
        &self.outer
    }

    /// Elements per contiguous run.
    #[inline]
    pub fn run(&self) -> usize {
        self.run
    }

    /// Columns of the matrix.
    #[inline]
    pub fn n(&self) -> usize {
        self.outer.len() * self.run
    }

    /// Length of the buffer the view addresses: one past its largest
    /// offset.
    #[inline]
    pub fn len(&self) -> usize {
        self.span
    }

    /// Whether the view addresses no element.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.span == 0
    }
}

/// The modes of a row-major tensor of shape `dims` in a given order
/// (unit modes dropped), split in front of the trailing group that spans
/// a matrix's `n` columns: what a [`RunView`] reading the tensor in place
/// is cut from.
pub struct Modes {
    rows: Vec<Axis>,
    cols: Vec<Axis>,
}

impl Modes {
    /// `dims`' modes listed in `order` (a permutation), most significant
    /// first; the trailing ones must span `n` elements.
    pub fn new(dims: &[usize], order: &[usize], n: usize) -> Result<Self> {
        if !is_permutation(order, dims.len()) {
            return Err(Error::ShapeMismatch(format!(
                "{order:?} does not order {} modes",
                dims.len()
            )));
        }
        let modes: Vec<Axis> = order
            .iter()
            .filter(|&&p| dims[p] != 1)
            .map(|&p| (dims[p], dims[p + 1..].iter().product()))
            .collect();
        let at = split_trailing(&modes, n)?;
        let (rows, cols) = modes.split_at(at);
        Ok(Self {
            rows: rows.to_vec(),
            cols: cols.to_vec(),
        })
    }

    /// Extents of the column modes, most significant first.
    pub fn col_extents(&self) -> impl Iterator<Item = usize> + '_ {
        self.cols.iter().map(|m| m.0)
    }

    /// Number of rows: the product of the row modes' extents.
    pub fn row_count(&self) -> usize {
        self.rows.iter().map(|m| m.0).product()
    }

    /// Extent of the longest trailing group of column modes that is
    /// contiguous (unit stride, each mode nested directly inside the
    /// previous).
    pub fn max_run(&self) -> usize {
        let mut run = 1;
        for &(dim, stride) in self.cols.iter().rev() {
            if stride != run {
                break;
            }
            run *= dim;
        }
        run
    }

    /// The view of the tensor read in place, its columns in runs of `run`
    /// elements: a trailing product of the column extents no longer than
    /// [`Modes::max_run`].
    pub fn view(&self, run: usize) -> Result<RunView> {
        let at = split_trailing(&self.cols, run)?;
        if run > self.max_run() {
            return Err(Error::ShapeMismatch(format!(
                "a run of {run} is not contiguous in {:?}",
                self.cols
            )));
        }
        Ok(RunView::new(
            mode_offsets(&self.rows),
            mode_offsets(&self.cols[..at]),
            run,
        ))
    }
}

/// Where the trailing group of `modes` of total extent `width` starts.
fn split_trailing(modes: &[Axis], width: usize) -> Result<usize> {
    let (mut at, mut got) = (modes.len(), 1usize);
    while got < width && at > 0 {
        at -= 1;
        got *= modes[at].0;
    }
    if got != width {
        return Err(Error::ShapeMismatch(format!(
            "no trailing modes of {modes:?} span {width} elements"
        )));
    }
    Ok(at)
}

/// Offsets of every index combination of `modes` (most significant first)
/// in row-major order: built from the least significant mode out, each
/// mode repeating what the less significant ones spell once per index.
fn mode_offsets(modes: &[Axis]) -> Vec<usize> {
    let mut offs = Vec::with_capacity(modes.iter().map(|m| m.0).product());
    offs.push(0);
    for &(dim, stride) in modes.iter().rev() {
        let len = offs.len();
        for i in 1..dim {
            offs.extend_from_within(..len);
            offs[i * len..].iter_mut().for_each(|o| *o += i * stride);
        }
    }
    offs
}

/// How a kernel's finished tile meets its output: a fresh result stores
/// it, an accumulate step adds it.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Epilogue {
    /// `c = tile`.
    Store,
    /// `c += tile`.
    Add,
}

/// A buffer laid out by a [`RunView`], or one band of its rows — what a
/// dense row-panel kernel writes through. The bands of one buffer
/// ([`ViewMut::bands`]) may be written on different threads at once.
pub struct ViewMut<'a, T> {
    data: *mut T,
    len: usize,
    view: &'a RunView,
    /// The view's column offsets, unless a row is one run (column `j` at
    /// `outer[0] + j`).
    cols: Option<&'a [usize]>,
    /// The band: rows `[r0, r1)` of the view.
    r0: usize,
    r1: usize,
    _buf: PhantomData<&'a mut [T]>,
}

// SAFETY: `data` is the only field not `Send` by itself: it points into a
// `&mut [T]` borrowed for `'a` (`T: Send`, so elements may be written from
// another thread), and a band writes only elements of its own rows
// (`put_rows` asserts them); the bands of one buffer own disjoint rows,
// and a view is injective, so no element is reachable from two bands.
// `len`, `r0`, `r1` are plain values, `view` and `cols` shared borrows of
// `Sync` tables.
unsafe impl<T: Send> Send for ViewMut<'_, T> {}

impl<'a, T: Scalar> ViewMut<'a, T> {
    /// `buf` through `view`, cut into one band per row range. Fails unless
    /// `buf` is exactly as long as the view and the ranges are ascending,
    /// disjoint and within the view's rows.
    pub fn bands(
        view: &'a RunView,
        buf: &'a mut [T],
        ranges: &[(usize, usize)],
    ) -> Result<Vec<Self>> {
        if buf.len() != view.len() {
            return Err(Error::ShapeMismatch(format!(
                "a view of {} elements writes into {}",
                view.len(),
                buf.len()
            )));
        }
        let mut next = 0;
        for &(r0, r1) in ranges {
            if r0 < next || r1 < r0 || r1 > view.rows.len() {
                return Err(Error::BadIndex(format!(
                    "row bands {ranges:?} of a {}-row view",
                    view.rows.len()
                )));
            }
            next = r1;
        }
        let cols = (view.outer.len() > 1).then(|| view.cols());
        let data = buf.as_mut_ptr();
        Ok(ranges
            .iter()
            .map(|&(r0, r1)| Self {
                data,
                len: buf.len(),
                view,
                cols,
                r0,
                r1,
                _buf: PhantomData,
            })
            .collect())
    }

    /// `buf` through `view` as one band of every row.
    pub fn whole(view: &'a RunView, buf: &'a mut [T]) -> Result<Self> {
        let mut bands = Self::bands(view, buf, &[(0, view.rows.len())])?;
        Ok(bands.pop().expect("one range, one band"))
    }

    /// Rows `[i, i + R)`, columns `[j0, j0 + W)` of the matrix ← `tile`,
    /// stored or added: a row at once when its `W` columns lie in one
    /// contiguous stretch, element by element otherwise.
    #[inline(always)]
    pub(crate) fn put<const R: usize, const W: usize>(
        &mut self,
        i: usize,
        j0: usize,
        tile: [[T; W]; R],
        how: Epilogue,
    ) {
        self.put_rows(i, j0, W, tile.iter().map(|row| &row[..]), how);
    }

    /// Rows `i, i + 1, …` (one per item of `rows`), columns
    /// `[j0, j0 + w)` ← each row's `w` values, stored or added.
    #[inline(always)]
    pub(crate) fn put_rows<'v>(
        &mut self,
        i: usize,
        j0: usize,
        w: usize,
        rows: impl ExactSizeIterator<Item = &'v [T]>,
        how: Epilogue,
    ) where
        T: 'v,
    {
        let view = self.view;
        let r1 = i + rows.len();
        assert!(
            self.r0 <= i && r1 <= self.r1 && j0 + w <= view.n(),
            "rows {i}..{r1}, columns {j0}.. outside the band"
        );
        if w == 0 {
            return;
        }
        // at most two runs meet in a stretch no longer than one; they are
        // contiguous iff its ends are w − 1 apart
        let (c0, scattered) = match self.cols {
            None => (view.outer[0] + j0, None),
            Some(cols) => {
                let cols = &cols[j0..j0 + w];
                let contiguous = w <= view.run && cols[w - 1] == cols[0] + w - 1;
                (cols[0], (!contiguous).then_some(cols))
            }
        };
        for (&base, vals) in view.rows[i..r1].iter().zip(rows) {
            match scattered {
                None => fold(self.slice(base + c0, w), &vals[..w], how),
                Some(cols) => {
                    for (&c, &v) in cols.iter().zip(vals) {
                        fold(self.slice(base + c, 1), &[v], how);
                    }
                }
            }
        }
    }

    /// The `w` elements from offset `off`, a row offset plus column
    /// offsets of this band's view.
    #[inline(always)]
    fn slice(&mut self, off: usize, w: usize) -> &mut [T] {
        debug_assert!(off + w <= self.len, "offset past the buffer");
        // SAFETY: in bounds: a view's tables are private and fixed at
        // construction, where its span is computed from them, so every
        // row offset plus column offset lies below the span, and `bands`
        // refused a buffer of any other length. `put_rows` asserted the
        // rows are this band's, which no other band reaches (see the
        // `Send` impl), and this band is borrowed mutably for the slice's
        // life.
        unsafe { std::slice::from_raw_parts_mut(self.data.add(off), w) }
    }
}

/// `dst ← src` or `dst += src`.
#[inline(always)]
fn fold<T: Scalar>(dst: &mut [T], src: &[T], how: Epilogue) {
    match how {
        Epilogue::Store => dst.copy_from_slice(src),
        Epilogue::Add => dst.iter_mut().zip(src).for_each(|(d, &s)| *d += s),
    }
}
